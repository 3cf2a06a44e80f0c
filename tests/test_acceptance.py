"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import filecmp
import os
import time
from contextlib import contextmanager

import numpy as np

from ftcal import (
    LabeledFeatures,
    LabeledLogits,
    LabelPartition,
    LinearHead,
    MlpModel,
    ToySpec,
    TrainConfig,
    absent_feature_shift,
    apply_gamma,
    ausuc,
    class_means,
    decompose,
    default_train_config,
    estimate_gamma_alg,
    gradient_check,
    linear_cka,
    ncm_predict,
    predict_restricted,
    run_toy_pipeline,
    seen_unseen_curve,
)
from ftcal import io
from ftcal.cli import main as cli_main

from test_analysis import cka_oracle
from test_metrics import grid_area, grid_curve_points, random_instance


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} ({name}): PASS")


def test_01_decomposition_identity():
    with criterion(1, "softmax decomposition identity"):
        rng = np.random.default_rng(1)
        start = time.perf_counter()
        for _ in range(1000):
            c = int(rng.integers(3, 16))
            k = int(rng.integers(1, c))
            partition = LabelPartition(c, tuple(np.sort(rng.permutation(c)[:k]).tolist()))
            row = rng.normal(0.0, 4.0, size=c)
            p_absent, within_s, within_u = decompose(row, partition)
            z = np.exp(row - row.max())
            softmax = z / z.sum()
            seen = partition.group_indices("S")
            absent = partition.group_indices("U")
            assert np.abs(p_absent * within_u - softmax[absent]).max() < 1e-12
            assert np.abs((1.0 - p_absent) * within_s - softmax[seen]).max() < 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_02_gradient_fidelity():
    with criterion(2, "analytic gradients vs central differences"):
        start = time.perf_counter()
        worst = gradient_check(num_cases=100, step=1e-5, seed=0)
        elapsed = time.perf_counter() - start
        assert worst < 1e-6, f"max relative error {worst:.3e}"
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_03_exact_ausuc_vs_grid_oracle():
    with criterion(3, "exact AUSUC matches dense-grid integration"):
        rng = np.random.default_rng(3)
        start = time.perf_counter()
        for trial in range(50):
            c = int(rng.integers(3, 21))
            k = int(rng.integers(1, c))
            partition = LabelPartition(c, tuple(np.sort(rng.permutation(c)[:k]).tolist()))
            n = int(rng.integers(20, 201))
            labels = np.concatenate(
                [
                    rng.choice(partition.group_indices("S"), size=n // 2),
                    rng.choice(partition.group_indices("U"), size=n - n // 2),
                ]
            )
            logits = LabeledLogits(rng.normal(0.0, 2.0, size=(n, c)), labels)
            curve = seen_unseen_curve(logits, partition)
            exact = ausuc(curve)
            lo = curve.thresholds[0] - 1.0
            hi = curve.thresholds[-1] + 1.0
            gammas = np.linspace(lo, hi, 100_000)
            gx, gy = grid_curve_points(logits.values, logits.labels, partition, gammas)
            assert abs(exact - grid_area(gx, gy)) < 1e-3, f"trial {trial}"
            if trial % 10 == 0:
                # spot-check the grid evaluator against plain adjusted argmax
                for g in rng.choice(gammas, size=5):
                    preds = np.argmax(
                        logits.values + g * partition.absent_column_mask(), axis=1
                    )
                    in_s = np.isin(labels, partition.group_indices("S"))
                    ex, ey = grid_curve_points(logits.values, labels, partition, [g])
                    assert ex[0] == np.mean((preds == labels)[in_s])
                    assert ey[0] == np.mean((preds == labels)[~in_s])
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_04_calibration_reclaim():
    with criterion(4, "solved gamma reclaims within-absent-correct samples"):
        trials = reclaimed = 0
        seed = 0
        while trials < 10_000:
            logits, partition = random_instance(seed, max_n=40)
            seed += 1
            absent_cols = partition.group_indices("U")
            seen_cols = partition.group_indices("S")
            within_u = predict_restricted(logits, absent_cols)
            for i in range(logits.num_samples):
                label = int(logits.labels[i])
                if label not in absent_cols or within_u[i] != label:
                    continue
                trials += 1
                row = logits.values[i]
                solved = float(row[seen_cols].max() - row[absent_cols].max()) + 1.0
                one = LabeledLogits(row[None, :], [label])
                reclaimed += int(apply_gamma(one, partition, solved)[0] == label)
                if trials == 10_000:
                    break
        assert reclaimed == trials == 10_000, f"{reclaimed}/{trials}"


def test_05_monotone_tradeoff():
    with criterion(5, "curve monotone in the calibration factor"):
        violations = 0
        for seed in range(200):
            logits, partition = random_instance(seed, max_n=80, max_c=12)
            curve = seen_unseen_curve(logits, partition)
            violations += int(np.any(np.diff(curve.points[:, 1]) < 0))
            violations += int(np.any(np.diff(curve.points[:, 0]) > 0))
        assert violations == 0


def test_06_alg_consistency():
    with criterion(6, "ALG recovers constructed shifts and respects the null"):
        # Exact recovery: dyadic logits, power-of-two group sizes, and
        # absent logits that are a permuted copy of the non-GT seen logits
        # shifted down by delta.
        partition = LabelPartition(9, (0, 1, 2, 3, 4))
        for case, delta in enumerate((1.0, 0.25, 3.75, 17.5)):
            rng = np.random.default_rng(case)
            n = 64
            values = np.zeros((n, 9))
            labels = rng.integers(0, 5, size=n)
            for i in range(n):
                nongt_seen = rng.integers(-128, 128, size=4) / 16.0
                seen_cols = [c for c in range(5) if c != labels[i]]
                values[i, seen_cols] = nongt_seen
                values[i, labels[i]] = float(rng.integers(-128, 128)) / 16.0
                values[i, 5:] = rng.permutation(nongt_seen) - delta
            estimate = estimate_gamma_alg(LabeledLogits(values, labels), partition)
            assert estimate.value == delta, f"delta={delta}: got {estimate.value!r}"

        # Null: i.i.d. logits; |gamma| within 4 standard errors of zero for
        # at least 99% of seeds.
        inside = 0
        seeds = 1000
        for seed in range(seeds):
            rng = np.random.default_rng(10_000 + seed)
            labels = rng.integers(0, 5, size=64)
            logits = LabeledLogits(rng.normal(size=(64, 9)), labels)
            estimate = estimate_gamma_alg(logits, partition)
            bound = 4.0 * estimate.diagnostics["gap_std"] / np.sqrt(64)
            inside += abs(estimate.value) <= bound
        assert inside / seeds >= 0.99, f"pass rate {inside / seeds:.3f}"


def test_07_toy_reproduction(toy_report):
    with criterion(7, "toy experiment reproduces the collapse and recovery"):
        start = time.perf_counter()
        report = run_toy_pipeline(
            ToySpec(), default_train_config(seed=0), os.path.join(toy_report.outdir, "rerun")
        )
        elapsed = time.perf_counter() - start
        assert report.finetuned_acc.acc_u_y < report.pretrained_acc.acc_u_y, "(a) no collapse"
        assert report.finetuned_acc.acc_u_u >= 0.9, "(b) within-absent accuracy lost"
        assert report.calibrated_acc.acc_y_y >= 0.9, "(c) calibration fails to reclaim"
        assert (
            report.absent_update_similarity.mean_offdiag
            > report.seen_update_similarity.mean_offdiag
        ), "(d) absent updates not more aligned"
        assert report.seen_weight_norm >= report.absent_weight_norm, "(e) seen norms smaller"
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def _wide_spec():
    """20 Gaussian classes of width 8, the first 10 fine-tuned: groups large
    enough for CKA to say something and for PCV to run."""
    rng = np.random.default_rng(12345)
    means = 10 + 3 * rng.standard_normal((20, 8))
    shift = rng.choice([-1.0, 1.0], 20)
    return ToySpec(
        class_means=tuple(map(tuple, means)),
        stddev=1.0,
        shift=tuple(shift),
        samples_per_class=50,
        fine_tuning=tuple(range(10)),
    )


def test_08_ncm_oracle_equivalence():
    with criterion(8, "NCM matches exhaustive nearest-mean search"):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            num_classes = int(rng.integers(2, 7))
            dim = int(rng.integers(2, 8))
            ref = LabeledFeatures(
                rng.normal(size=(num_classes * 6, dim)),
                np.repeat(np.arange(num_classes), 6),
            )
            means = class_means(ref, range(num_classes))
            queries = rng.normal(size=(20, dim))
            got = ncm_predict(
                LabeledFeatures(queries, np.zeros(20, dtype=int)), means, range(num_classes)
            )
            expected = []
            for row in queries:
                unit = row / np.linalg.norm(row)
                dists = [float(np.sum((unit - m) ** 2)) for m in means.means]
                expected.append(int(np.argmin(dists)))
            assert got.tolist() == expected, f"seed {seed}"


def test_09_cka_properties():
    with criterion(9, "linear CKA self, orthogonal and formula checks"):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 9))
            d = int(rng.integers(2, 7))
            a = rng.normal(size=(n, d))
            b = rng.normal(size=(n, d))
            assert abs(linear_cka(a, a) - 1.0) < 1e-12
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            assert abs(linear_cka(a, a @ q) - 1.0) < 1e-9
            assert abs(linear_cka(a, b) - cka_oracle(a, b)) < 1e-10


def test_10_feature_shift_predictor():
    with criterion(10, "one-step hidden-feature shift closed form"):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            dim_in = int(rng.integers(2, 7))
            dim_hidden = int(rng.integers(2, 6))
            num_classes = int(rng.integers(2, 7))
            model = MlpModel(
                hidden_map=rng.normal(size=(dim_hidden, dim_in)),
                head=LinearHead(rng.normal(size=(num_classes, dim_hidden))),
                activation="linear",
            )
            x = rng.normal(size=dim_in)
            other = rng.normal(size=dim_in)
            y = int(rng.integers(num_classes))
            lr = float(rng.uniform(0.05, 1.0))
            predicted, actual = absent_feature_shift(model, (x, y), other, lr)
            assert np.abs(predicted - actual).max() < 1e-10, f"seed {seed}"
        # exact zero on orthogonal (disjoint-support) inputs
        rng = np.random.default_rng(1234)
        model = MlpModel(
            hidden_map=rng.normal(size=(3, 4)),
            head=LinearHead(rng.normal(size=(5, 3))),
            activation="linear",
        )
        x = np.array([0.8, -1.2, 0.0, 0.0])
        other = np.array([0.0, 0.0, 1.5, 2.5])
        predicted, actual = absent_feature_shift(model, (x, 2), other, 0.7)
        assert np.all(predicted == 0.0) and np.all(actual == 0.0)


def _run_cli(*argv):
    code = cli_main(list(argv))
    assert code == 0, f"CLI exited {code}: {argv}"


def _assert_dirs_identical(dir_a, dir_b):
    names_a = sorted(os.listdir(dir_a))
    names_b = sorted(os.listdir(dir_b))
    assert names_a == names_b
    for name in names_a:
        assert filecmp.cmp(
            os.path.join(dir_a, name), os.path.join(dir_b, name), shallow=False
        ), f"{name} differs"


def test_11_determinism(tmp_path, capsys):
    with criterion(11, "toy and PCV runs are byte-identical under a fixed seed"):
        for name, spec in (("spec", ToySpec(samples_per_class=40)), ("wide", _wide_spec())):
            spec_path = tmp_path / f"{name}.txt"
            io.save_toy_spec(spec, spec_path)
            for run in ("a", "b"):
                _run_cli(
                    "toy",
                    "--outdir", str(tmp_path / f"{name}_{run}"),
                    "--seed", "7",
                    "--spec", str(spec_path),
                )
            _assert_dirs_identical(tmp_path / f"{name}_a", tmp_path / f"{name}_b")
        capsys.readouterr()  # drain the toy runs' stdout

        # PCV fixture: six well-separated classes, four of them fine-tuning.
        rng = np.random.default_rng(0)
        centers = rng.normal(0.0, 5.0, size=(6, 3))
        rows = np.vstack([centers[c] + 0.2 * rng.standard_normal((30, 3)) for c in range(4)])
        labels = np.repeat(np.arange(4), 30)
        io.save_matrix(rows, tmp_path / "features.csv")
        io.save_labels(labels, tmp_path / "labels.csv")
        io.save_partition(LabelPartition(6, (0, 1, 2, 3)), tmp_path / "partition.txt")
        io.save_model(
            MlpModel(np.eye(3), LinearHead(centers), activation="linear"),
            tmp_path / "model.csv",
        )
        io.save_train_config(
            TrainConfig(learning_rate=0.02, epochs=5, batch_size=16, seed=0),
            tmp_path / "config.txt",
        )
        outputs = []
        for run in ("a", "b"):
            report = tmp_path / f"pcv_{run}.txt"
            _run_cli(
                "pcv",
                "--train-features", str(tmp_path / "features.csv"),
                "--train-labels", str(tmp_path / "labels.csv"),
                "--model", str(tmp_path / "model.csv"),
                "--partition", str(tmp_path / "partition.txt"),
                "--config", str(tmp_path / "config.txt"),
                "--repeats", "3",
                "--seed", "21",
                "--out", str(report),
            )
            outputs.append((report.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]


def test_12_wide_toy_reproduction(tmp_path):
    with criterion(12, "the toy's claims hold at width 8, CKA and PCV included"):
        spec = _wide_spec()
        start = time.perf_counter()
        for seed in range(5):
            r = run_toy_pipeline(spec, default_train_config(seed=seed), tmp_path / str(seed))
            pre, ft, cal = r.pretrained_acc, r.finetuned_acc, r.calibrated_acc
            assert pre.acc_u_y - ft.acc_u_y > 0.2, f"seed {seed}: (a) no collapse"
            assert ft.acc_u_u >= 0.9, f"seed {seed}: (b) within-absent accuracy lost"
            assert cal.acc_y_y >= 0.9 and cal.acc_y_y > ft.acc_y_y, (
                f"seed {seed}: (c) calibration fails to reclaim"
            )
            assert (
                r.absent_update_similarity.mean_offdiag > r.seen_update_similarity.mean_offdiag
            ), f"seed {seed}: (d) absent updates not more aligned"
            assert r.absent_cka > r.seen_cka, f"seed {seed}: (e) absent CKA not above seen"
            assert r.seen_weight_norm >= r.absent_weight_norm, f"seed {seed}: (f) seen norms smaller"
            star = r.gamma_star.value
            assert abs(r.gamma_pcv.value - star) < abs(r.gamma_alg.value - star), (
                f"seed {seed}: (g) PCV no closer to gamma* than ALG"
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
