import hashlib
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from ftcal import (
    ClassMeans,
    LabeledFeatures,
    LabelPartition,
    MissingClassError,
    ToySpec,
    ValidationError,
    acc_report,
    accuracy,
    class_means,
    gen_toy_data,
    ncm_logits,
    ncm_predict,
    predict_restricted,
)
from ftcal import cli, data, io
from helpers import write_ncm_files, write_ncm_inputs


def _near_tie_case(rng, dim):
    """Features, means of the classes 0..K-1 and a restriction, where some
    means are copies of others perturbed by 1e-16 to 1e-13 relative and
    some are exact duplicates, and feature rows range over 1e-5 to 1e5."""
    base = rng.normal(size=(int(rng.integers(2, 6)), dim)) * 10.0 ** rng.uniform(-2, 2)
    picks = rng.integers(0, len(base), size=int(rng.integers(4, 20)))
    nudges = rng.choice([-1.0, 1.0], size=(picks.size, dim)) * 10.0 ** rng.uniform(-16, -13, size=(picks.size, 1))
    duplicates = base[rng.integers(0, len(base), size=int(rng.integers(1, 4)))]
    means = rng.permutation(np.vstack([base, base[picks] * (1.0 + nudges), duplicates]))
    num_classes, num_rows = means.shape[0], 120
    near = means[rng.integers(0, num_classes, size=num_rows)]
    rows = near + rng.normal(size=(num_rows, dim)) * np.abs(near).max() * 10.0 ** rng.uniform(-3, 0, size=(num_rows, 1))
    rows *= 10.0 ** rng.uniform(-5, 5, size=(num_rows, 1))
    features = LabeledFeatures(rows, rng.integers(0, num_classes, size=num_rows))
    restriction = np.sort(rng.choice(num_classes, size=int(rng.integers(1, num_classes + 1)), replace=False))
    return features, ClassMeans(means, range(num_classes), np.ones(num_classes)), restriction


class TestClassMeans:
    def test_single_sample_is_normalized(self):
        feats = LabeledFeatures([[3.0, 0.0]], [0])
        means = class_means(feats, {0})
        np.testing.assert_allclose(means.means, [[1.0, 0.0]])
        assert means.counts.tolist() == [1]

    def test_two_sample_average_is_not_renormalized(self):
        feats = LabeledFeatures([[1.0, 0.0], [0.0, 1.0]], [0, 0])
        means = class_means(feats, {0})
        np.testing.assert_allclose(means.means, [[0.5, 0.5]])

    def test_duplicating_samples_keeps_means(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(10, 3))
        labels = rng.integers(0, 2, 10)
        once = class_means(LabeledFeatures(values, labels), {0, 1})
        twice = class_means(
            LabeledFeatures(np.vstack([values, values]), np.concatenate([labels, labels])),
            {0, 1},
        )
        np.testing.assert_allclose(once.means, twice.means)

    def test_missing_class_and_zero_norm(self):
        feats = LabeledFeatures([[1.0, 0.0]], [0])
        with pytest.raises(MissingClassError):
            class_means(feats, {0, 1})
        with pytest.raises(ValidationError, match="row 0"):
            class_means(LabeledFeatures([[0.0, 0.0]], [0]), {0})


    def test_non_integral_class_index_rejected(self):
        feats = LabeledFeatures([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0, 1, 2])
        with pytest.raises(ValidationError, match="class index 1.5 is not an integer"):
            class_means(feats, (0, 1.5))
        for two in (2, np.int64(2)):
            assert class_means(feats, (0, two)).class_ids.tolist() == [0, 2]

    def test_repeated_classes_are_merged_and_empty_is_rejected(self):
        feats = LabeledFeatures([[1.0, 0.0], [0.0, 1.0]], [0, 1])
        assert class_means(feats, [1, 0, 1]).class_ids.tolist() == [0, 1]
        with pytest.raises(ValidationError, match="^classes must be nonempty$"):
            class_means(feats, [])

    @pytest.mark.parametrize("class_ids", [[-1, 0], [1, 0], [0, 0]])
    def test_class_ids_are_nonnegative_and_strictly_increasing(self, class_ids):
        with pytest.raises(ValidationError, match="^class_ids"):
            ClassMeans(np.eye(2), class_ids, [1, 1])

    def test_class_ids_are_read_only(self):
        ids = ClassMeans(np.eye(2), [0, 1], [1, 1]).class_ids
        assert ids.dtype == np.int64 and not ids.flags.writeable

    def test_non_finite_means_rejected_at_construction(self):
        with pytest.raises(ValidationError, match="means contains non-finite"):
            ClassMeans([[np.nan, 0.0], [1.0, 0.0]], [0, 1], [1, 1])


class TestNcmPredict:
    def test_basic_nearest_mean(self):
        means = class_means(LabeledFeatures([[1.0, 0.0], [0.0, 1.0]], [0, 1]), {0, 1})
        feats = LabeledFeatures([[5.0, 0.0]], [0])
        assert ncm_predict(feats, means, {0, 1}).tolist() == [0]

    def test_non_integral_class_index_rejected(self):
        means = class_means(LabeledFeatures(np.eye(3), [0, 1, 2]), {0, 1, 2})
        feats = LabeledFeatures([[0.0, 0.0, 5.0]], [2])
        with pytest.raises(ValidationError, match="class index 1.5 is not an integer"):
            ncm_predict(feats, means, (0, 1.5))
        for two in (2, np.int64(2)):
            assert ncm_predict(feats, means, (0, two)).tolist() == [2]

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(1)
        ref = LabeledFeatures(rng.normal(size=(40, 4)), rng.integers(0, 3, 40))
        means = class_means(ref, {0, 1, 2})
        queries = rng.normal(size=(25, 4))
        labels = np.zeros(25, dtype=int)
        base = ncm_predict(LabeledFeatures(queries, labels), means, {0, 1, 2})
        scales = rng.uniform(0.01, 100.0, size=(25, 1))
        scaled = ncm_predict(LabeledFeatures(queries * scales, labels), means, {0, 1, 2})
        np.testing.assert_array_equal(base, scaled)

    def test_matches_exhaustive_search_oracle(self):
        rng = np.random.default_rng(2)
        ref = LabeledFeatures(rng.normal(size=(60, 5)), rng.integers(0, 4, 60))
        means = class_means(ref, {0, 1, 2, 3})
        queries = rng.normal(size=(20, 5))
        got = ncm_predict(LabeledFeatures(queries, np.zeros(20, dtype=int)), means, {0, 1, 2, 3})
        expected = []
        for row in queries:
            unit = row / np.linalg.norm(row)
            dists = [float(np.sum((unit - means.means[c]) ** 2)) for c in range(4)]
            expected.append(int(np.argmin(dists)))
        np.testing.assert_array_equal(got, expected)

    def test_restriction_bound(self):
        rng = np.random.default_rng(3)
        p = LabelPartition(5, (0, 1))
        ref = LabeledFeatures(rng.normal(size=(100, 4)), rng.integers(0, 5, 100))
        means = class_means(ref, range(5))
        absent_rows = rng.normal(size=(50, 4))
        absent_labels = rng.integers(2, 5, 50)
        feats = LabeledFeatures(absent_rows, absent_labels)
        over_y = ncm_predict(feats, means, range(5))
        over_u = ncm_predict(feats, means, p.absent)
        assert np.mean(over_u == absent_labels) >= np.mean(over_y == absent_labels)

    def test_restriction_must_be_covered(self):
        means = class_means(LabeledFeatures([[1.0, 0.0]], [0]), {0})
        with pytest.raises(MissingClassError, match="class 3$"):
            ncm_predict(LabeledFeatures([[1.0, 0.0]], [0]), means, {0, 3})

    def test_repeated_classes_are_merged_and_empty_is_rejected(self):
        means = class_means(LabeledFeatures(np.eye(2), [0, 1]), {0, 1})
        feats = LabeledFeatures([[0.0, 5.0]], [1])
        assert ncm_predict(feats, means, [1, 0, 1, 0]).tolist() == [1]
        with pytest.raises(ValidationError, match="^restriction must be nonempty$"):
            ncm_predict(feats, means, [])

    def test_well_separated_gaussians_reach_95_percent(self):
        pretraining, _ = gen_toy_data(ToySpec(), seed=123)
        means = class_means(pretraining, range(4))
        preds = ncm_predict(pretraining, means, range(4))
        assert np.mean(preds == pretraining.labels) >= 0.95

    def test_row_blocks_match_exhaustive_search_oracle(self, monkeypatch):
        # At most 9 query rows per block, so 20 rows span several blocks.
        monkeypatch.setattr(data, "_BLOCK_BYTES", 300)
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
            assert len(data._row_blocks(20, queries.itemsize * means.means.size)) > 1
            got = ncm_predict(
                LabeledFeatures(queries, np.zeros(20, dtype=int)), means, range(num_classes)
            )
            expected = []
            for row in queries:
                unit = row / np.linalg.norm(row)
                dists = [float(np.sum((unit - m) ** 2)) for m in means.means]
                expected.append(int(np.argmin(dists)))
            assert got.tolist() == expected, f"seed {seed}"

    @pytest.mark.parametrize("block_bytes", [1024, 16 * 2**20])
    def test_is_the_first_maximum_of_ncm_logits_on_near_ties(self, block_bytes, monkeypatch):
        # BLAS only shortlists: the direct distance decides, bit for bit as
        # ncm_logits computes it, even where |u|^2 + |m|^2 - 2 u.m does not
        monkeypatch.setattr(data, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(40)
        expansion_missed = 0
        labels = hashlib.sha256()
        for dim in (1, 2, 3, 255, 256, 1000):
            for _ in range(4):
                features, means, restriction = _near_tie_case(rng, dim)
                scores = ncm_logits(features, means).values[:, restriction]
                expected = restriction[np.argmax(scores, axis=1)]
                assert ncm_predict(features, means, restriction).tobytes() == expected.tobytes(), f"d {dim}"
                labels.update(expected.tobytes())
                unit = data.unit_rows(features.values, "feature")
                chosen = means.means[restriction]
                expansion = np.einsum("ij,ij->i", chosen, chosen) - 2.0 * unit @ chosen.T
                expansion_missed += int(np.sum(restriction[np.argmin(expansion, axis=1)] != expected))
        assert expansion_missed > 0
        # the labels of every case, as ncm_predict gave them when it normalised all rows before its pass
        assert labels.hexdigest() == "baba15e9ffcfea7f9f1e9ed0039d39671375e5d0068b1f5f5423fba1cf7f30e6"

    def test_holds_no_score_matrix(self):
        rng = np.random.default_rng(42)
        rows, candidates = rng.normal(size=(4000, 32)), rng.normal(size=(500, 32))
        tracemalloc.start()
        try:
            nearest = data._ncm_nearest(rows, candidates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one chunk of BLAS scores with its unit rows and a block of gathered pairs, not the 16 MB N x K matrix
        chunk = data._row_blocks(4000, 8 * 500)[0].stop * data._PRODUCT_BLOCKS * (500 + 32) * 8
        assert peak < nearest.nbytes + chunk + 2 * data._BLOCK_BYTES, f"peak {peak} B, chunk {chunk} B"
        unit = data.unit_rows(rows, "feature")
        assert nearest.tobytes() == np.argmax(data._ncm_scores(unit, candidates), axis=1).tobytes()

    def test_starts_no_thread_on_many_blocks(self, monkeypatch):
        # the BLAS products leave the threading to BLAS, however many blocks and CPUs there are
        monkeypatch.setattr(data, "_cpu_count", lambda: 4)
        monkeypatch.setattr(data, "_BLOCK_BYTES", 1024)
        rng = np.random.default_rng(43)
        features = LabeledFeatures(rng.normal(size=(400, 16)), np.arange(400) % 10)
        means = class_means(features, range(10))
        assert len(data._row_blocks(400, 8 * 16)) >= data._THREAD_BLOCKS
        expected = np.argmax(ncm_logits(features, means).values, axis=1)

        def refuse(*args, **kwargs):
            raise AssertionError("started a thread")

        monkeypatch.setattr(threading, "Thread", refuse)
        assert ncm_predict(features, means, range(10)).tobytes() == expected.tobytes()

    def test_the_blas_thread_count_moves_no_bit(self):
        script = (
            "import sys, numpy as np\n"
            "from ftcal import ClassMeans, LabeledFeatures, ncm_predict\n"
            "rng = np.random.default_rng(41)\n"
            "base = rng.normal(size=(50, 256))\n"
            "means = np.vstack([base, base * (1.0 + 1e-14 * rng.standard_normal((50, 256)))])\n"
            "rows = means[rng.integers(0, 100, size=2000)] + 0.1 * rng.standard_normal((2000, 256))\n"
            "features = LabeledFeatures(rows, np.zeros(2000, dtype=np.int64))\n"
            "sys.stdout.write(ncm_predict(features, ClassMeans(means, range(100), np.ones(100)), range(100)).tobytes().hex())\n"
        )
        default = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
        default["PYTHONPATH"] = os.path.dirname(os.path.dirname(data.__file__))
        runs = []
        for env in (default, {**default, "OPENBLAS_NUM_THREADS": "1"}):
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            runs.append(done.stdout)
        assert runs[0] == runs[1] and len(runs[0]) == 2000 * 16


class TestNcmLogits:
    def fixture(self):
        rng = np.random.default_rng(4)
        ref = LabeledFeatures(rng.normal(size=(60, 5)), np.arange(60) % 6)
        feats = LabeledFeatures(rng.normal(size=(40, 5)), rng.integers(0, 6, 40))
        return feats, class_means(ref, range(6))

    def test_columns_are_negative_squared_distances(self):
        feats, means = self.fixture()
        scores = ncm_logits(feats, means)
        unit = feats.values / np.linalg.norm(feats.values, axis=1)[:, None]
        for c in range(6):
            diff = unit - means.means[c]
            np.testing.assert_array_equal(scores.values[:, c], -(diff * diff).sum(axis=1))
        np.testing.assert_array_equal(scores.labels, feats.labels)

    def test_restricted_argmax_is_ncm_predict(self):
        feats, means = self.fixture()
        scores = ncm_logits(feats, means)
        for restriction in (range(6), (1, 3, 4), (2,)):
            np.testing.assert_array_equal(
                predict_restricted(scores, restriction), ncm_predict(feats, means, restriction)
            )

    def test_acc_report_reads_the_probe(self):
        feats, means = self.fixture()
        p = LabelPartition(6, (0, 1, 5))
        report = acc_report(ncm_logits(feats, means), p)
        preds = ncm_predict(feats, means, range(6))
        assert report.acc_y_y == np.mean(preds == feats.labels)

    def test_needs_means_of_classes_zero_to_k(self):
        feats, _ = self.fixture()
        ref = LabeledFeatures(np.eye(3, 5), [0, 2, 3])
        with pytest.raises(ValidationError, match="0..K-1"):
            ncm_logits(feats, class_means(ref, (0, 2, 3)))

    def test_labels_outside_the_means_are_rejected(self):
        _, means = self.fixture()
        with pytest.raises(ValidationError, match=r"labels must lie in \[0, 6\)"):
            ncm_logits(LabeledFeatures(np.ones((2, 5)), [0, 7]), means)


def _reference_report(args, restrict) -> str:
    """What ``ftcal ncm`` prints, as ``acc_report`` or ``accuracy`` on the
    ``ncm_logits`` of its eval rows and class means."""
    paths = dict(zip(args[1::2], args[2::2]))
    partition = io.load_partition(paths["--partition"])
    mean_data = LabeledFeatures(io.load_matrix(paths["--mean-features"]), io.load_labels(paths["--mean-labels"]))
    eval_data = LabeledFeatures(io.load_matrix(paths["--eval-features"]), io.load_labels(paths["--eval-labels"]))
    scores = ncm_logits(eval_data, class_means(mean_data, range(partition.num_classes)))
    if restrict == "Y":
        return io.format_report(acc_report(scores, partition).as_dict())
    return io.format_report({f"acc_{a}_{restrict}".lower(): accuracy(scores, partition, a, restrict) for a in "SUY"})


class TestNcmCommand:
    @pytest.mark.parametrize("block_bytes", [1024, 16 * 2**20])
    def test_prints_the_reports_of_ncm_logits(self, tmp_path, toy_report, block_bytes, monkeypatch, capsys):
        # ftcal ncm prints the reports of acc_report and accuracy on ncm_logits, with no N x K matrix
        monkeypatch.setattr(data, "_BLOCK_BYTES", block_bytes)
        runs = [write_ncm_files(tmp_path)]
        out = toy_report.outdir
        toy = {name: io.load_matrix(f"{out}/{name}.csv") for name in ("hidden_pretrained", "hidden_finetuned")}
        toy_labels = io.load_labels(f"{out}/target_test_labels.csv")
        toy_partition = io.load_partition(f"{out}/partition.txt")
        for mean_name in toy:
            runs.append(write_ncm_inputs(
                tmp_path / mean_name, toy[mean_name], toy_labels, toy["hidden_finetuned"], toy_labels, toy_partition
            ))
        rng = np.random.default_rng(40)
        for dim in (1, 2, 3, 255, 256, 1000):
            for case in range(2):
                features, means, _ = _near_tie_case(rng, dim)
                num_classes = means.means.shape[0]
                partition = LabelPartition(num_classes, range(0, num_classes, 2))
                runs.append(write_ncm_inputs(
                    tmp_path / f"tie_{dim}_{case}", means.means, np.arange(num_classes),
                    features.values, features.labels, partition,
                ))
        for args in runs:
            for restrict in "YSU":
                assert cli.main([*args, "--restrict", restrict]) == 0
                assert capsys.readouterr().out == _reference_report(args, restrict), (args[2], restrict)

    def test_holds_no_score_matrix(self, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(44)
        num_rows, num_classes, dim = 4000, 500, 64
        centers = rng.normal(size=(num_classes, dim))
        mean_labels, eval_labels = np.arange(2 * num_classes) % num_classes, np.arange(num_rows) % num_classes
        args = write_ncm_inputs(
            tmp_path / "inputs",
            centers[mean_labels] + rng.normal(size=(mean_labels.size, dim)), mean_labels,
            centers[eval_labels] + rng.normal(size=(num_rows, dim)), eval_labels,
            LabelPartition(num_classes, range(0, num_classes, 2)),
        )
        held = []
        real = cli.class_means

        def loaded_then_reset(*args):
            means = real(*args)
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()  # from here on, the report alone
            return means

        monkeypatch.setattr(cli, "class_means", loaded_then_reset)
        tracemalloc.start()
        try:
            assert cli.main(args) == 0
            peak = tracemalloc.get_traced_memory()[1] - held[0]
        finally:
            tracemalloc.stop()
        assert "count_y=4000" in capsys.readouterr().out
        # one chunk of BLAS scores with its unit rows, the class means a pass
        # gathers, a block of gathered pairs and O(N) vectors, not the 16 MB N x K matrix
        chunk = data._row_blocks(num_rows, 8 * num_classes)[0].stop * data._PRODUCT_BLOCKS * (num_classes + dim) * 8
        bound = chunk + num_classes * dim * 8 + 2 * data._BLOCK_BYTES + 16 * num_rows * 8
        assert peak < bound < num_rows * num_classes * 8, f"peak {peak} B, bound {bound} B"
