"""Seeded inputs and one pass of each benchmark workload.

``SETUPS[name](size, seed, workdir, rec)`` builds a workload's inputs from
the seed and returns a ``Bench``. ``Bench.run_pass(rec)`` makes one pass of
public ftcal calls through ``rec`` and queues their output checks.
``Bench.replay(rec)``, set only for ``cli``, repeats each subcommand's
public calls in-process during the traced run, so that the time of a
subcommand splits into ``io`` and compute.

Why each workload exists (see README.md for the full table):

- ``logits``: the per-sample group statistics in ``metrics``,
  ``calibration`` and ``analysis`` do nearly all the work.
- ``features``: ``ncm`` and the weight diagnostics do the work; memory is
  set by NCM's N x K x d difference tensor and CKA's n x n products.
- ``train``: ``trainer`` and ``pipeline`` on tiny matrices, where per-step
  dispatch dominates.
- ``cli``: CSV parse/format in ``io`` and interpreter start-up dominate.
"""

from __future__ import annotations

import functools
import hashlib
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, replace

import numpy as np

from ftcal import (
    LabeledFeatures,
    LabeledLogits,
    LabelPartition,
    LinearHead,
    MlpModel,
    ToySpec,
    TrainConfig,
    absent_binary_prob,
    acc_report,
    apply_gamma,
    ausuc,
    class_means,
    default_train_config,
    delta_w_similarity,
    estimate_gamma_alg,
    estimate_gamma_pcv,
    estimate_gamma_star,
    fine_tune,
    format_curve_csv,
    gen_toy_data,
    gradient_check,
    gt_vs_top_nongt_absent,
    io,
    linear_cka,
    logit_gap_stats,
    make_greedy_similar_split,
    make_random_split,
    ncm_predict,
    predict_cosine,
    run_toy_pipeline,
    seen_unseen_curve,
    weight_norms,
)


@dataclass(frozen=True)
class Size:
    logits: tuple[int, int]
    feat_dim: int
    ncm_classes: int
    ncm_mean_rows: int
    ncm_eval_rows: int
    ncm_check_rows: int
    head_classes: int
    toy: ToySpec
    pcv_samples_per_class: int
    mlp: tuple[int, int, int]
    mlp_samples: int
    mlp_epochs: int
    gradcheck_cases: int
    cli_logits: tuple[int, int]


SIZES = {
    "full": Size(
        logits=(100_000, 100),
        feat_dim=256,
        ncm_classes=100,
        ncm_mean_rows=5_000,
        ncm_eval_rows=2_000,
        ncm_check_rows=16,
        head_classes=1_000,
        toy=ToySpec(),
        pcv_samples_per_class=200,
        mlp=(64, 64, 20),
        mlp_samples=4_000,
        mlp_epochs=10,
        gradcheck_cases=100,
        cli_logits=(20_000, 100),
    ),
    # For the harness's own smoke test only.
    "tiny": Size(
        logits=(2_000, 20),
        feat_dim=16,
        ncm_classes=10,
        ncm_mean_rows=200,
        ncm_eval_rows=100,
        ncm_check_rows=4,
        head_classes=40,
        toy=ToySpec(samples_per_class=25),
        pcv_samples_per_class=25,
        mlp=(8, 8, 6),
        mlp_samples=200,
        mlp_epochs=2,
        gradcheck_cases=4,
        cli_logits=(500, 20),
    ),
}

# Ground-truth logit boost and absent-column push-down: within-group
# accuracy ~0.75 while Acc_{U/Y} ~0.05, the collapse the tool diagnoses.
GT_BOOST = np.float32(3.0)
ABSENT_PUSH = np.float32(2.5)
NCM_CENTER_SCALE = 0.2  # NCM Acc_{Y/Y} ~0.55 at the full size
COSINE_GAMMA = 0.05
GRADCHECK_TOLERANCE = 1e-6
FAMILIES = (("Y", "Y"), ("S", "Y"), ("U", "Y"), ("S", "S"), ("U", "U"))
ORACLE_BLOCK = 8192  # rows per block, so oracles stay small next to a pass


@dataclass
class Bench:
    run_pass: object
    inputs: dict
    replay: object = None
    uses_children: bool = False
    probe: str = "mixed"  # see probe.py


def _describe(**arrays) -> dict:
    return {
        name: {"shape": list(arr.shape), "dtype": str(arr.dtype), "bytes": int(arr.nbytes)}
        for name, arr in arrays.items()
    }


def make_logits(num_samples: int, num_classes: int, seed: int):
    """Seeded collapse-shaped logits, drawn as float32 and widened to float64.

    float32 draws give real ties between per-sample flip thresholds. The
    split is a random half of the classes; absent columns are pushed down.
    """
    rng = np.random.default_rng([seed, 1])
    partition = make_random_split(num_classes, num_classes // 2, seed)
    labels = rng.integers(0, num_classes, size=num_samples)
    values = rng.standard_normal((num_samples, num_classes), dtype=np.float32)
    values[np.arange(num_samples), labels] += GT_BOOST
    values -= ABSENT_PUSH * partition.absent_column_mask().astype(np.float32)
    return values.astype(np.float64), labels, partition


def _absent_mask(partition) -> np.ndarray:
    mask = np.zeros(partition.num_classes, dtype=bool)
    mask[list(partition.absent)] = True
    return mask


def oracle_predict(values, absent, gamma, columns=None) -> np.ndarray:
    """Blockwise argmax after adding gamma to absent columns, over the
    columns selected by the boolean mask ``columns`` (all when None)."""
    out = np.empty(values.shape[0], dtype=np.int64)
    for start in range(0, values.shape[0], ORACLE_BLOCK):
        block = np.where(absent, values[start : start + ORACLE_BLOCK] + gamma,
                         values[start : start + ORACLE_BLOCK])
        if columns is not None:
            block[:, ~columns] = -np.inf
        out[start : start + ORACLE_BLOCK] = block.argmax(axis=1)
    return out


def oracle_acc_report(values, labels, partition) -> dict:
    """The Acc_{A/B} family at gamma 0 as counts over plain argmax."""
    absent = _absent_mask(partition)
    label_absent = absent[labels]
    n_u = int(label_absent.sum())
    n_s = labels.size - n_u
    hit_y = oracle_predict(values, absent, 0.0) == labels
    hit_s = oracle_predict(values, absent, 0.0, ~absent) == labels
    hit_u = oracle_predict(values, absent, 0.0, absent) == labels
    return {
        "acc_y_y": int(hit_y.sum()) / labels.size,
        "acc_s_y": int(hit_y[~label_absent].sum()) / n_s,
        "acc_u_y": int(hit_y[label_absent].sum()) / n_u,
        "acc_s_s": int(hit_s[~label_absent].sum()) / n_s,
        "acc_u_u": int(hit_u[label_absent].sum()) / n_u,
        "count_s": n_s,
        "count_u": n_u,
        "count_y": int(labels.size),
    }


def realised_counts(pred, labels, partition) -> dict:
    """Correct-prediction counts of Acc_{Y/Y}, Acc_{S/Y}, Acc_{U/Y}."""
    hit = pred == labels
    label_absent = _absent_mask(partition)[labels]
    return {
        "acc_y_y": int(hit.sum()),
        "acc_s_y": int(hit[~label_absent].sum()),
        "acc_u_y": int(hit[label_absent].sum()),
    }


def reported_counts(accs: dict, partition, labels) -> dict:
    """Accuracies converted back to counts over their groups."""
    n_u = int(_absent_mask(partition)[labels].sum())
    sizes = {"acc_y_y": labels.size, "acc_s_y": labels.size - n_u, "acc_u_y": n_u}
    return {key: int(round(float(accs[key]) * sizes[key])) for key in sizes}


def _mismatch(what: str, got, want) -> str | None:
    return None if got == want else f"{what}: got {got}, expected {want}"


def _curve_end_check(curve):
    first, last = tuple(curve.points[0]), tuple(curve.points[-1])
    seen, absent = curve.within_group_acc
    if first != (seen, 0.0) or last != (0.0, absent):
        return f"curve ends {first}, {last} do not match within_group_acc {curve.within_group_acc}"
    return None


def _ausuc_check(area):
    return None if 0.0 <= area <= 1.0 else f"ausuc {area} outside [0, 1]"


def oracle_star_check(values, labels, partition):
    """gamma*'s claim against the curve rule it is documented to follow.

    A sample is predicted seen iff its flip value (max seen logit minus max
    absent logit) is at least gamma, and is right iff the argmax within its
    predicted group is its label. The reported (Acc_{S/Y}, Acc_{U/Y}) must
    be that point at the reported gamma, and its overall count the largest
    over every flip value and beyond the last.
    """
    absent = _absent_mask(partition)
    flip = np.empty(values.shape[0])
    for start in range(0, values.shape[0], ORACLE_BLOCK):
        block = values[start : start + ORACLE_BLOCK]
        flip[start : start + ORACLE_BLOCK] = (block[:, ~absent].max(axis=1)
                                              - block[:, absent].max(axis=1))
    label_absent = absent[labels]
    right_seen = ~label_absent & (oracle_predict(values, absent, 0.0, ~absent) == labels)
    right_absent = label_absent & (oracle_predict(values, absent, 0.0, absent) == labels)
    seen_flips = np.sort(flip[right_seen])
    absent_flips = np.sort(flip[right_absent])
    gammas = np.unique(flip)
    overall = (seen_flips.size - np.searchsorted(seen_flips, gammas)
               + np.searchsorted(absent_flips, gammas))
    best = max(int(overall.max()), absent_flips.size)

    def check(star: dict):
        gamma = float(star["gamma"])
        want = {"acc_s_y": int((right_seen & (flip >= gamma)).sum()),
                "acc_u_y": int((right_absent & (flip < gamma)).sum())}
        claimed = reported_counts(star, partition, labels)
        got = {key: claimed[key] for key in want}
        problem = _mismatch("gamma* reported point vs curve oracle", got, want)
        if problem is None and sum(got.values()) != best:
            problem = f"gamma* overall count {sum(got.values())} is not the curve's best {best}"
        return problem

    return check


def _star_check(star, partition, labels):
    """The accuracy gamma* reports must equal the accuracy realised at it.

    A known defect of ftcal (README.md) breaks this on some seeds, so the
    workloads pass it as ``defect=``: it runs on every pass and is reported,
    but does not fail the call. ``oracle_star_check`` is the ordinary check
    of gamma*.
    """

    def check(realised: dict):
        want = reported_counts(star, partition, labels)
        return _mismatch("gamma* reported vs realised correct counts", want, realised)

    return check


# ---------------------------------------------------------------- logits


def setup_logits(size: Size, seed: int, workdir, rec) -> Bench:
    num_samples, num_classes = size.logits
    values, labels, partition = make_logits(num_samples, num_classes, seed)
    absent = _absent_mask(partition)
    seen_rows = ~absent[labels]
    train_values, train_labels = values[seen_rows], labels[seen_rows]

    @functools.cache
    def oracle_report():
        return oracle_acc_report(values, labels, partition)

    @functools.lru_cache(maxsize=1)
    def oracle_at(gamma):
        return oracle_predict(values, absent, gamma)

    star_oracle = functools.cache(lambda: oracle_star_check(values, labels, partition))

    def run_pass(rec):
        test = rec.call("data.LabeledLogits", LabeledLogits, values, labels)
        train = rec.call("data.LabeledLogits", LabeledLogits, train_values, train_labels,
                         sample=False)
        rec.call(
            "metrics.acc_report", acc_report, test, partition,
            check=lambda rep: _mismatch("acc_report vs argmax oracle", rep.as_dict(), oracle_report()),
        )
        curve = rec.call("metrics.seen_unseen_curve", seen_unseen_curve, test, partition,
                         check=_curve_end_check)
        rec.call("metrics.ausuc", ausuc, curve, check=_ausuc_check)
        star = rec.call("calibration.estimate_gamma_star", estimate_gamma_star, test, partition,
                        check=lambda est: star_oracle()({"gamma": est.value, **est.diagnostics}))
        rec.call("calibration.estimate_gamma_alg", estimate_gamma_alg, train, partition)
        rec.call(
            "calibration.apply_gamma", apply_gamma, test, partition, star.value,
            check=lambda pred: None if np.array_equal(pred, oracle_at(star.value))
            else "apply_gamma differs from the argmax oracle",
        )
        star_check = _star_check(star.diagnostics, partition, labels)
        rec.call(
            "metrics.acc_report", acc_report, test, partition, star.value,
            check=lambda rep: _mismatch(
                "acc_report at gamma* vs argmax oracle counts",
                reported_counts(rep.as_dict(), partition, labels),
                realised_counts(oracle_at(star.value), labels, partition)),
            defect=lambda rep: star_check(reported_counts(rep.as_dict(), partition, labels)),
        )
        rec.call("analysis.logit_gap_stats", logit_gap_stats, test, partition)
        rec.call("analysis.absent_binary_prob", absent_binary_prob, test, partition)
        rec.call("analysis.gt_vs_top_nongt_absent", gt_vs_top_nongt_absent, test, partition)

    return Bench(run_pass, _describe(logits=values, labels=labels, train_logits=train_values),
                 probe="arrays")


# -------------------------------------------------------------- features


def _ncm_check(values, means, classes, rows):
    """Brute-force nearest mean, row by row, on a fixed subsample."""
    positions = np.searchsorted(means.class_ids, classes)

    def check(pred):
        for i in rows:
            unit = values[i] / np.sqrt((values[i] * values[i]).sum())
            dist = []
            for p in positions:
                diff = unit - means.means[p]
                dist.append((diff * diff).sum())
            best = int(np.argmin(dist))
            chosen = int(np.searchsorted(classes, pred[i]))
            # A near-tie within rounding may go either way.
            if chosen >= len(classes) or dist[chosen] > dist[best] * (1 + 1e-12):
                return f"row {i}: ncm_predict says {int(pred[i])}, nearest mean is {int(classes[best])}"
        return None

    return check


def setup_features(size: Size, seed: int, workdir, rec) -> Bench:
    rng = np.random.default_rng([seed, 2])
    k, d = size.ncm_classes, size.feat_dim
    centers = NCM_CENTER_SCALE * rng.standard_normal((k, d))
    mean_labels = rng.permutation(np.arange(size.ncm_mean_rows) % k)
    mean_values = centers[mean_labels] + rng.standard_normal((size.ncm_mean_rows, d))
    eval_labels = rng.integers(0, k, size=size.ncm_eval_rows)
    eval_values = centers[eval_labels] + rng.standard_normal((size.ncm_eval_rows, d))

    head_partition = make_random_split(size.head_classes, size.head_classes // 2, seed)
    w_pre = rng.standard_normal((size.head_classes, d)) / np.sqrt(d)
    w_ft = w_pre + 0.1 * rng.standard_normal((size.head_classes, d)) / np.sqrt(d)
    seen = list(head_partition.fine_tuning)
    w_ft[seen] *= 1.5  # fine-tuning grows the seen rows

    def run_pass(rec):
        mean_data = rec.call("data.LabeledFeatures", LabeledFeatures, mean_values, mean_labels)
        eval_data = rec.call("data.LabeledFeatures", LabeledFeatures, eval_values, eval_labels,
                             sample=False)
        means = rec.call("ncm.class_means", class_means, mean_data, range(k))
        partition = rec.call("data.make_greedy_similar_split", make_greedy_similar_split,
                             means.means, k // 2)
        # The five families the ncm subcommand reports; Y/Y, all eval rows
        # against all means, is the stated input of ncm_predict's metrics.
        for group_a, group_b in FAMILIES:
            mask = np.isin(eval_labels, partition.group_indices(group_a))
            subset = rec.call("data.LabeledFeatures", LabeledFeatures,
                              eval_values[mask], eval_labels[mask], sample=False)
            classes = partition.group_indices(group_b)
            rows = np.linspace(0, subset.num_samples - 1, size.ncm_check_rows).astype(np.int64)
            rec.call("ncm.ncm_predict", ncm_predict, subset, means, classes,
                     check=_ncm_check(subset.values, means, classes, rows),
                     sample=group_a == group_b == "Y")

        head_pre = rec.call("data.LinearHead", LinearHead, w_pre)
        head_ft = rec.call("data.LinearHead", LinearHead, w_ft)
        rec.call("calibration.predict_cosine", predict_cosine, eval_data, head_ft,
                 head_partition, COSINE_GAMMA)
        rec.call("analysis.linear_cka", linear_cka, w_pre, w_ft)
        rec.call("analysis.delta_w_similarity", delta_w_similarity, head_pre, head_ft,
                 head_partition.fine_tuning)
        rec.call("analysis.delta_w_similarity", delta_w_similarity, head_pre, head_ft,
                 head_partition.absent)
        rec.call("analysis.weight_norms", weight_norms, head_ft, head_partition)

    return Bench(run_pass, _describe(
        mean_features=mean_values, eval_features=eval_values, head_pretrained=w_pre,
        head_finetuned=w_ft,
    ))


# ----------------------------------------------------------------- train


def _digest_dir(path) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        digest.update(name.encode())
        with open(os.path.join(path, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def _pcv_spec(samples_per_class: int) -> ToySpec:
    """Eight 2-D Gaussian classes, four of them fine-tuned."""
    return ToySpec(
        class_means=tuple((10.0, float(y)) for y in (1, 2, 3, 4, 6, 7, 8, 9)),
        shift=(1.0, -1.0) * 4,
        samples_per_class=samples_per_class,
        fine_tuning=(0, 2, 5, 7),
    )


def setup_train(size: Size, seed: int, workdir, rec) -> Bench:
    toy_config = default_train_config(seed=seed)

    # PCV: pre-train the 2-2-8 model here, so the pass holds PCV alone.
    spec = _pcv_spec(size.pcv_samples_per_class)
    pretraining, target = gen_toy_data(spec, seed)
    base = MlpModel(np.eye(2), LinearHead(np.zeros((spec.num_classes, 2))))
    pcv_model, _ = fine_tune(base, pretraining, range(spec.num_classes), toy_config)
    in_ft = np.isin(target.labels, spec.fine_tuning)
    pcv_data = LabeledFeatures(target.values[in_ft], target.labels[in_ft])
    pcv_partition = LabelPartition(spec.num_classes, spec.fine_tuning)

    # A 64 -> 64 -> 20 rectified MLP fine-tuned on half of its classes.
    rng = np.random.default_rng([seed, 3])
    d_in, d_hidden, n_classes = size.mlp
    allowed = np.sort(rng.permutation(n_classes)[: n_classes // 2])
    mlp = MlpModel(
        rng.standard_normal((d_hidden, d_in)) / np.sqrt(d_in),
        LinearHead(rng.standard_normal((n_classes, d_hidden)) / np.sqrt(d_hidden)),
        activation="rectified",
    )
    mlp_labels = rng.choice(allowed, size=size.mlp_samples)
    centers = rng.standard_normal((n_classes, d_in))
    mlp_values = centers[mlp_labels] + rng.standard_normal((size.mlp_samples, d_in))
    mlp_data = LabeledFeatures(mlp_values, mlp_labels)
    mlp_config = TrainConfig(learning_rate=0.01, momentum=0.9, weight_decay=1e-4,
                             epochs=size.mlp_epochs, batch_size=64, seed=seed)
    outdir = os.path.join(workdir, "toy")
    first_digest = None

    def fixture_check(_report):
        nonlocal first_digest
        digest = _digest_dir(outdir)
        shutil.rmtree(outdir)
        first_digest = first_digest or digest
        return _mismatch("toy fixture digest", digest, first_digest)

    def run_pass(rec):
        rec.call("pipeline.run_toy_pipeline", run_toy_pipeline, size.toy, toy_config, outdir,
                 check=fixture_check)
        rec.call("calibration.estimate_gamma_pcv", estimate_gamma_pcv, pcv_data, pcv_model,
                 pcv_partition, toy_config, repeats=3, seed=seed)
        for mode in ("full", "frozen_classifier", "linear_probe"):
            rec.call("trainer.fine_tune", fine_tune, mlp, mlp_data, allowed,
                     replace(mlp_config, mode=mode))
        rec.call("trainer.gradient_check", gradient_check, size.gradcheck_cases,
                 check=lambda worst: None if worst <= GRADCHECK_TOLERANCE
                 else f"gradient_check {worst} > {GRADCHECK_TOLERANCE}")

    steps = size.mlp_epochs * -(-size.mlp_samples // mlp_config.batch_size)
    bench = Bench(run_pass, _describe(mlp_features=mlp_values, pcv_features=pcv_data.values))
    bench.inputs["sgd_steps_per_fine_tune"] = steps
    return bench


# ------------------------------------------------------------------- cli

CLI_KEYS = {
    "toy": ["outdir", "ausuc_pretrained", "ausuc_finetuned", "gamma_star",
            "acc_u_y_pretrained", "acc_u_y_finetuned", "acc_y_y_calibrated"],
    "metrics": ["acc_y_y", "acc_s_y", "acc_u_y", "acc_s_s", "acc_u_u",
                "count_s", "count_u", "count_y"],
    "ausuc": ["ausuc"],
    "gamma-star": ["method", "gamma", "acc_y_y", "acc_s_y", "acc_u_y"],
    "calibrate": [],
    "alg": ["method", "gamma", "gap_mean", "gap_std", "num_samples"],
    "ncm": ["acc_y_y", "acc_s_y", "acc_u_y", "acc_s_s", "acc_u_u",
            "count_s", "count_u", "count_y"],
    "diagnose": ["mean_seen_weight_norm", "mean_absent_weight_norm", "mean_nongt_seen_logit",
                 "mean_nongt_absent_logit", "absent_binary_prob", "mean_gt_logit_absent",
                 "mean_top_nongt_absent_logit"],
}


class CliError(Exception):
    pass


@dataclass
class CliRun:
    command: str
    report: dict


def cli_result(command: str, returncode: int, stdout: str, stderr: str) -> CliRun:
    """The report of a finished CLI call; a nonzero exit raises."""
    if returncode != 0:
        raise CliError(f"exit code {returncode}: {stderr.strip()[-300:]}")
    pairs = (line.split("=", 1) for line in stdout.splitlines() if "=" in line)
    return CliRun(command, dict(pairs))


def run_cli(command: str, *args: str) -> CliRun:
    """``python -m ftcal.cli`` in a child process."""
    proc = subprocess.run([sys.executable, "-m", "ftcal.cli", command, *args],
                          capture_output=True, text=True, check=False)
    return cli_result(command, proc.returncode, proc.stdout, proc.stderr)


def _keys_problem(run: CliRun) -> str | None:
    return _mismatch(f"{run.command} report keys", list(run.report), CLI_KEYS[run.command])


def _read_labels(path) -> np.ndarray:
    with open(path, encoding="utf-8") as handle:
        return np.array(handle.read().split(), dtype=np.int64)


def setup_cli(size: Size, seed: int, workdir, rec) -> Bench:
    num_samples, num_classes = size.cli_logits
    values, labels, partition = make_logits(num_samples, num_classes, seed)
    absent = _absent_mask(partition)
    seen_rows = ~absent[labels]
    path = {name: os.path.join(workdir, name) for name in (
        "logits.csv", "labels.csv", "partition.txt", "train_logits.csv", "train_labels.csv",
        "curve.csv", "predicted.csv", "toy", "replay_predicted.csv", "replay_toy",
    )}

    def size_of(name):
        return lambda: {"bytes": os.path.getsize(path[name])}

    rec.call("io.save_matrix", io.save_matrix, values, path["logits.csv"],
             meta=size_of("logits.csv"))
    rec.call("io.save_labels", io.save_labels, labels, path["labels.csv"])
    rec.call("io.save_partition", io.save_partition, partition, path["partition.txt"])
    rec.call("io.save_matrix", io.save_matrix, values[seen_rows], path["train_logits.csv"],
             meta=size_of("train_logits.csv"), sample=False)
    rec.call("io.save_labels", io.save_labels, labels[seen_rows], path["train_labels.csv"],
             sample=False)
    oracle = oracle_acc_report(values, labels, partition)
    logit_args = ("--logits", path["logits.csv"], "--labels", path["labels.csv"],
                  "--partition", path["partition.txt"])
    toy = {name: os.path.join(path["toy"], name) for name in (
        "target_train_features.csv", "target_train_labels.csv", "target_test_features.csv",
        "target_test_labels.csv", "partition.txt", "logits_finetuned.csv", "head_finetuned.csv",
    )}

    def metrics_check(run):
        report = {key: (int(v) if key.startswith("count") else float(v))
                  for key, v in run.report.items()}
        return _keys_problem(run) or _mismatch("metrics vs argmax oracle", report, oracle)

    def ausuc_check(run):
        with open(path["curve.csv"], encoding="utf-8") as handle:
            rows = handle.read().splitlines()
        first, last = rows[1].split(",")[1:], rows[-1].split(",")[1:]
        ends = ((float(first[0]), float(first[1])), (float(last[0]), float(last[1])))
        return (_keys_problem(run) or _ausuc_check(float(run.report["ausuc"]))
                or _mismatch("curve ends vs within-group accuracy", ends,
                             ((oracle["acc_s_s"], 0.0), (0.0, oracle["acc_u_u"]))))

    star_oracle = functools.cache(lambda: oracle_star_check(values, labels, partition))

    def star_check(run):
        return _keys_problem(run) or star_oracle()(run.report)

    def star_defect(run):
        realised = realised_counts(_read_labels(path["predicted.csv"]), labels, partition)
        return _star_check(run.report, partition, labels)(realised)

    def calibrate_check(gamma):
        def check(run):
            pred = _read_labels(path["predicted.csv"])
            if not np.array_equal(pred, oracle_predict(values, absent, float(gamma))):
                return "calibrate labels differ from the argmax oracle"
            return None

        return check

    def run_pass(rec):
        for name in ("curve.csv", "predicted.csv"):
            if os.path.exists(path[name]):
                os.remove(path[name])
        rec.call("cli.toy", run_cli, "toy", "--outdir", path["toy"], "--seed", str(seed),
                 check=_keys_problem)
        rec.call("cli.metrics", run_cli, "metrics", *logit_args, check=metrics_check)
        rec.call("cli.ausuc", run_cli, "ausuc", *logit_args, "--curve-out", path["curve.csv"],
                 check=ausuc_check)
        star = rec.call("cli.gamma-star", run_cli, "gamma-star", *logit_args,
                        check=star_check, defect=star_defect)
        gamma = star.report.get("gamma", "0.0")
        rec.call("cli.calibrate", run_cli, "calibrate", *logit_args, "--gamma", gamma,
                 "--out", path["predicted.csv"], check=calibrate_check(gamma))
        rec.call("cli.alg", run_cli, "alg", "--train-logits", path["train_logits.csv"],
                 "--train-labels", path["train_labels.csv"], "--partition", path["partition.txt"],
                 check=_keys_problem)
        rec.call("cli.ncm", run_cli, "ncm",
                 "--mean-features", toy["target_train_features.csv"],
                 "--mean-labels", toy["target_train_labels.csv"],
                 "--eval-features", toy["target_test_features.csv"],
                 "--eval-labels", toy["target_test_labels.csv"],
                 "--partition", toy["partition.txt"], check=_keys_problem)
        rec.call("cli.diagnose", run_cli, "diagnose", "--logits", toy["logits_finetuned.csv"],
                 "--labels", toy["target_test_labels.csv"], "--partition", toy["partition.txt"],
                 "--head", toy["head_finetuned.csv"], check=_keys_problem)

    # The io metrics cover the 20,000-row logits CSV and its labels, the data
    # metrics the containers of those logits and of the toy mean features;
    # the other loads are made with sample=False.
    def load(rec, container, values_path, labels_path, io_sample=True, data_sample=True):
        matrix = rec.call("io.load_matrix", io.load_matrix, values_path,
                          meta={"bytes": os.path.getsize(values_path)}, sample=io_sample)
        label_arr = rec.call("io.load_labels", io.load_labels, labels_path, sample=io_sample)
        return rec.call(f"data.{container.__name__}", container, matrix, label_arr,
                        sample=data_sample)

    def load_logits(rec, logits_path, labels_path, partition_path=path["partition.txt"],
                    **sample):
        logits = load(rec, LabeledLogits, logits_path, labels_path, **sample)
        return logits, rec.call("io.load_partition", io.load_partition, partition_path)

    def replay(rec):
        """Each subcommand's public calls in-process, in the pass's order."""
        rec.call("cli.startup", run_cli, "--help")
        with rec.group("replay.toy"):
            rec.call("pipeline.run_toy_pipeline", run_toy_pipeline, ToySpec(),
                     default_train_config(seed=seed), path["replay_toy"])
        with rec.group("replay.metrics"):
            logits, part = load_logits(rec, path["logits.csv"], path["labels.csv"])
            report = rec.call("metrics.acc_report", acc_report, logits, part)
            rec.call("io.format_report", io.format_report, report.as_dict())
        with rec.group("replay.ausuc"):
            logits, part = load_logits(rec, path["logits.csv"], path["labels.csv"])
            curve = rec.call("metrics.seen_unseen_curve", seen_unseen_curve, logits, part)
            rec.call("metrics.format_curve_csv", format_curve_csv, curve)
            area = rec.call("metrics.ausuc", ausuc, curve)
            rec.call("io.format_report", io.format_report, {"ausuc": area})
        with rec.group("replay.gamma-star"):
            logits, part = load_logits(rec, path["logits.csv"], path["labels.csv"])
            star = rec.call("calibration.estimate_gamma_star", estimate_gamma_star, logits, part)
            rec.call("io.format_report", io.format_report, star.as_dict())
        with rec.group("replay.calibrate"):
            logits, part = load_logits(rec, path["logits.csv"], path["labels.csv"])
            pred = rec.call("calibration.apply_gamma", apply_gamma, logits, part, star.value)
            rec.call("io.save_labels", io.save_labels, pred, path["replay_predicted.csv"])
        with rec.group("replay.alg"):
            logits, part = load_logits(rec, path["train_logits.csv"], path["train_labels.csv"],
                                       io_sample=False, data_sample=False)
            alg = rec.call("calibration.estimate_gamma_alg", estimate_gamma_alg, logits, part)
            rec.call("io.format_report", io.format_report, alg.as_dict())
        with rec.group("replay.ncm"):
            mean_data = load(rec, LabeledFeatures, toy["target_train_features.csv"],
                             toy["target_train_labels.csv"], io_sample=False)
            eval_data = load(rec, LabeledFeatures, toy["target_test_features.csv"],
                             toy["target_test_labels.csv"], io_sample=False, data_sample=False)
            part = rec.call("io.load_partition", io.load_partition, toy["partition.txt"])
            means = rec.call("ncm.class_means", class_means, mean_data, range(part.num_classes))
            for group_a, group_b in FAMILIES:
                mask = np.isin(eval_data.labels, part.group_indices(group_a))
                subset = rec.call("data.LabeledFeatures", LabeledFeatures,
                                  eval_data.values[mask], eval_data.labels[mask], sample=False)
                rec.call("ncm.ncm_predict", ncm_predict, subset, means,
                         part.group_indices(group_b), sample=group_a == group_b == "Y")
        with rec.group("replay.diagnose"):
            logits, part = load_logits(rec, toy["logits_finetuned.csv"],
                                       toy["target_test_labels.csv"], toy["partition.txt"],
                                       io_sample=False, data_sample=False)
            head_matrix = rec.call("io.load_matrix", io.load_matrix, toy["head_finetuned.csv"],
                                   meta={"bytes": os.path.getsize(toy["head_finetuned.csv"])},
                                   sample=False)
            head = rec.call("data.LinearHead", LinearHead, head_matrix)
            rec.call("analysis.weight_norms", weight_norms, head, part)
            rec.call("analysis.logit_gap_stats", logit_gap_stats, logits, part)
            rec.call("analysis.gt_vs_top_nongt_absent", gt_vs_top_nongt_absent, logits, part)
            rec.call("analysis.absent_binary_prob", absent_binary_prob, logits, part)

    inputs = _describe(logits=values, labels=labels)
    inputs["csv_bytes"] = {name: os.path.getsize(path[name])
                           for name in ("logits.csv", "labels.csv", "train_logits.csv")}
    return Bench(run_pass, inputs, replay=replay, uses_children=True, probe="process")


SETUPS = {
    "logits": setup_logits,
    "features": setup_features,
    "train": setup_train,
    "cli": setup_cli,
}
