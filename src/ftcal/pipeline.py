"""End-to-end toy experiment: pre-train a d-d-C classifier on C Gaussian
classes, fine-tune it on some of them in a shifted domain, then run every
diagnostic and calibration in the package and write the results as files.
The width d is the common width of the spec's class means; the default
spec gives 2-2-4 and fine-tunes two of its classes.

The emitted directory doubles as an integration fixture: every file uses
the package's standard formats, so each CLI subcommand can be pointed at
it directly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from . import io
from .analysis import (
    SimilarityReport, _diagnostics, absent_binary_prob, delta_w_similarity, linear_cka
)
from .calibration import (
    PCV_MIN_CLASSES, GammaEstimate, estimate_gamma_alg, estimate_gamma_pcv, estimate_gamma_star
)
from .data import LabeledFeatures, LabeledLogits, LabelPartition, LinearHead, _split_per_class
from .errors import ValidationError
from .metrics import AccReport, acc_report, ausuc, seen_unseen_curve
from .rng import derive_seed
from .trainer import (
    MlpModel,
    ToySpec,
    TrainConfig,
    fine_tune,
    forward_batch,
    gen_toy_data,
)

PCV_REPEATS = 3


@dataclass(frozen=True, eq=False)
class ToyReport:
    """Key quantities of one toy run (files carry the full detail)."""

    partition: LabelPartition
    pretrained_model: MlpModel
    finetuned_model: MlpModel
    pretrained_acc: AccReport
    finetuned_acc: AccReport
    calibrated_acc: AccReport
    pretrained_ausuc: float
    finetuned_ausuc: float
    gamma_alg: GammaEstimate
    gamma_star: GammaEstimate
    gamma_pcv: GammaEstimate | None
    seen_update_similarity: SimilarityReport
    absent_update_similarity: SimilarityReport
    seen_weight_norm: float
    absent_weight_norm: float
    seen_cka: float
    absent_cka: float
    absent_binary_prob: float
    outdir: str


def _train_test(data: LabeledFeatures) -> tuple[LabeledFeatures, LabeledFeatures]:
    """The train and test parts of ``data`` by ``_split_per_class``: each
    class's first rows in generation order train."""
    return tuple(
        LabeledFeatures(data.values[idx], data.labels[idx])
        for idx in _split_per_class(data.labels, np.unique(data.labels))
    )


def run_toy_pipeline(spec: ToySpec, config: TrainConfig, outdir) -> ToyReport:
    """Run the full toy experiment and write its fixture directory.

    Stages, each seeded from ``config.seed`` by a fixed stream id: generate
    both domains (stream 0); pre-train both layers on all pre-training
    classes from an identity hidden map and a zero head (stream 1);
    fine-tune on the target domain's fine-tuning classes with
    ``config.mode`` (stream 2); estimate gammas, PCV included when the
    fine-tuning set has at least ``PCV_MIN_CLASSES`` (4) classes (stream
    3); evaluate metrics, the trade-off curve, and the weight-space
    diagnostics on the held-out target test split. Outputs contain no
    timestamps, so reruns with the same seed are byte-identical.

    The model's width is the spec's: class means of width d give a d x d
    hidden map and a C x d head. ``seen_cka`` and ``absent_cka`` compare
    the heads' seen and absent row blocks, and say something only when a
    group has at least 3 classes: the default toy's groups have 2, where
    linear CKA is 1 for any input, since a centred 2 x 2 Gram is a
    multiple of [[1, -1], [-1, 1]]. A wider spec with larger groups, such
    as 20 classes of width 8 with 10 fine-tuned, makes them informative.
    """
    partition = LabelPartition(spec.num_classes, spec.fine_tuning)
    if len(partition.fine_tuning) < 2 or len(partition.absent) < 2:
        raise ValidationError("the toy pipeline needs at least 2 classes in each group")
    if spec.samples_per_class < 5:
        raise ValidationError(
            "the toy pipeline needs at least 5 samples per class so the 80/20 "
            "split leaves test data"
        )
    os.makedirs(outdir, exist_ok=True)

    pretraining, target = gen_toy_data(spec, derive_seed(config.seed, 0))
    pre_train, _ = _train_test(pretraining)
    tgt_train, tgt_test = _train_test(target)
    ft_rows = np.isin(tgt_train.labels, partition.fine_tuning)
    tgt_train_ft = LabeledFeatures(tgt_train.values[ft_rows], tgt_train.labels[ft_rows])

    base = MlpModel(
        hidden_map=np.eye(pre_train.dim),
        head=LinearHead(np.zeros((spec.num_classes, pre_train.dim))),
        activation="linear",
    )
    pretrained, pre_history = fine_tune(
        base,
        pre_train,
        range(spec.num_classes),
        # both layers are pre-trained: config.mode governs only fine-tuning
        replace(config, mode="full", seed=derive_seed(config.seed, 1)),
    )
    finetuned, ft_history = fine_tune(
        pretrained,
        tgt_train_ft,
        partition.fine_tuning,
        replace(config, seed=derive_seed(config.seed, 2)),
    )

    def evaluate(model, data):
        hidden, logits = forward_batch(model, data.values)
        return hidden, LabeledLogits(logits, data.labels)

    pre_hidden, pre_logits = evaluate(pretrained, tgt_test)
    ft_hidden, ft_logits = evaluate(finetuned, tgt_test)
    _, ft_train_logits = evaluate(finetuned, tgt_train_ft)

    pre_acc = acc_report(pre_logits, partition)
    ft_acc = acc_report(ft_logits, partition)
    pre_curve = seen_unseen_curve(pre_logits, partition)
    ft_curve = seen_unseen_curve(ft_logits, partition)
    gamma_alg = estimate_gamma_alg(ft_train_logits, partition)
    gamma_star = estimate_gamma_star(ft_logits, partition)
    calibrated_acc = acc_report(ft_logits, partition, gamma=gamma_star.value)
    gamma_pcv = None
    if len(partition.fine_tuning) >= PCV_MIN_CLASSES:
        gamma_pcv = estimate_gamma_pcv(
            tgt_train_ft,
            pretrained,
            partition,
            config,
            repeats=PCV_REPEATS,
            seed=derive_seed(config.seed, 3),
        )

    seen_sim = delta_w_similarity(pretrained.head, finetuned.head, partition.fine_tuning)
    absent_sim = delta_w_similarity(pretrained.head, finetuned.head, partition.absent)
    seen_idx = list(partition.fine_tuning)
    absent_idx = list(partition.absent)
    seen_cka = linear_cka(pretrained.head.weights[seen_idx], finetuned.head.weights[seen_idx])
    absent_cka = linear_cka(
        pretrained.head.weights[absent_idx], finetuned.head.weights[absent_idx]
    )
    binary_prob_pre = absent_binary_prob(pre_logits, partition)
    diagnostics = _diagnostics(ft_logits, finetuned.head, partition)  # ftcal diagnose's report
    norms = {
        key: diagnostics.pop(key) for key in ("mean_seen_weight_norm", "mean_absent_weight_norm")
    }
    binary_prob_ft = diagnostics.pop("absent_binary_prob")

    def path(name):
        return os.path.join(outdir, name)

    io.save_toy_spec(spec, path("toy_spec.txt"))
    io.save_train_config(config, path("train_config.txt"))
    io.save_partition(partition, path("partition.txt"))
    io.save_matrix(pre_train.values, path("pretraining_features.csv"))
    io.save_labels(pre_train.labels, path("pretraining_labels.csv"))
    io.save_matrix(tgt_train.values, path("target_train_features.csv"))
    io.save_labels(tgt_train.labels, path("target_train_labels.csv"))
    io.save_matrix(tgt_test.values, path("target_test_features.csv"))
    io.save_labels(tgt_test.labels, path("target_test_labels.csv"))
    io.save_model(pretrained, path("model_pretrained.csv"))
    io.save_model(finetuned, path("model_finetuned.csv"))
    io.save_matrix(pretrained.head.weights, path("head_pretrained.csv"))
    io.save_matrix(finetuned.head.weights, path("head_finetuned.csv"))
    io.save_history(pre_history, path("history_pretrain.csv"))
    io.save_history(ft_history, path("history_finetune.csv"))
    io.save_matrix(pre_logits.values, path("logits_pretrained.csv"))
    io.save_matrix(ft_logits.values, path("logits_finetuned.csv"))
    io.save_matrix(ft_train_logits.values, path("train_logits_finetuned.csv"))
    io.save_labels(tgt_train_ft.labels, path("train_labels_finetuned.csv"))
    io.save_matrix(pre_hidden, path("hidden_pretrained.csv"))
    io.save_matrix(ft_hidden, path("hidden_finetuned.csv"))
    io.write_report(pre_acc.as_dict(), path("metrics_pretrained.txt"))
    io.write_report(ft_acc.as_dict(), path("metrics_finetuned.txt"))
    io.write_report(calibrated_acc.as_dict(), path("metrics_calibrated.txt"))
    io.write_text(path("curve_pretrained.csv"), [io.format_curve_csv(pre_curve)])
    io.write_text(path("curve_finetuned.csv"), [io.format_curve_csv(ft_curve)])
    io.write_report(gamma_alg.as_dict(), path("gamma_alg.txt"))
    io.write_report(gamma_star.as_dict(), path("gamma_star.txt"))
    if gamma_pcv is not None:
        io.write_report(gamma_pcv.as_dict(), path("gamma_pcv.txt"))
    io.save_matrix(seen_sim.matrix, path("delta_w_seen.csv"))
    io.save_matrix(absent_sim.matrix, path("delta_w_absent.csv"))
    io.write_report(
        {
            **norms,
            "delta_w_seen_mean_offdiag": seen_sim.mean_offdiag,
            "delta_w_absent_mean_offdiag": absent_sim.mean_offdiag,
            "cka_seen": seen_cka,
            "cka_absent": absent_cka,
            "absent_binary_prob_pretrained": binary_prob_pre,
            "absent_binary_prob_finetuned": binary_prob_ft,
            **diagnostics,  # the four logit statistics
        },
        path("analysis.txt"),
    )
    summary = {
        "ausuc_pretrained": ausuc(pre_curve),
        "ausuc_finetuned": ausuc(ft_curve),
        "gamma_alg": gamma_alg.value,
        "gamma_star": gamma_star.value,
        "acc_y_y_pretrained": pre_acc.acc_y_y,
        "acc_y_y_finetuned": ft_acc.acc_y_y,
        "acc_y_y_calibrated": calibrated_acc.acc_y_y,
        "acc_u_y_pretrained": pre_acc.acc_u_y,
        "acc_u_y_finetuned": ft_acc.acc_u_y,
        "acc_u_u_finetuned": ft_acc.acc_u_u,
    }
    if gamma_pcv is not None:
        summary["gamma_pcv"] = gamma_pcv.value
    io.write_report(summary, path("report.txt"))

    return ToyReport(
        partition=partition,
        pretrained_model=pretrained,
        finetuned_model=finetuned,
        pretrained_acc=pre_acc,
        finetuned_acc=ft_acc,
        calibrated_acc=calibrated_acc,
        pretrained_ausuc=summary["ausuc_pretrained"],
        finetuned_ausuc=summary["ausuc_finetuned"],
        gamma_alg=gamma_alg,
        gamma_star=gamma_star,
        gamma_pcv=gamma_pcv,
        seen_update_similarity=seen_sim,
        absent_update_similarity=absent_sim,
        seen_weight_norm=norms["mean_seen_weight_norm"],
        absent_weight_norm=norms["mean_absent_weight_norm"],
        seen_cka=seen_cka,
        absent_cka=absent_cka,
        absent_binary_prob=binary_prob_ft,
        outdir=str(outdir),
    )
