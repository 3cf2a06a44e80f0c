"""Post-hoc logit calibration: add a constant boost to every absent-class
logit at inference, and estimate that boost without absent-class data (ALG,
pseudo cross-validation) or with it (the cheating upper bound).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .analysis import nongt_logit_means
from .data import (
    LabeledFeatures,
    LabeledLogits,
    LabelPartition,
    LinearHead,
    _refuse_zero_rows,
    _split_per_class,
    _UnitProduct,
    check_dim,
    check_gamma,
    check_num_classes,
    unit_rows,
)
from .errors import EmptyGroupError, TrainingError, ValidationError, _choice, _integer
from .metrics import _group_stats, _predict, _stats_kernel, seen_unseen_curve
from .rng import derive_rng, derive_seed
from .trainer import MlpModel, TrainConfig, fine_tune, forward_batch

METHODS = ("ALG", "PCV", "STAR", "MANUAL")
PCV_MIN_CLASSES = 4  # the fewest fine-tuning classes PCV takes: two per pseudo group


@dataclass(frozen=True)
class GammaEstimate:
    """A calibration factor (in logit units) plus how it was obtained."""

    value: float
    method: str
    diagnostics: dict

    def __post_init__(self):
        object.__setattr__(self, "method", _choice(self.method, METHODS, "method"))
        object.__setattr__(self, "value", check_gamma(self.value))

    def as_dict(self) -> dict:
        out = {"method": self.method, "gamma": self.value}
        out.update(self.diagnostics)
        return out


def apply_gamma(logits: LabeledLogits, partition: LabelPartition, gamma: float) -> np.ndarray:
    """Predicted labels after boosting every absent-class logit by ``gamma``,
    under the tie rule of ``SeenUnseenCurve``."""
    gamma = check_gamma(gamma)
    return _predict(_group_stats(logits, partition), gamma)


def estimate_gamma_alg(train_logits: LabeledLogits, partition: LabelPartition) -> GammaEstimate:
    """Average Logit Gap: mean difference between non-ground-truth seen
    logits and absent logits on the fine-tuning data.

    Every training label must belong to the fine-tuning classes, and there
    must be at least two of those (each sample needs a non-ground-truth
    seen logit).
    """
    check_num_classes("logits have", train_logits.num_classes, partition)
    if len(partition.fine_tuning) < 2:
        raise ValidationError("ALG needs at least 2 fine-tuning classes")
    if _group_stats(train_logits, partition).label_absent.any():
        raise ValidationError("ALG training data must be labeled within the fine-tuning classes")
    seen_means, absent_means = nongt_logit_means(train_logits, partition)
    # Difference of the two group means (not the mean of per-sample
    # differences) so the value matches the gap report bit for bit.
    value = float(seen_means.mean() - absent_means.mean())
    gaps = seen_means - absent_means
    gap_std = float(gaps.std(ddof=1)) if gaps.size > 1 else 0.0
    return GammaEstimate(
        value=value,
        method="ALG",
        diagnostics={"gap_mean": value, "gap_std": gap_std, "num_samples": int(gaps.size)},
    )


def _curve_pick(curve, best: int) -> tuple[float, float, float]:
    """(candidate gamma, Acc_{S/Y}, Acc_{U/Y}) of staircase point ``best``."""
    seen, absent = curve.points[best]
    return float(curve.candidate_gammas()[best]), float(seen), float(absent)


def estimate_gamma_star(test_logits: LabeledLogits, partition: LabelPartition) -> GammaEstimate:
    """Cheating calibration factor: the curve gamma maximizing overall
    accuracy on labeled test data.

    Candidates are the curve's ``candidate_gammas()``, one strictly inside
    each staircase interval; ties prefer the larger
    min(Acc_{S/Y}, Acc_{U/Y}), then the smaller gamma.
    """
    curve = seen_unseen_curve(test_logits, partition)
    seen, absent = curve.hits[:, 0], curve.hits[:, 1]
    overall = seen + absent
    balance = np.minimum(seen * curve.num_absent, absent * curve.num_seen)
    # first maximum of the balance (times num_seen * num_absent) among the best overall points
    best = int(np.argmax(np.where(overall == overall.max(), balance, -1)))
    value, acc_seen, acc_absent = _curve_pick(curve, best)
    acc = {"acc_y_y": float(curve.acc_y_y()[best]), "acc_s_y": acc_seen, "acc_u_y": acc_absent}
    return GammaEstimate(value=value, method="STAR", diagnostics=acc)


def _cosine_scores(features: LabeledFeatures, head: LinearHead) -> _UnitProduct:
    """The cosine of each feature row to each weight row, as the chunks of
    a ``data._UnitProduct``; name the first zero feature row, then the first
    zero weight row."""
    _refuse_zero_rows(features.values, "feature")
    return _UnitProduct(features.values, unit_rows(head.weights, "weight"))


def predict_cosine(
    features: LabeledFeatures, head: LinearHead, partition: LabelPartition, gamma: float
) -> np.ndarray:
    """Calibrated prediction with cosine-similarity logits.

    Logits are the cosine similarities between feature rows and weight
    rows, which removes per-class weight-magnitude effects. The statistics
    kernel and the tie rule behind ``apply_gamma`` then run on that matrix
    as it is computed, one chunk of rows at a time on this thread, so memory
    is one chunk and the matrix is never held whole. The cosines are defined
    by those chunks, cut at fixed row offsets (``data._UnitProduct``): the
    rows of a whole chunk have the same bits at any number of rows. Before,
    one product made the whole matrix; the change could move a cosine's last
    bit once, and changed no prediction on the benchmark's 1,000-class head.
    """
    check_num_classes("head has", head.num_classes, partition)
    check_dim("features have", features.dim, "head", head.dim)
    cosines = _cosine_scores(features, head)
    gamma = check_gamma(gamma)
    # labels take no part in a prediction, so any label the features carry is accepted
    unlabeled = np.zeros(features.num_samples, dtype=np.int64)
    return _predict(_stats_kernel(cosines, unlabeled, partition), gamma)


def select_balanced_gamma(curve) -> tuple[float, float, float]:
    """Curve gamma minimizing |Acc_{S/Y} - Acc_{U/Y}|, compared exactly in
    hit counts; ties take the smallest gamma. Returns (gamma, acc_seen,
    acc_absent) at the pick."""
    gap = np.abs(curve.hits[:, 0] * curve.num_absent - curve.hits[:, 1] * curve.num_seen)
    return _curve_pick(curve, int(np.argmin(gap)))  # first minimum = smallest gamma


def estimate_gamma_pcv(
    train_features: LabeledFeatures,
    pretrained: MlpModel,
    partition: LabelPartition,
    train_config: TrainConfig,
    repeats: int = 3,
    seed: int = 0,
    finetune_on_pseudo_absent: bool = False,
) -> GammaEstimate:
    """Pseudo cross-validation: simulate the seen/absent split inside the
    fine-tuning classes and pick the gamma balancing the two accuracies.

    Each repeat, with its own derived sub-seeds: (1) split the samples
    80/20 into pseudo-train and pseudo-validation, stratified per class;
    (2) randomly split the fine-tuning classes into pseudo-seen (half,
    rounded up) and pseudo-absent; (3) fine-tune a copy of the pre-trained
    model on the pseudo-seen portion of pseudo-train; (4) on
    pseudo-validation, with the label space restricted to the fine-tuning
    classes, pick the curve gamma minimizing the absolute accuracy gap
    between the pseudo groups (ties: smallest gamma). The estimate is the
    arithmetic mean of the per-repeat gammas.

    ``finetune_on_pseudo_absent`` flips which pseudo subset is fine-tuned
    while keeping the evaluation roles fixed, for replication studies of
    the swapped convention.
    """
    seen = partition.group_indices("S")
    if seen.size < PCV_MIN_CLASSES:
        raise ValidationError(f"PCV needs at least {PCV_MIN_CLASSES} fine-tuning classes")
    repeats = _integer(repeats, "repeats", 1)
    if not np.all(np.isin(train_features.labels, seen)):
        raise ValidationError("PCV training data must be labeled within the fine-tuning classes")
    check_dim("features have", train_features.dim, "model", pretrained.dim_in)
    check_num_classes("model has", pretrained.num_classes, partition)

    values, labels = train_features.values, train_features.labels
    gammas, diagnostics = [], {"repeats": repeats}
    for r in range(repeats):
        train_idx, val_idx = _split_per_class(labels, seen, derive_rng(seed, r, 0))
        if val_idx.size == 0:
            raise ValidationError(f"repeat {r}: pseudo-validation split is empty")
        order = derive_rng(seed, r, 1).permutation(seen.size)
        n_pseudo_seen = int(np.ceil(seen.size / 2))
        pseudo_seen = np.sort(seen[order[:n_pseudo_seen]])
        pseudo_absent = np.sort(seen[order[n_pseudo_seen:]])

        target = pseudo_absent if finetune_on_pseudo_absent else pseudo_seen
        rows = train_idx[np.isin(labels[train_idx], target)]
        if rows.size == 0:
            raise ValidationError(f"repeat {r}: no pseudo-training samples to fine-tune on")
        config = replace(train_config, seed=derive_seed(seed, r, 2))
        try:
            model_r, _ = fine_tune(
                pretrained, LabeledFeatures(values[rows], labels[rows]), target, config
            )
        except TrainingError as exc:
            raise TrainingError(f"repeat {r}: {exc}") from exc

        _, full_logits = forward_batch(model_r, values[val_idx])
        sub_logits = full_logits[:, seen]
        # seen is sorted and holds every label, so a label's position is its index
        sub_labels = np.searchsorted(seen, labels[val_idx])
        sub_partition = LabelPartition(int(seen.size), tuple(np.searchsorted(seen, pseudo_seen)))
        try:
            curve = seen_unseen_curve(LabeledLogits(sub_logits, sub_labels), sub_partition)
        except EmptyGroupError as exc:
            raise EmptyGroupError(f"repeat {r}: {exc}") from exc
        gamma_r, acc_seen_r, acc_absent_r = select_balanced_gamma(curve)
        gammas.append(gamma_r)
        diagnostics[f"gamma_{r}"] = gamma_r
        diagnostics[f"acc_pseudo_seen_{r}"] = acc_seen_r
        diagnostics[f"acc_pseudo_absent_{r}"] = acc_absent_r
    return GammaEstimate(value=float(np.mean(gammas)), method="PCV", diagnostics=diagnostics)
