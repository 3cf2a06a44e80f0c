"""Weight-space and logit-space diagnostics for a fine-tuned classifier:
class-relationship similarity (linear CKA), update-direction similarity,
per-group weight norms, and absent-group logit statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (
    LabeledLogits,
    LabelPartition,
    LinearHead,
    _class_set,
    _each_block,
    _Frozen,
    _frozen_array,
    _row_blocks,
    check_num_classes,
    unit_rows,
)
from .errors import DegenerateInputError, ValidationError
from .metrics import _absent_mass, _group_stats, _hits, _labeled

# Centered Grams of nearly identical rows have HSIC at rounding-noise level;
# anything at or below this is treated as "all rows identical".
_DEGENERATE_HSIC = 1e-24


@dataclass(frozen=True, eq=False)
class SimilarityReport(_Frozen):
    """Pairwise cosine similarities over a class subset; ``matrix`` is read-only."""

    matrix: np.ndarray
    mean_offdiag: float
    subset: tuple[int, ...]

    def __post_init__(self):
        self.matrix.flags.writeable = False


def linear_cka(weights_a, weights_b) -> float:
    """Linear CKA between the Gram matrices of two row-normalized weight sets.

    With K = A_hat A_hat^T and L = B_hat B_hat^T (rows L2-normalized first),
    returns HSIC(K, L) / sqrt(HSIC(K, K) * HSIC(L, L)), where
    HSIC(K, L) = trace(K H L H) / (n - 1)^2 and H is the centering matrix
    I - 11^T / n. The value lies in [0, 1] up to rounding; higher means the
    pairwise class relationships are better preserved.

    Two forms compute it, equal up to rounding. When the rows outnumber the
    columns of both sets (n > max(d_a, d_b)), the unit rows are
    column-centred and HSIC(K, L) = ||A_c^T B_c||_F^2 / (n - 1)^2
    (Kornblith et al. 2019), which forms d x d products only, never an
    n x n matrix. Otherwise (n <= d) the n x n Grams are centred with H.
    """
    a = _frozen_array(weights_a, np.float64, "weights_a", ndim=2)
    b = _frozen_array(weights_b, np.float64, "weights_b", ndim=2)
    if a.shape[0] != b.shape[0]:
        raise ValidationError(f"row counts differ: {a.shape[0]} vs {b.shape[0]}")
    n = a.shape[0]
    if n < 2:
        raise ValidationError("linear CKA needs at least 2 rows")

    a = unit_rows(a, "weights_a")  # rebinding frees the validated copies
    b = unit_rows(b, "weights_b")
    scale = (n - 1) ** 2
    if n > max(a.shape[1], b.shape[1]):
        a -= a.mean(axis=0)  # unit_rows returned fresh arrays
        b -= b.mean(axis=0)
        hsic_ab, hsic_aa, hsic_bb = (
            float(np.square(x.T @ y).sum()) / scale for x, y in ((a, b), (a, a), (b, b))
        )
    else:
        gram_a = a @ a.T
        gram_b = b @ b.T
        centering = np.eye(n) - np.full((n, n), 1.0 / n)
        ka = centering @ gram_a @ centering
        kb = centering @ gram_b @ centering
        hsic_ab = float((ka * kb).sum()) / scale
        hsic_aa = float((ka * ka).sum()) / scale
        hsic_bb = float((kb * kb).sum()) / scale
    if hsic_aa <= _DEGENERATE_HSIC or hsic_bb <= _DEGENERATE_HSIC:
        raise DegenerateInputError("all rows identical after normalization; CKA is undefined")
    return float(hsic_ab / np.sqrt(hsic_aa * hsic_bb))


def delta_w_similarity(w_pre: LinearHead, w_ft: LinearHead, subset) -> SimilarityReport:
    """Pairwise cosine similarity of per-class weight-update directions.

    Each class's update is the fine-tuned row minus the pre-trained row,
    L2-normalized per row before comparison.
    """
    if w_pre.weights.shape != w_ft.weights.shape:
        raise ValidationError(
            f"head shapes differ: {w_pre.weights.shape} vs {w_ft.weights.shape}"
        )
    classes = _class_set(subset, "subset", w_pre.num_classes, repeats="reject").tolist()
    if len(classes) < 2:
        raise ValidationError("subset must contain at least 2 classes")

    delta = w_ft.weights[classes] - w_pre.weights[classes]
    norms = np.linalg.norm(delta, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateInputError(f"class {classes[int(zero[0])]} has zero weight change")
    unit = delta / norms[:, None]
    matrix = unit @ unit.T
    m = len(classes)
    mean_offdiag = float((matrix.sum() - np.trace(matrix)) / (m * (m - 1)))
    return SimilarityReport(matrix=matrix, mean_offdiag=mean_offdiag, subset=tuple(classes))


def weight_norms(head: LinearHead, partition: LabelPartition) -> tuple[float, float]:
    """Mean L2 norm of the classifier rows, per group: (seen, absent)."""
    check_num_classes("head has", head.num_classes, partition)
    norms = np.linalg.norm(head.weights, axis=1)
    return (
        float(norms[partition.group_indices("S")].mean()),
        float(norms[partition.group_indices("U")].mean()),
    )


def nongt_logit_means(logits: LabeledLogits, partition: LabelPartition):
    """Per-sample mean logit of each group, excluding the ground-truth
    column from its own group. Returns (seen_means, absent_means) arrays."""
    stats = _group_stats(logits, partition)
    num_seen = len(partition.fine_tuning)
    num_absent = partition.num_classes - num_seen
    in_seen = ~stats.label_absent
    if in_seen.any() and num_seen < 2:
        raise ValidationError("a seen-labeled sample has no non-ground-truth seen logit")
    if stats.label_absent.any() and num_absent < 2:
        raise ValidationError("an absent-labeled sample has no non-ground-truth absent logit")

    gt, sum_seen, sum_absent = stats.gt, stats.sum_s, stats.sum_u
    seen_means = np.where(in_seen, (sum_seen - gt) / (num_seen - 1), sum_seen / num_seen)
    absent_means = np.where(
        in_seen, sum_absent / num_absent, (sum_absent - gt) / max(num_absent - 1, 1)
    )
    return seen_means, absent_means


def logit_gap_stats(logits: LabeledLogits, partition: LabelPartition) -> tuple[float, float]:
    """Average non-ground-truth logit of each group over all samples.

    Returns (mean_nongt_seen, mean_nongt_absent); their difference on
    fine-tuning data is exactly the ALG calibration estimate.
    """
    seen_means, absent_means = nongt_logit_means(logits, partition)
    return float(seen_means.mean()), float(absent_means.mean())


def absent_binary_prob(logits: LabeledLogits, partition: LabelPartition) -> float:
    """Mean predicted probability that absent-labeled samples belong to the
    absent group (the group-level factor of the softmax decomposition)."""
    stats = _group_stats(logits, partition)
    rows = np.flatnonzero(_labeled(stats, "U"))
    values = logits.values
    groups = (partition.group_indices("S"), partition.group_indices("U"))
    row_max = np.maximum(stats.max_s, stats.max_u)[rows]
    prob = np.empty(rows.size)

    def block_prob(block: slice) -> None:
        prob[block] = _absent_mass(values[rows[block]], row_max[block], groups)

    _each_block(_row_blocks(rows.size, values.itemsize * values.shape[1]), block_prob)
    return float(prob.mean())


def gt_vs_top_nongt_absent(logits: LabeledLogits, partition: LabelPartition) -> tuple[float, float]:
    """Over absent-labeled samples: mean ground-truth logit and mean of the
    largest absent logit excluding the ground truth."""
    stats = _group_stats(logits, partition)
    if len(partition.absent) < 2:
        raise ValidationError("needs at least 2 absent classes")
    rows = np.flatnonzero(_labeled(stats, "U"))
    # The largest absent logit is the largest non-ground-truth one unless
    # the ground truth is its argmax; then the runner-up is.
    top = np.where(_hits(stats, logits.labels)[1][rows], stats.next_u[rows], stats.max_u[rows])
    return float(stats.gt[rows].mean()), float(top.mean())


def _diagnostics(logits: LabeledLogits, head: LinearHead, partition: LabelPartition) -> dict:
    """The report of ``ftcal diagnose``: the head's group weight norms and
    the logit statistics of ``logits``, each key spelled here alone."""
    seen_norm, absent_norm = weight_norms(head, partition)
    gap_seen, gap_absent = logit_gap_stats(logits, partition)
    gt_mean, top_nongt = gt_vs_top_nongt_absent(logits, partition)
    return {
        "mean_seen_weight_norm": seen_norm,
        "mean_absent_weight_norm": absent_norm,
        "mean_nongt_seen_logit": gap_seen,
        "mean_nongt_absent_logit": gap_absent,
        "absent_binary_prob": absent_binary_prob(logits, partition),
        "mean_gt_logit_absent": gt_mean,
        "mean_top_nongt_absent_logit": top_nongt,
    }
