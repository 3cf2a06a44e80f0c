"""Group-restricted accuracy, softmax decomposition, and the exact
seen-unseen trade-off curve with its area (AUSUC).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import (
    LabeledLogits,
    LabelPartition,
    _class_set,
    _each_block,
    _Frozen,
    _frozen_array,
    _GROUPS,
    _row_blocks,
    check_gamma,
    check_num_classes,
)
from .errors import EmptyGroupError, _choice


@dataclass(frozen=True)
class AccReport:
    """The five-accuracy family Acc_{A/B}: samples labeled in group A,
    classified by argmax restricted to label space B."""

    _PAIRS = ("acc_y_y", "acc_s_y", "acc_u_y", "acc_s_s", "acc_u_u")  # the fields below, in order
    acc_y_y: float
    acc_s_y: float
    acc_u_y: float
    acc_s_s: float
    acc_u_u: float
    num_seen: int
    num_absent: int

    @property
    def num_total(self) -> int:
        return self.num_seen + self.num_absent

    def as_dict(self) -> dict:
        accuracies = {pair: getattr(self, pair) for pair in self._PAIRS}
        return {**accuracies, "count_s": self.num_seen, "count_u": self.num_absent, "count_y": self.num_total}


@dataclass(frozen=True, eq=False)
class SeenUnseenCurve(_Frozen):
    """Exact staircase of (Acc_{S/Y}, Acc_{U/Y}) over all calibration factors.

    ``thresholds`` holds the strictly increasing flip values, the gammas at
    which at least one sample's predicted group flips; a zero is +0.0.
    ``points[k]`` is the accuracy pair on the open interval
    (thresholds[k-1], thresholds[k]); points[0] covers
    (-inf, thresholds[0]) and points[-1] covers
    (thresholds[-1], +inf). Inside an interval no sample is tied between
    the groups, so each interval's accuracies are constant. ``hits[k]``
    holds the int64 seen and absent hit counts of ``points[k]``.
    ``candidate_gammas()[k]`` realises ``points[k]`` exactly under
    ``acc_report`` and ``apply_gamma``.

    Tie rule: a sample is predicted absent iff its flip value (max seen
    logit minus max absent logit) is below gamma; an exact tie goes to the
    group whose argmax has the lower class index. Within each group the
    prediction is the raw-logit argmax, so gamma never reorders a group.
    Curve points and returned gammas lie strictly inside threshold
    intervals, so no reported number depends on the tie rule, except
    between ulp-adjacent thresholds, where the point is the one realised at
    the upper threshold.
    """

    thresholds: np.ndarray
    points: np.ndarray
    hits: np.ndarray
    within_group_acc: tuple[float, float]
    num_seen: int
    num_absent: int

    def __post_init__(self):
        for array in (self.thresholds, self.points, self.hits):
            array.flags.writeable = False

    def candidate_gammas(self) -> np.ndarray:
        """One gamma realizing each staircase point, in interval order.

        The midpoint of each interior interval, thresholds[0] - 1 below the
        first threshold and thresholds[-1] + 1 beyond the last. Where the
        rounded midpoint is not strictly inside, the next float above the
        left threshold is; where two thresholds are ulp-adjacent, that is
        the upper one.
        """
        t = self.thresholds
        mid = (t[:-1] + t[1:]) / 2.0
        inner = np.where((t[:-1] < mid) & (mid < t[1:]), mid, np.nextafter(t[:-1], np.inf))
        first = min(t[0] - 1.0, np.nextafter(t[0], -np.inf))
        last = max(t[-1] + 1.0, np.nextafter(t[-1], np.inf))
        return np.concatenate([[first], inner, [last]])

    def acc_y_y(self) -> np.ndarray:
        """Overall accuracy at each staircase point.

        Taken from the hit counts, so it equals the overall accuracy
        ``acc_report`` gives at the point's gamma bit for bit.
        """
        return (self.hits[:, 0] + self.hits[:, 1]) / (self.num_seen + self.num_absent)


def predict_restricted(logits: LabeledLogits, restriction) -> np.ndarray:
    """Per-row argmax over the columns in ``restriction``; ties resolve to
    the lowest class index."""
    cols = _class_set(restriction, "restriction", logits.num_classes, repeats="merge")
    # np.argmax returns the first maximum, and the columns ascend
    return cols[np.argmax(logits.values[:, cols], axis=1)]


class _GroupStats(NamedTuple):
    """Per-sample statistics behind every accuracy, curve, gamma and logit
    diagnostic."""

    max_s: np.ndarray  # max logit over the seen columns
    arg_s: np.ndarray  # its class index, the lowest on ties
    max_u: np.ndarray  # max logit over the absent columns
    arg_u: np.ndarray  # its class index, the lowest on ties
    label_absent: np.ndarray  # whether the label is an absent class
    sum_s: np.ndarray  # sum of the seen logits, as _row_sums(values[:, seen])
    sum_u: np.ndarray  # sum of the absent logits, as _row_sums(values[:, absent])
    gt: np.ndarray  # the ground-truth logit, values[i, labels[i]]
    next_u: np.ndarray  # max absent logit outside column arg_u, a zero as +0.0; -inf if none


def _group_stats(logits: LabeledLogits, partition: LabelPartition) -> _GroupStats:
    """``_stats_kernel`` of the container's values and labels, computed once
    per container and partition.

    The container never changes, so the result is kept on it, for the last
    partition only, as ``_stats_memo`` = (partition, stats, curve or None),
    keyed by partition equality; ``seen_unseen_curve`` adds the curve. The
    tuple is replaced whole, so threads sharing the container never see a
    mix, and is no dataclass field, so it is not in repr. The statistics'
    arrays are read-only.
    """
    memo = getattr(logits, "_stats_memo", None)
    if memo is not None and memo[0] == partition:
        return memo[1]
    check_num_classes("logits have", logits.num_classes, partition)
    stats = _stats_kernel(logits.values, logits.labels, partition)
    for array in stats:
        array.flags.writeable = False
    object.__setattr__(logits, "_stats_memo", (partition, stats, None))
    return stats


def _row_sums(sub: np.ndarray) -> np.ndarray:
    """Each row of a column gather ``block[:, cols]`` summed in ascending
    column order, whatever rows surround it: numpy makes a gather of two or
    more rows Fortran-ordered and sums its rows column by column, but sums
    a one-row gather pairwise."""
    return np.cumsum(sub, axis=1)[:, -1] if sub.shape[0] == 1 else sub.sum(axis=1)


def _absent_mass(rows: np.ndarray, row_max: np.ndarray, groups) -> np.ndarray:
    """Softmax mass of the absent group in each row of ``rows``: with
    z = exp(row - row max), z_u / (z_s + z_u) for the ``_row_sums`` of the
    seen and absent columns, ``groups`` = (seen, absent)."""
    z = np.exp(rows - row_max[:, None])
    z_seen, z_absent = (_row_sums(z[:, cols]) for cols in groups)
    return z_absent / (z_seen + z_absent)


def _is_absent(labels: np.ndarray, absent: np.ndarray, num_classes: int) -> np.ndarray:
    """Whether each of ``labels`` is one of the ``absent`` class indices of
    ``num_classes``: a lookup table rather than np.isin, whose fixed cost
    dominates small inputs."""
    table = np.zeros(num_classes, dtype=bool)
    table[absent] = True
    return table[labels]


def _stats_kernel(values, labels: np.ndarray, partition: LabelPartition) -> _GroupStats:
    """Max, argmax and sum over each group's columns, the ground-truth logit
    and the runner-up absent logit of every row of ``values`` (N x C, C the
    partition's class count), computed in one pass of row blocks.
    ``labels`` holds N column indices.

    ``values`` is a stored array, whose blocks go through
    ``data._each_block``, or a ``data._UnitProduct``, whose blocks it
    computes one chunk at a time; each row's statistics are the same bits
    in any block.
    """
    num_rows, num_cols = values.shape
    groups = (partition.group_indices("S"), partition.group_indices("U"))
    maxima = [np.empty(num_rows) for _ in groups]
    argmaxima = [np.empty(num_rows, dtype=np.int64) for _ in groups]
    sums = [np.empty(num_rows) for _ in groups]
    gt, next_u = np.empty(num_rows), np.empty(num_rows)

    def block_stats(rows: slice, block: np.ndarray, _unit=None) -> None:
        at = np.arange(block.shape[0])
        gt[rows] = block[at, labels[rows]]
        for cols, best, arg, total in zip(groups, maxima, argmaxima, sums):
            sub = block[:, cols]
            idx = np.argmax(sub, axis=1)  # first maximum: lowest class index
            best[rows] = sub[at, idx]
            arg[rows] = cols[idx]
            total[rows] = _row_sums(sub)
        # sub and idx are the absent group's; masking after the sum keeps it
        # exact. Which zero max returns depends on the block's memory
        # alignment, so adding 0.0 makes every zero +0.0.
        sub[at, idx] = -np.inf
        next_u[rows] = sub.max(axis=1) + 0.0

    if isinstance(values, np.ndarray):
        blocks = _row_blocks(num_rows, values.itemsize * num_cols)
        _each_block(blocks, lambda rows: block_stats(rows, values[rows]))
    else:
        values.each_block(block_stats)
    label_absent = _is_absent(labels, groups[1], num_cols)
    return _GroupStats(
        maxima[0], argmaxima[0], maxima[1], argmaxima[1], label_absent, *sums, gt, next_u
    )


def _absent_side(stats: _GroupStats, gamma: float) -> np.ndarray:
    """Whether each sample is predicted absent once ``gamma`` is added to
    every absent logit, under the tie rule of ``SeenUnseenCurve``.

    The comparison is made on the same rounded flip values the curve sorts,
    not on max_u + gamma: the two roundings can disagree by an ulp, and
    only this one makes every reported curve point realisable.
    """
    flip = stats.max_s - stats.max_u
    return (flip < gamma) | ((flip == gamma) & (stats.arg_u < stats.arg_s))


def _predict(stats: _GroupStats, gamma: float) -> np.ndarray:
    """Predicted labels once ``gamma`` is added to every absent logit: each
    group's argmax, on the side ``_absent_side`` picks."""
    return np.where(_absent_side(stats, gamma), stats.arg_u, stats.arg_s)


def _hits(stats: _GroupStats, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(arg_s == labels, arg_u == labels); as arg_s is seen and arg_u absent, one at most holds."""
    return stats.arg_s == labels, stats.arg_u == labels


def _space_hits(stats: _GroupStats, labels: np.ndarray, gamma: float) -> dict:
    """``_hit_rates``' masks of S, U and Y, the last with ``gamma`` added to every absent logit."""
    hit_s, hit_u = _hits(stats, labels)
    absent_side = _absent_side(stats, gamma)
    return {"S": hit_s, "U": hit_u, "Y": (hit_s & ~absent_side) | (hit_u & absent_side)}


def _labeled(label_absent: np.ndarray, group: str) -> np.ndarray:
    """Mask of the samples labeled in group ``group``, "S", "U" or "Y", by
    ``label_absent``; raise ``EmptyGroupError`` if there are none."""
    mask = label_absent if group == "U" else ~label_absent if group == "S" else np.ones_like(label_absent)
    if not mask.any():
        raise EmptyGroupError(f"no samples labeled in group {group}")
    return mask


def _group_sizes(label_absent: np.ndarray) -> tuple[int, int]:
    """(seen-labeled, absent-labeled) sample counts; both must be nonzero."""
    return tuple(int(np.count_nonzero(_labeled(label_absent, group))) for group in "SU")


def _hit_rates(label_absent: np.ndarray, hits: dict, groups: str = "SUY") -> dict:
    """{"acc_a_b": Acc_{A/B}} for each space B of ``hits``, which marks the samples
    predicted right over B, and each group A of ``groups``: a hit count divided once
    by the group's size, its mean bit for bit. ``_labeled`` refuses an empty group."""
    masks = {a: _labeled(label_absent, a) for a in groups}
    return {
        f"acc_{a}_{b}".lower(): int(np.count_nonzero(hit & mask)) / int(np.count_nonzero(mask))
        for b, hit in hits.items() for a, mask in masks.items()
    }


def _acc_report(label_absent: np.ndarray, hits: dict) -> AccReport:
    """The ``AccReport`` of the ``_hit_rates`` of the S, U and Y ``hits``."""
    rates = _hit_rates(label_absent, hits)
    return AccReport(*(rates[pair] for pair in AccReport._PAIRS), *_group_sizes(label_absent))


def accuracy(logits: LabeledLogits, partition: LabelPartition, group_a: str, group_b: str) -> float:
    """Acc_{A/B}: fraction of A-labeled samples whose argmax restricted to
    group B equals their label."""
    stats = _group_stats(logits, partition)
    a, b = (_choice(group, _GROUPS, "group selector") for group in (group_a, group_b))
    hits = {b: _space_hits(stats, logits.labels, 0.0)[b]}  # Y: acc_report's rule at gamma 0, the plain argmax
    return _hit_rates(stats.label_absent, hits, a)[f"acc_{a}_{b}".lower()]


def acc_report(logits: LabeledLogits, partition: LabelPartition, gamma: float = 0.0) -> AccReport:
    """All five Acc_{A/B} values, optionally after adding ``gamma`` to every
    absent-class logit, under the tie rule of ``SeenUnseenCurve``. Requires
    samples from both groups.
    """
    gamma = check_gamma(gamma)
    stats = _group_stats(logits, partition)
    return _acc_report(stats.label_absent, _space_hits(stats, logits.labels, gamma))


def decompose(logit_row, partition: LabelPartition):
    """Split one row's softmax into the absent-mass and within-group parts.

    Returns ``(p_absent, within_seen, within_absent)`` where ``p_absent`` is
    the total softmax probability of the absent group and the within-group
    vectors are the renormalized softmax over each group (ordered by
    ascending class index). For any class c the full softmax factorizes as
    p_absent * within_absent[c] (c absent) or
    (1 - p_absent) * within_seen[c] (c seen).

    ``p_absent`` is ``_absent_mass`` of the row, as in
    ``absent_binary_prob``, so the two agree bit for bit. Each within-group
    vector is shifted by its group's own max, so none overflows or
    underflows to 0 / 0.
    """
    row = _frozen_array(logit_row, np.float64, "logit row", ndim=1, flatten=True)
    check_num_classes("logit row has", row.shape[0], partition)
    groups = (partition.group_indices("S"), partition.group_indices("U"))
    p_absent = float(_absent_mass(row[None], row.max(keepdims=True), groups)[0])
    within = [np.exp(row[None, cols] - row[cols].max()) for cols in groups]
    return p_absent, *(w[0] / _row_sums(w)[0] for w in within)


def seen_unseen_curve(logits: LabeledLogits, partition: LabelPartition) -> SeenUnseenCurve:
    """Exact accuracy staircase over every calibration factor.

    For each sample the predicted group flips exactly once, at
    gamma = (max seen logit) - (max absent logit); within-group correctness
    does not depend on gamma. Sorting the per-sample flip values therefore
    yields the full curve without any grid, once per container and partition.
    """
    stats = _group_stats(logits, partition)
    memo = logits._stats_memo
    if memo[1] is stats and memo[2] is not None:
        return memo[2]
    num_seen, num_absent = _group_sizes(stats.label_absent)
    flip = stats.max_s - stats.max_u
    correct_seen, correct_absent = _hits(stats, logits.labels)

    # j is the interval index of each sample's flip, read off the sort that
    # finds the thresholds: every flip is a threshold. The sample is predicted
    # seen on intervals 0..j and absent on intervals j+1..k. Adding 0.0 turns
    # -0.0 into +0.0, so a zero threshold is +0.0 however the rows are sorted.
    thresholds, j = np.unique(flip + 0.0, return_inverse=True)
    k = thresholds.size
    hist_seen = np.bincount(j[correct_seen], minlength=k)
    hist_absent = np.bincount(j[correct_absent], minlength=k)
    hits = np.zeros((k + 1, 2), dtype=np.int64)
    seen_counts, absent_counts = hits[:, 0], hits[:, 1]
    np.cumsum(hist_seen[::-1], out=seen_counts[-2::-1])
    np.cumsum(hist_absent, out=absent_counts[1:])
    # No float lies strictly between ulp-adjacent thresholds, so such an
    # interval's point is the one realised at its upper threshold, where
    # the samples flipping there follow the tie rule.
    upper = np.flatnonzero(np.nextafter(thresholds[:-1], np.inf) == thresholds[1:]) + 1
    if upper.size:
        tied_absent = stats.arg_u < stats.arg_s
        seen_counts[upper] -= np.bincount(j[correct_seen & tied_absent], minlength=k)[upper]
        absent_counts[upper] += np.bincount(j[correct_absent & tied_absent], minlength=k)[upper]
    points = np.stack([seen_counts / num_seen, absent_counts / num_absent], axis=1)
    curve = SeenUnseenCurve(
        thresholds=thresholds,
        points=points,
        hits=hits,
        within_group_acc=(float(points[0, 0]), float(points[-1, 1])),  # all seen, then all absent
        num_seen=num_seen,
        num_absent=num_absent,
    )
    object.__setattr__(logits, "_stats_memo", (partition, stats, curve))
    return curve


def ausuc(curve: SeenUnseenCurve) -> float:
    """Area under the staircase of achievable accuracy pairs.

    The area of the region dominated by at least one achievable point
    (union of rectangles), summed over the sorted staircase in hit counts:
    the integer sum of U_k * (S_k - S_{k+1}) divided once by
    num_seen * num_absent, so the result is correctly rounded.
    """
    seen, absent = curve.hits[:, 0], curve.hits[:, 1]
    area = int(np.sum(absent * (seen - np.append(seen[1:], 0))))
    return area / (curve.num_seen * curve.num_absent)
