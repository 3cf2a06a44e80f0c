"""Label-space partition and the labeled matrix containers used everywhere.

Class indices are 0-based. All real values are float64. Every container is
immutable after construction (arrays are copied in C order and marked
read-only), so instances are safe to share across threads. The copy is
made in row blocks, each checked for non-finite entries as it is copied.
Every dataclass that holds arrays, here and elsewhere, compares and hashes
by identity. A pickle or copy of a container is rebuilt through its
constructor (``_Frozen``), so ``copy.copy`` copies and checks the arrays
instead of sharing them.

Because containers never change, ``metrics`` may memoise on them: its
``_group_stats`` keeps a ``LabeledLogits``' per-sample group statistics and
seen-unseen curve on the instance, and documents the memo's layout.

It also owns the row primitives every kernel shares, under one thread
rule. ``_row_blocks`` cuts rows into blocks of the ``_BLOCK_BYTES`` budget.
A pass without BLAS runs through ``_each_block``, on one thread per CPU of
the affinity mask (``_cpu_count``, as ``io`` counts them) from
``_THREAD_BLOCKS`` blocks on: the container copy and check here,
``_ncm_scores`` (NCM logits, the greedy split), the statistics kernel in
``metrics`` on a stored matrix and the absent probability in ``analysis``.
Each block writes only its own rows, computed as on one thread, so bits
and faults are the same at any CPU count. Memory is one block's
temporaries per thread; ``taskset -c 0`` keeps all of it on one CPU.

A pass that makes BLAS products (the cosine head's statistics, the NCM
shortlist of ``_ncm_nearest``) reads the chunks of a ``_UnitProduct`` on
the calling thread, one at a time, which leaves the threading to BLAS: its
memory is one chunk. Cosines were one product of the whole matrix before;
the chunks could move their last bit, once.

And ``_class_set`` is the one reader of every collection of class indices,
``_split_per_class`` the one per-class train/test split (the toy's and
PCV's).
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, _choice, _integer, _real
from .rng import derive_rng

_GROUPS = ("S", "U", "Y")

# Rows per block of the group-statistics kernel come from this byte budget
# over the column count, and rows per block of the NCM scores from it over
# the K x d difference slab of one row. A block and its two group copies
# then stay in the L2 cache: on 100k x 100 and 20k x 1000 logits, 512 KiB
# blocks ran 1.3-1.5x faster than 4 MiB blocks and 2-3x faster than one
# block.
_BLOCK_BYTES = 512 * 1024

# A computed product (``_UnitProduct``) makes one BLAS call per this many
# blocks. On 2 CPUs, 2,000 x 256 features against 1,000 unit rows took
# 12-13 ms as one call, 16-18 ms in 65-row calls of one block and 13-15 ms
# in 260-row calls of four (medians of 30).
_PRODUCT_BLOCKS = 4

# ``_each_block`` starts threads only on this many blocks or more. On 2 CPUs,
# threads on a 20-block feature copy and a 31-block cosine kernel made the
# NCM, cosine and CKA pass 3-7 % slower; from 32 on it was as fast as before.
_THREAD_BLOCKS = 32


def _row_blocks(num_rows: int, row_bytes: int) -> list[slice]:
    """Slices covering ``num_rows`` rows, each of about ``_BLOCK_BYTES``
    when one row takes ``row_bytes``. Rows of no bytes (no columns) all go
    in one block.
    """
    # two rows at least, so that an NCM slab outweighs numpy's fixed per-thread reduction buffers
    step = max(2, _BLOCK_BYTES // max(1, row_bytes))
    return [slice(start, min(start + step, num_rows)) for start in range(0, num_rows, step)]


def _cpu_count() -> int:
    """CPUs of this process's affinity mask, or 1 on a platform without one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _each_block(blocks: list[slice], work) -> None:
    """Call ``work(block)`` on every slice of ``blocks``.

    From ``_THREAD_BLOCKS`` blocks on, they go out in order, under a lock,
    to one thread per CPU, the caller among them; each helper runs in a
    copy of the caller's context, so its ``np.errstate`` holds in every
    block. Every thread is joined before the call returns; the
    lowest-numbered failing block's exception is raised (a thread finishes
    the block it holds, so every lower block has run).
    """
    workers = min(_cpu_count(), len(blocks)) if len(blocks) >= _THREAD_BLOCKS else 1
    pending = iter(enumerate(blocks))
    taking = threading.Lock()
    faults: dict[int, BaseException] = {}  # by block index; any entry stops every thread

    def take_blocks() -> None:
        while not faults:
            with taking:
                index, block = next(pending, (None, None))
            if block is None:
                return
            try:
                work(block)
            except BaseException as fault:  # raised in the calling thread below
                faults[index] = fault

    started = []
    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(take_blocks,))
            thread.start()
            started.append(thread)
        take_blocks()
    finally:
        for thread in started:
            thread.join()
    if faults:
        raise faults[min(faults)]


def _score_block(rows: np.ndarray, candidates: np.ndarray, slab: np.ndarray, scores: np.ndarray) -> None:
    """Write minus the squared distances of ``rows`` to ``candidates`` into
    ``scores``, squaring the differences in place in ``slab``, a C-ordered buffer
    of ``rows[:, None, :] - candidates``: K x d, or one per row (len(rows) x 1 x d)."""
    np.subtract(rows[:, None, :], candidates, out=slab)
    slab *= slab
    np.sum(slab, axis=2, out=scores)
    np.negative(scores, out=scores)


def _ncm_scores(rows: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Negative squared Euclidean distance of each row of ``rows`` to each
    row of ``candidates``, in ``_each_block`` row blocks of ``_BLOCK_BYTES``.

    Each entry is the direct sum of squared differences, not the
    |u|^2 - 2 u.m + |m|^2 expansion, whose cancellation can flip near-tie
    argmins. Each block squares its differences in a slab of its own,
    freed before the thread takes its next block, and each entry is the
    same sum over a contiguous slab row in any block.
    """
    scores = np.empty((rows.shape[0], candidates.shape[0]))

    def score(block: slice) -> None:
        slab = np.empty((block.stop - block.start, *candidates.shape))
        _score_block(rows[block], candidates, slab, scores[block])

    _each_block(_row_blocks(rows.shape[0], rows.itemsize * candidates.size), score)
    return scores


def _ncm_nearest(rows: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """The first argmax of each row of ``_ncm_scores(unit_rows(rows,
    "feature"), candidates)``, bit for bit, from the chunks of
    ``_UnitProduct(rows, candidates)``: no N x K matrix and no N x d unit
    rows. Per row block, the product block u.m becomes |m|^2 - 2 u.m, off
    |u - m|^2 - |u|^2 by E1; the direct sum is off by E2; both stay below
    (d + 8) eps (|u| + max |m|)^2 / 2 in any order or FMA. Only candidates
    within 2 (E1 + E2) of the row's least product can be the argmin:
    ``_score_block`` scores those pairs, gathered into one block budget,
    into a row of -inf. BLAS never decides; a NaN or inf bound keeps all."""
    dim = candidates.shape[1]
    squares = np.einsum("ij,ij->i", candidates, candidates)
    # 2 (E1 + E2) at 16 times the 1/2 above, and 1.01 for rounding here; + tiny covers underflow
    slack = 4 * 8 * 1.01 * (dim + 8) * np.finfo(np.float64).eps
    farthest = np.sqrt(squares.max())
    pairs = max(1, _BLOCK_BYTES // max(1, 2 * rows.itemsize * dim))
    nearest = np.empty(rows.shape[0], dtype=np.int64)
    # made once per call: a fresh gather per shortlist fragmented the heap (+2 MB peak RSS on ``features``)
    left, right, exact = np.empty((pairs, dim)), np.empty((pairs, 1, dim)), np.empty((pairs, 1))

    def pick(block: slice, near: np.ndarray, u: np.ndarray) -> None:
        near *= -2.0
        near += squares
        reach = (np.sqrt(np.einsum("ij,ij->i", u, u)) + farthest) ** 2 + np.finfo(np.float64).tiny
        at, of = np.nonzero(~(near > (near.min(axis=1) + slack * reach)[:, None]))
        near.fill(-np.inf)
        for start in range(0, at.size, pairs):
            i, j = at[start : start + pairs], of[start : start + pairs]
            np.take(u, i, axis=0, out=left[: i.size], mode="clip")  # "raise" would buffer ``out``
            np.take(candidates, j, axis=0, out=right[: i.size, 0], mode="clip")
            _score_block(left[: i.size], right[: i.size], right[: i.size], exact[: i.size])
            near[i, j] = exact[: i.size, 0]
        np.argmax(near, axis=1, out=nearest[block])

    _UnitProduct(rows, candidates).each_block(pick)
    return nearest


def _class_set(classes, what: str, bound: int = 2**63, *, repeats: str) -> np.ndarray:
    """The class indices in ``classes`` as an ascending int64 array; raise
    ``ValidationError`` naming ``what`` unless ``classes`` is iterable and
    each entry an integral index in [0, ``bound``), the class count where
    one applies. A repeated index is merged into one with an empty set
    refused (``repeats="merge"``) or refused (``"reject"``); any other size
    rule is the caller's."""
    entry = f"{what}: class index"
    try:
        indices = sorted(_integer(c, entry) for c in classes)
    except TypeError:  # not iterable
        raise ValidationError(f"{what} must be a collection of class indices, got {classes!r}") from None
    if indices and (indices[0] < 0 or indices[-1] >= bound):
        outside = indices[0] if indices[0] < 0 else indices[-1]
        raise ValidationError(f"{what}: class index {outside} is outside [0, {bound})")
    if repeats == "merge":
        indices = sorted(set(indices))
        if not indices:
            raise ValidationError(f"{what} must be nonempty")
    elif repeats == "reject" and len(set(indices)) != len(indices):
        raise ValidationError(f"{what} contains duplicate class indices")
    return np.array(indices, dtype=np.int64)


def _split_per_class(labels: np.ndarray, classes, rng=None) -> tuple[np.ndarray, np.ndarray]:
    """Ascending (train, test) row indices that split the rows of each class
    in ``classes`` 80/20: a class's first ceil(4 n_c / 5) rows train, in row
    order or, if ``rng`` is given, after one ``rng.permutation`` per class."""
    train_idx, test_idx = [], []
    for c in classes:
        idx = np.flatnonzero(labels == c)
        if rng is not None:
            idx = idx[rng.permutation(idx.size)]
        n_train = int(np.ceil(0.8 * idx.size))
        train_idx.append(idx[:n_train])
        test_idx.append(idx[n_train:])
    return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(test_idx))


def _real_array(values, name: str) -> np.ndarray:
    """``values`` as an integer or float array, not copied if it is one;
    anything else (bools, as the scalar readers refuse ``True``, complex
    numbers, strings, ``None``, ragged lists) is a ``ValidationError``."""
    try:
        source = values if isinstance(values, np.ndarray) else np.asarray(values)
    except ValueError:  # ragged nesting
        source = None
    if source is None or source.dtype.kind not in "iuf":
        raise ValidationError(f"{name} must be an array of real numbers")
    return source


def _frozen_array(values, dtype, name: str, ndim: int, flatten: bool = False) -> np.ndarray:
    """Read-only C-ordered copy of ``_real_array(values)`` as ``dtype``,
    flattened to one dimension first if ``flatten``; raise unless it has
    ``ndim`` dimensions and, for a float dtype, only finite entries or, for
    an integer dtype, only integral ones (``int()`` would truncate 0.7 to 0).

    It is copied in ``_each_block`` row blocks, each checked while it is
    still in cache, so no full-size boolean temporary is made.
    """
    source = _real_array(values, name)
    if flatten:
        source = source.reshape(-1)
    if source.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {source.shape}")
    arr = np.empty(source.shape, dtype)  # so that a row reduction sums one way for any input
    check_finite = arr.dtype.kind == "f"
    check_integral = arr.dtype.kind in "iu" and source.dtype.kind == "f"

    def copy_block(rows: slice) -> None:
        block, chunk = arr[rows], source[rows]
        if check_integral:
            with np.errstate(invalid="ignore"):  # a nan, inf or overflowing cast fails the check
                block[...] = chunk
            if not (block == chunk).all():
                value = chunk[block != chunk][0].item()
                raise ValidationError(f"{name} entry {value!r} is not an integer")
        else:
            block[...] = chunk
            if check_finite and not np.isfinite(block).all():
                raise ValidationError(f"{name} contains non-finite entries")

    _each_block(_row_blocks(arr.shape[0], arr.itemsize * math.prod(arr.shape[1:])), copy_block)
    arr.flags.writeable = False
    return arr


class _Frozen:
    """Base of the containers that freeze arrays: a pickle or copy calls the
    constructor on the fields, so it is checked and frozen anew, with no memo."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, field.name) for field in fields(self))


@dataclass(frozen=True)
class LabelPartition:
    """Total label space {0..num_classes-1} split into fine-tuning classes
    (the "seen" group S) and the complementary absent classes (group U).

    The fine-tuning set must be a nonempty strict subset, so both groups are
    always nonempty.
    """

    num_classes: int
    fine_tuning: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "num_classes", _integer(self.num_classes, "num_classes", 2))
        indices = _class_set(self.fine_tuning, "fine_tuning", self.num_classes, repeats="reject")
        if not 0 < len(indices) < self.num_classes:
            raise ValidationError(
                "fine_tuning must be a nonempty strict subset of the label space "
                f"(got {len(indices)} of {self.num_classes} classes)"
            )
        object.__setattr__(self, "fine_tuning", tuple(indices.tolist()))

    @property
    def absent(self) -> tuple[int, ...]:
        seen = set(self.fine_tuning)
        return tuple(c for c in range(self.num_classes) if c not in seen)

    def group_indices(self, selector: str) -> np.ndarray:
        """Class indices of group ``selector`` in {"S", "U", "Y"}, ascending."""
        selector = _choice(selector, _GROUPS, "group selector")
        if selector == "S":
            return np.array(self.fine_tuning, dtype=np.int64)
        if selector == "U":
            return np.array(self.absent, dtype=np.int64)
        return np.arange(self.num_classes, dtype=np.int64)

    def absent_column_mask(self) -> np.ndarray:
        """Float64 vector with 1.0 at absent-class columns, 0.0 elsewhere."""
        mask = np.zeros(self.num_classes, dtype=np.float64)
        mask[list(self.absent)] = 1.0
        return mask


@dataclass(frozen=True, eq=False)
class _Labeled(_Frozen):
    """``values`` (N x ?, N >= 1, named ``_name``) and N nonnegative integer
    ``labels``, column indices of ``values`` if ``_labels_are_columns``, held
    as validated read-only copies. Equality is identity and instances hash by
    identity, as the statistics memo assumes: two containers holding equal
    arrays are not equal."""

    values: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        values = _frozen_array(self.values, np.float64, self._name, ndim=2)
        labels = _frozen_array(self.labels, np.int64, "labels", ndim=1)
        if values.shape[0] < 1:
            raise ValidationError(f"{self._name} must contain at least one sample")
        if values.shape[0] != labels.shape[0]:
            raise ValidationError(
                f"row count {values.shape[0]} does not match label count {labels.shape[0]}"
            )
        _check_labels(labels, values.shape[1] if self._labels_are_columns else None)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)

    @property
    def num_samples(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class LabeledLogits(_Labeled):
    """N x C matrix of decision values plus N ground-truth labels."""

    _name = "logits"
    _labels_are_columns = True

    @property
    def num_classes(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class LabeledFeatures(_Labeled):
    """N x d feature matrix plus N labels."""

    _name = "features"
    _labels_are_columns = False

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class LinearHead(_Frozen):
    """Bias-free linear classifier: row c holds the weight vector of class c."""

    weights: np.ndarray

    def __post_init__(self):
        weights = _frozen_array(self.weights, np.float64, "weights", ndim=2)
        if weights.shape[0] < 2:
            raise ValidationError("a linear head needs at least 2 classes")
        if weights.shape[1] < 1:
            raise ValidationError("a linear head needs at least 1 feature dimension")
        object.__setattr__(self, "weights", weights)

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


def check_num_classes(subject: str, num_classes: int, partition: LabelPartition) -> None:
    """Raise unless ``num_classes`` matches the partition; ``subject`` opens
    the message, e.g. "head has"."""
    if num_classes != partition.num_classes:
        raise ValidationError(
            f"{subject} {num_classes} classes but the partition has {partition.num_classes}"
        )


def _check_labels(labels: np.ndarray, num_columns: int | None) -> None:
    """Raise unless every label is nonnegative and, unless ``num_columns`` is None, below it."""
    lowest = labels.min()
    if num_columns is not None and (lowest < 0 or labels.max() >= num_columns):
        raise ValidationError(f"labels must lie in [0, {num_columns})")
    if lowest < 0:
        raise ValidationError("labels must be nonnegative")


def check_dim(subject: str, dim: int, owner: str, expected: int) -> None:
    """Raise unless ``dim`` is the width ``owner`` expects; ``subject`` opens
    the message, e.g. "features have"."""
    if dim != expected:
        raise ValidationError(f"{subject} dim {dim}, {owner} expects {expected}")


def _refuse_zero_rows(matrix: np.ndarray, what: str, first: int = 0) -> None:
    """Raise, naming the first zero row of ``matrix`` by its index ``first +
    i`` in the ``what`` matrix, if ``matrix`` has one. The rows are read in
    ``_each_block`` row blocks, so no temporary outgrows a block."""

    def refuse(rows: slice) -> None:
        zero = np.flatnonzero(~matrix[rows].any(axis=1))
        if zero.size:
            raise ValidationError(f"{what} row {first + rows.start + int(zero[0])} has zero norm")

    _each_block(_row_blocks(matrix.shape[0], matrix.itemsize * matrix.shape[1]), refuse)


def unit_rows(matrix: np.ndarray, what: str, first: int = 0) -> np.ndarray:
    """A new ``matrix`` with every row scaled to unit L2 norm; raise, naming
    the first offending ``what`` row, if a row has zero norm. A block of a
    larger matrix passes the index of its first row there as ``first``, so
    that the error names the row as that matrix counts it.

    A row is divided by its ``np.linalg.norm``, the same bits in any block.
    Where that norm is 0, inf or outside [2^-500, 2^500], a square may have
    overflowed or underflowed; such a row is first scaled by the power of two
    that brings its largest entry into [0.5, 1). That scaling is exact, so a
    row times 2^k, k in [-1000, 1000], has the same unit bits as the row.
    """
    with np.errstate(over="ignore", under="ignore"):  # the rows they touch are redone below
        norms = np.linalg.norm(matrix, axis=1)
    redo = np.flatnonzero(~((norms >= 2.0**-500) & (norms <= 2.0**500)))
    if redo.size:
        _refuse_zero_rows(matrix, what, first)
        _, exponents = np.frexp(np.abs(matrix[redo]).max(axis=1))
        scaled = np.ldexp(matrix[redo], -exponents[:, None])
        norms[redo] = 1.0
    unit = matrix / norms[:, None]
    if redo.size:
        unit[redo] = scaled / np.linalg.norm(scaled, axis=1)[:, None]
    return unit


class _UnitProduct(NamedTuple):
    """The N x C matrix ``unit_rows(rows) @ columns.T``, defined by its
    chunks and never held whole.

    A chunk is ``_PRODUCT_BLOCKS`` consecutive ``_row_blocks`` of rows of
    ``itemsize * max(C, d)`` bytes, counted from row 0, so that a chunk's
    unit rows stay inside the block budget as well as its product. Which
    rows share a BLAS call depends on C, d and ``_BLOCK_BYTES`` (and N only
    where the last chunk ends): the rows of a whole chunk have the same bits
    at any N, and no row's bits depend on the CPU count. ``rows`` is a
    container's C-ordered array, so the norms see one layout. The chunks are
    computed one at a time on the calling thread, which leaves the threading
    to BLAS.
    """

    rows: np.ndarray  # features: errors name a zero row "feature row i"
    columns: np.ndarray  # C x d: unit weight rows for cosines, class means for NCM

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows.shape[0], self.columns.shape[0]

    def each_block(self, work) -> None:
        """Call ``work(rows, block, unit)`` for each of the product's
        ``_row_blocks``, ``block`` holding those rows of the product, which
        ``work`` may overwrite, and ``unit`` their unit rows, one chunk's
        blocks after another; one chunk is held at a time."""
        row_bytes = self.columns.itemsize * max(self.columns.shape[0], self.rows.shape[1])
        blocks = _row_blocks(self.rows.shape[0], row_bytes)
        for start in range(0, len(blocks), _PRODUCT_BLOCKS):
            chunk = blocks[start : start + _PRODUCT_BLOCKS]
            first = chunk[0].start
            unit = unit_rows(self.rows[first : chunk[-1].stop], "feature", first)
            product = unit @ self.columns.T
            for rows in chunk:
                local = slice(rows.start - first, rows.stop - first)
                work(rows, product[local], unit[local])
            del unit, product  # before the next chunk is computed


def check_gamma(gamma) -> float:
    """The calibration factor ``gamma`` as a float; raise unless it is finite."""
    return _real(gamma, "gamma")


def make_random_split(num_classes: int, k: int, seed: int) -> LabelPartition:
    """Uniformly random k-subset of classes as the fine-tuning set.

    Deterministic given ``seed``: the subset is the first k entries of a
    Philox-generated permutation of the label space.
    """
    num_classes = _integer(num_classes, "num_classes", 2)
    k = _integer(k, "k", 1, num_classes)
    return LabelPartition(num_classes, derive_rng(seed).permutation(num_classes)[:k])


def make_greedy_similar_split(class_means, k: int) -> LabelPartition:
    """Greedily pick k classes that cluster tightly in feature space.

    The fine-tuning set starts from the pair of classes with the smallest
    Euclidean distance between their means and grows one class at a time,
    always adding the class that minimizes the resulting total intra-group
    pairwise distance. Ties resolve to the smallest class index; k = 1
    degenerates to class 0 (every singleton has zero intra-group distance).
    """
    means = _frozen_array(class_means, np.float64, "class_means", ndim=2)
    num_classes = means.shape[0]
    if num_classes < 2:
        raise ValidationError("class_means must contain at least 2 classes")
    k = _integer(k, "k", 1, num_classes)
    if k == 1:
        return LabelPartition(num_classes, (0,))

    dist = np.sqrt(-_ncm_scores(means, means))
    rows, cols = np.triu_indices(num_classes, k=1)
    best = int(np.argmin(dist[rows, cols]))  # first minimum = lexicographically smallest pair
    members = [int(rows[best]), int(cols[best])]
    while len(members) < k:
        candidates = np.array([c for c in range(num_classes) if c not in members])
        added_cost = dist[np.ix_(candidates, members)].sum(axis=1)
        members.append(int(candidates[int(np.argmin(added_cost))]))
    return LabelPartition(num_classes, tuple(sorted(members)))


def total_intra_group_distance(class_means, subset) -> float:
    """Sum of pairwise Euclidean distances between the means of ``subset``:
    the upper triangle, over the subset's classes in ascending order, of
    the distance matrix ``make_greedy_similar_split`` minimises over."""
    means = _frozen_array(class_means, np.float64, "class_means", ndim=2)
    idx = _class_set(subset, "subset", means.shape[0], repeats="reject")
    dist = np.sqrt(-_ncm_scores(means[idx], means[idx]))
    return float(dist[np.triu_indices(idx.size, k=1)].sum())
