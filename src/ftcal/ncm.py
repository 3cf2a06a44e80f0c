"""Nearest Class Mean classification over L2-normalized features.

NCM depends only on the feature geometry, never on the linear head, which
makes it a clean probe of feature quality. Means are computed from
normalized features and deliberately not re-normalized. ``ncm_predict``,
the first argmax of ``ncm_logits`` bit for bit at any BLAS thread count,
scores directly only the classes a BLAS product cannot rule out; ``ftcal
ncm`` prints the reports of ``ncm_logits`` from its passes, with no N x K matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (
    LabeledFeatures,
    LabeledLogits,
    _class_set,
    _frozen_array,
    _Frozen,
    _ncm_nearest,
    _ncm_scores,
    _refuse_zero_rows,
    check_dim,
    unit_rows,
)
from .errors import MissingClassError, ValidationError


@dataclass(frozen=True, eq=False)
class ClassMeans(_Frozen):
    """Arithmetic means of unit-normalized feature rows, one per class."""

    means: np.ndarray
    class_ids: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        means = _frozen_array(self.means, np.float64, "means", ndim=2)
        given = list(self.class_ids) if np.iterable(self.class_ids) else self.class_ids
        class_ids = _class_set(given, "class_ids", repeats="reject")
        counts = _frozen_array(self.counts, np.int64, "counts", ndim=1)
        if class_ids.size == 0:
            raise ValidationError("at least one class is required")
        if not (means.shape[0] == class_ids.shape[0] == counts.shape[0]):
            raise ValidationError("means, class_ids and counts must agree in length")
        if not np.array_equal(class_ids, given):
            raise ValidationError("class_ids must be strictly increasing")
        class_ids.flags.writeable = False
        if counts.min() < 1:
            raise ValidationError("every class needs at least one sample")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "class_ids", class_ids)
        object.__setattr__(self, "counts", counts)


def class_means(features: LabeledFeatures, classes) -> ClassMeans:
    """Mean of the unit-normalized feature rows of each requested class."""
    ids = _class_set(classes, "classes", repeats="merge")
    _refuse_zero_rows(features.values, "feature")
    means, counts = [], []
    for c in ids.tolist():
        rows = np.flatnonzero(features.labels == c)
        if rows.size == 0:
            raise MissingClassError(f"class {c} has no samples")
        means.append(unit_rows(features.values[rows], "feature").mean(axis=0))
        counts.append(int(rows.size))
    return ClassMeans(
        means=np.vstack(means),
        class_ids=ids,
        counts=np.array(counts, dtype=np.int64),
    )


def ncm_predict(features: LabeledFeatures, means: ClassMeans, restriction) -> np.ndarray:
    """Per-row nearest class mean in Euclidean distance, restricted to
    ``restriction``; ties resolve to the lowest class index.

    Each row block of features is unit-normalized as the pass reaches it,
    by ``unit_rows``' rule, so positively rescaling a row never changes its
    prediction.
    """
    wanted = _class_set(restriction, "restriction", repeats="merge")
    missing = wanted[~np.isin(wanted, means.class_ids)]
    if missing.size:
        raise MissingClassError(f"no class mean available for class {missing[0]}")
    check_dim("features have", features.dim, "each class mean", means.means.shape[1])
    positions = np.searchsorted(means.class_ids, wanted)
    return wanted[_ncm_nearest(features.values, means.means[positions])]


def ncm_logits(features: LabeledFeatures, means: ClassMeans) -> LabeledLogits:
    """NCM scores as logits: column c holds -||u - m_c||^2 for the
    unit-normalized feature row u, labeled with the features' labels.

    The argmax over any column set is ``ncm_predict`` over those classes,
    so ``acc_report``, ``seen_unseen_curve`` and ``apply_gamma`` read the
    NCM probe under the same tie rule as a linear head. ``means`` must hold
    exactly the classes 0..K-1.
    """
    if not np.array_equal(means.class_ids, np.arange(means.class_ids.size)):
        raise ValidationError("ncm_logits needs the means of exactly the classes 0..K-1")
    check_dim("features have", features.dim, "each class mean", means.means.shape[1])
    scores = _ncm_scores(unit_rows(features.values, "feature"), means.means)
    return LabeledLogits(scores, features.labels)
