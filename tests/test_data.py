import ast
import dataclasses
import inspect
import itertools
import math
import os
import re
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ftcal import (
    ClassMeans,
    FtcalError,
    GammaEstimate,
    LabeledFeatures,
    LabeledLogits,
    LabelPartition,
    LinearHead,
    MlpModel,
    SimilarityReport,
    ToyReport,
    ToySpec,
    TrainConfig,
    ValidationError,
    absent_binary_prob,
    absent_feature_shift,
    acc_report,
    accuracy,
    class_means,
    decompose,
    delta_w_similarity,
    derive_rng,
    derive_seed,
    estimate_gamma_pcv,
    fine_tune,
    forward,
    forward_batch,
    gradient_check,
    linear_cka,
    loss_and_grads,
    make_greedy_similar_split,
    make_random_split,
    ncm_logits,
    ncm_predict,
    predict_cosine,
    predict_restricted,
    seen_unseen_curve,
    total_intra_group_distance,
    weight_norms,
)
from ftcal import data, errors, metrics
from ftcal.calibration import METHODS
from ftcal.data import _ncm_scores, check_gamma
from ftcal.metrics import _group_stats
from ftcal.rng import check_seed
from ftcal.trainer import ACTIVATIONS, MODES


def _distances(means):
    return np.sqrt(-_ncm_scores(means, means))


def _cpus(monkeypatch, count):
    """Make the process's affinity mask, as ``data`` and ``io`` read it,
    ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class TestLabelPartition:
    def test_complement(self):
        p = LabelPartition(5, (1, 3))
        assert p.absent == (0, 2, 4)
        assert sorted(p.fine_tuning + p.absent) == list(range(5))

    def test_sorts_and_dedup_rejects(self):
        assert LabelPartition(4, (2, 0)).fine_tuning == (0, 2)
        with pytest.raises(ValidationError):
            LabelPartition(4, (0, 0, 1))

    def test_non_integral_class_index_rejected(self):
        with pytest.raises(ValidationError, match="class index 1.5 is not an integer"):
            LabelPartition(4, (1.5, 2.9))
        for bad in (np.nan, np.inf, "1", None):
            with pytest.raises(ValidationError, match=f"class index {bad!r} is not an integer"):
                LabelPartition(4, (0, bad))
        for two in (2, np.int64(2)):
            assert LabelPartition(4, (0, two)).fine_tuning == (0, 2)
        assert LabelPartition(4, range(1, 3)).fine_tuning == (1, 2)

    @pytest.mark.parametrize("bad", [(), (0, 1, 2, 3), (4,), (-1,)])
    def test_invalid_subsets(self, bad):
        with pytest.raises(ValidationError):
            LabelPartition(4, bad)

    def test_partition_covers_label_space_exhaustively(self):
        for seed in range(50):
            c = int(np.random.default_rng(seed).integers(2, 12))
            k = int(np.random.default_rng(seed + 1).integers(1, c))
            p = make_random_split(c, k, seed)
            seen, absent = set(p.fine_tuning), set(p.absent)
            assert seen | absent == set(range(c))
            assert seen & absent == set()


class TestContainers:
    def test_logits_validation(self):
        with pytest.raises(ValidationError):
            LabeledLogits([[1.0, np.nan]], [0])
        with pytest.raises(ValidationError):
            LabeledLogits([[1.0, 2.0]], [2])  # label out of range
        with pytest.raises(ValidationError):
            LabeledLogits([[1.0, 2.0], [0.0, 1.0]], [0])  # count mismatch

    def test_arrays_are_read_only(self):
        logits = LabeledLogits([[1.0, 2.0]], [0])
        with pytest.raises(ValueError):
            logits.values[0, 0] = 5.0

    def test_features_and_head(self):
        feats = LabeledFeatures([[1.0, 2.0, 3.0]], [7])
        assert feats.dim == 3
        with pytest.raises(ValidationError):
            LinearHead([[1.0, 2.0]])  # single class
        with pytest.raises(ValidationError):
            LinearHead([[np.inf, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("container", [LabeledLogits, LabeledFeatures])
    def test_equality_is_identity_and_containers_hash(self, container):
        a = container([[1.0, 2.0], [3.0, 4.0]], [0, 1])
        b = container([[1.0, 2.0], [3.0, 4.0]], [0, 1])
        assert a == a and a != b and not (a == b)
        assert hash(a) == hash(a) and hash(a) != hash(b)
        table = {a: "a", b: "b"}
        assert table[a] == "a" and table[b] == "b"

    @pytest.mark.parametrize(
        "make",
        [
            lambda: LinearHead(np.eye(3, 2)),
            lambda: MlpModel(np.eye(2), LinearHead(np.eye(3, 2))),
            lambda: ClassMeans(np.eye(2), [0, 1], [1, 1]),
            lambda: seen_unseen_curve(
                LabeledLogits([[1.0, 0.0], [0.0, 1.0]], [0, 1]), LabelPartition(2, (0,))
            ),
            lambda: SimilarityReport(np.eye(2), 0.0, (0, 1)),
            lambda: ToyReport(*[np.zeros(2)] * len(dataclasses.fields(ToyReport))),
        ],
        ids=["LinearHead", "MlpModel", "ClassMeans", "SeenUnseenCurve", "SimilarityReport", "ToyReport"],
    )
    def test_every_array_dataclass_compares_by_identity(self, make):
        a, b = make(), make()
        assert a == a and a != b and not (a == b)
        assert hash(a) == hash(a) and hash(a) != hash(b)
        table = {a: "a", b: "b"}
        assert table[a] == "a" and table[b] == "b"

    def test_c_fortran_and_strided_inputs_give_the_same_bits(self):
        # the containers hold C-ordered copies, so every row reduction sums the same way
        rng = np.random.default_rng(31)
        values, labels = rng.normal(size=(2000, 256)), np.arange(2000) % 100
        weights = rng.normal(size=(300, 64)), rng.normal(size=(300, 64))

        def results(layout):
            features = LabeledFeatures(layout(values), labels)
            means = class_means(features, range(100))
            return (
                means.means.tobytes(),
                ncm_logits(features, means).values.tobytes(),
                ncm_predict(features, means, range(100)).tobytes(),
                np.float64(linear_cka(*map(layout, weights))).tobytes(),
            )

        expected = results(np.ascontiguousarray)
        assert results(np.asfortranarray) == expected
        assert results(lambda a: np.repeat(a, 2, axis=1)[:, ::2]) == expected
        assert results(lambda a: np.asfortranarray(np.repeat(a, 2, axis=1))[:, ::2]) == expected

    def test_hashable_logits_keep_their_statistics_memo(self):
        logits = LabeledLogits([[1.0, 2.0], [3.0, 4.0]], [0, 1])
        partition = LabelPartition(2, (0,))
        stats = _group_stats(logits, partition)
        assert {logits: 1}[logits] == 1
        assert _group_stats(logits, partition) is stats


_NAN = float("nan")
_MODEL = MlpModel(np.eye(2), LinearHead(np.eye(3, 2)))


class TestOneValidator:
    """Every array input goes through the same checks and names itself."""

    @pytest.mark.parametrize(
        "name, build",
        [
            ("logits", lambda: LabeledLogits([[1.0, _NAN]], [0])),
            ("features", lambda: LabeledFeatures([[_NAN]], [0])),
            ("weights", lambda: LinearHead([[1.0], [_NAN]])),
            ("hidden_map", lambda: MlpModel([[_NAN, 0.0]], LinearHead([[1.0], [2.0]]))),
            ("means", lambda: ClassMeans([[_NAN]], [0], [1])),
            ("weights_b", lambda: linear_cka(np.eye(2), [[1.0, 0.0], [_NAN, 1.0]])),
            ("class_means", lambda: make_greedy_similar_split([[0.0], [_NAN]], 1)),
            ("logit row", lambda: decompose([0.0, _NAN], LabelPartition(2, (0,)))),
            ("input", lambda: forward(_MODEL, [_NAN, 0.0])),
            (
                "absent_input",
                lambda: absent_feature_shift(_MODEL, ([1.0, 0.0], 0), [_NAN, 0.0], 0.1),
            ),
        ],
    )
    def test_non_finite_input_is_named(self, name, build):
        with pytest.raises(ValidationError, match=f"^{name} contains non-finite entries$"):
            build()

    @pytest.mark.parametrize("bad", [_NAN, np.inf, -np.inf])
    @pytest.mark.parametrize("rows, at", [(6, 0), (6, 5), (7, 6), (1, 0)])
    @pytest.mark.parametrize("ndim", [1, 2])
    def test_non_finite_entry_in_any_block(self, bad, rows, at, ndim, monkeypatch):
        # two rows a block, so a seventh row, like a one-row input, is a
        # block of its own
        monkeypatch.setattr(data, "_BLOCK_BYTES", 1)
        values = np.ones((rows, 3)[:ndim])
        values.reshape(rows, -1)[at, -1] = bad
        with pytest.raises(ValidationError, match="^logits contains non-finite entries$"):
            data._frozen_array(values, np.float64, "logits", ndim)

    def test_dimension_is_checked_before_finiteness(self):
        for values, ndim in (([1.0, _NAN], 2), ([[_NAN]], 1)):
            with pytest.raises(ValidationError, match="^logits must be %d-dimensional" % ndim):
                data._frozen_array(values, np.float64, "logits", ndim)

    @pytest.mark.parametrize(
        "name, build",
        [
            ("logits", lambda: LabeledLogits([[1.0 + 2.0j, 0.0]], [0])),
            ("logits", lambda: LabeledLogits([["1", "2"]], [0])),
            ("logits", lambda: LabeledLogits([["a"]], [0])),
            ("logits", lambda: LabeledLogits([[1.0, 2.0], [3.0]], [0, 1])),
            ("features", lambda: LabeledFeatures(np.array([["1"]]), [0])),
            ("weights", lambda: LinearHead(np.array([[1j], [2.0]]))),
            ("labels", lambda: LabeledLogits([[1.0, 2.0]], None)),
            ("labels", lambda: LabeledFeatures([[1.0]], [2**64])),
            ("labels", lambda: LabeledFeatures([[1.0], [2.0]], [0, None])),
            ("logit row", lambda: decompose([[1.0, 2.0], [3.0]], LabelPartition(2, (0,)))),
            ("input", lambda: forward(_MODEL, [[1.0], [2.0, 3.0]])),
            ("input", lambda: loss_and_grads(_MODEL, [[1.0], [2.0, 3.0]], 0)),
            (
                "absent_input",
                lambda: absent_feature_shift(_MODEL, ([1.0, 0.0], 0), [[1.0], [2.0, 3.0]], 0.1),
            ),
        ],
        ids=["complex", "numeric-text", "text", "ragged", "text-array", "complex-array",
             "none", "beyond-uint64", "none-entry", "ragged-row-decompose",
             "ragged-row-forward", "ragged-row-loss-and-grads", "ragged-row-feature-shift"],
    )
    def test_non_real_input_is_named(self, name, build):
        with pytest.raises(ValidationError, match=f"^{name} must be an array of real numbers$"):
            build()

    @pytest.mark.parametrize(
        "name, build",
        [
            ("labels", lambda: LabeledLogits(np.eye(2), [True, False])),
            ("logits", lambda: LabeledLogits(np.eye(2, dtype=bool), [1, 0])),
            ("features", lambda: LabeledFeatures([[True], [False]], [0, 1])),
            ("weights", lambda: LinearHead(np.eye(2, dtype=bool))),
            ("counts", lambda: ClassMeans([[1.0]], [0], np.array([True]))),
        ],
    )
    def test_bool_arrays_are_not_real_numbers(self, name, build):
        # as the scalar readers refuse True rather than read it as 1
        with pytest.raises(ValidationError, match=f"^{name} must be an array of real numbers$"):
            build()

    def test_no_full_size_boolean_temporary(self):
        values = np.random.default_rng(4).normal(size=(20_000, 100))
        tracemalloc.start()
        try:
            LabeledLogits(values, np.arange(20_000) % 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the copy itself, the labels' copy and one block's check
        assert peak < values.nbytes + 2 * data._BLOCK_BYTES, f"peak {peak} B"

    @pytest.mark.parametrize(
        "subject, check",
        [
            ("logits have 3", lambda p: acc_report(LabeledLogits(np.eye(3), [0, 1, 2]), p)),
            ("logit row has 3", lambda p: decompose([0.0, 1.0, 2.0], p)),
            ("head has 3", lambda p: weight_norms(LinearHead(np.eye(3, 2)), p)),
            (
                "head has 3",
                lambda p: predict_cosine(
                    LabeledFeatures(np.eye(2), [0, 1]), LinearHead(np.eye(3, 2)), p, 0.0
                ),
            ),
        ],
    )
    def test_class_count_mismatch_has_one_message(self, subject, check):
        with pytest.raises(ValidationError, match=f"^{subject} classes but the partition has 4$"):
            check(LabelPartition(4, (0, 1)))

    def test_label_bounds(self):
        with pytest.raises(ValidationError, match=r"labels must lie in \[0, 2\)"):
            LabeledLogits([[1.0, 2.0]], [-1])
        with pytest.raises(ValidationError, match="labels must be nonnegative"):
            LabeledFeatures([[1.0, 2.0]], [-1])
        assert LabeledFeatures([[1.0, 2.0]], [5]).labels.tolist() == [5]

    @pytest.mark.parametrize("container", [LabeledLogits, LabeledFeatures])
    @pytest.mark.parametrize(
        "labels, bad",
        [
            ([0.7, 1.2], "0.7"),
            ([1.0, 0.5], "0.5"),
            (np.float32([1.0, 1.5]), "1.5"),
            (np.array([0.0, np.nan]), "nan"),
            (np.array([np.inf, 0.0]), "inf"),
            (np.array([0.0, 2.0**63]), "9.223372036854776e\\+18"),
        ],
    )
    def test_non_integral_labels_rejected(self, container, labels, bad):
        with pytest.raises(ValidationError, match=f"^labels entry {bad} is not an integer$"):
            container([[1.0, 2.0], [3.0, 4.0]], labels)

    @pytest.mark.parametrize("rows, at", [(6, 0), (6, 5), (7, 6), (1, 0)])
    def test_non_integral_label_in_any_block(self, rows, at, monkeypatch):
        monkeypatch.setattr(data, "_BLOCK_BYTES", 1)  # two rows a block
        labels = np.zeros(rows)
        labels[at] = 2.9
        with pytest.raises(ValidationError, match="^labels entry 2.9 is not an integer$"):
            LabeledFeatures(np.ones((rows, 1)), labels)

    def test_integral_labels_of_any_type_accepted(self):
        values = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        for labels in ([2.0, 0.0], [2, 0], [np.int64(2), np.uint8(0)], np.float32([2, 0])):
            assert LabeledLogits(values, labels).labels.tolist() == [2, 0]
            assert LabeledFeatures(values, labels).labels.dtype == np.int64


_EYE4 = LabeledFeatures(np.eye(4), [0, 1, 2, 3])
# each public reader of a class set, with the name its errors give the set
_CLASS_SET_READERS = {
    "LabelPartition": ("fine_tuning", lambda classes: LabelPartition(4, classes)),
    "ClassMeans": ("class_ids", lambda classes: ClassMeans(np.eye(4)[:2], classes, [1, 1])),
    "total_intra_group_distance": (
        "subset",
        lambda classes: total_intra_group_distance(np.eye(4), classes),
    ),
    "predict_restricted": (
        "restriction",
        lambda classes: predict_restricted(LabeledLogits(np.eye(4), [0, 1, 2, 3]), classes),
    ),
    "class_means": ("classes", lambda classes: class_means(_EYE4, classes)),
    "ncm_predict": (
        "restriction",
        lambda classes: ncm_predict(_EYE4, class_means(_EYE4, range(4)), classes),
    ),
    "fine_tune": (
        "allowed_classes",
        lambda classes: fine_tune(
            MlpModel(np.eye(4), LinearHead(np.eye(4))),
            LabeledFeatures(np.eye(4)[::2], [0, 2]),
            classes,
            TrainConfig(0.01, seed=0),
        ),
    ),
    "delta_w_similarity": (
        "subset",
        lambda classes: delta_w_similarity(LinearHead(np.eye(4)), LinearHead(2 * np.eye(4)), classes),
    ),
}


# what each reader of _CLASS_SET_READERS does with a repeated class ("merge"
# it or "reject" the set) and the message of an empty set, None where the
# empty set is accepted
_CLASS_SET_RULES = {
    "LabelPartition": (
        "reject",
        "fine_tuning must be a nonempty strict subset of the label space (got 0 of 4 classes)",
    ),
    "ClassMeans": ("reject", "at least one class is required"),
    "total_intra_group_distance": ("reject", None),
    "predict_restricted": ("merge", "restriction must be nonempty"),
    "class_means": ("merge", "classes must be nonempty"),
    "ncm_predict": ("merge", "restriction must be nonempty"),
    "fine_tune": ("merge", "allowed_classes must be nonempty"),
    "delta_w_similarity": ("reject", "subset must contain at least 2 classes"),
}


def _same_result(a, b) -> bool:
    """Whether two reader results hold the same values, arrays bit for bit."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same_result(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same_result, a, b))
    return a == b


class TestClassSets:
    """Every collection of class indices is read by one rule: an iterable of
    integral indices, each in [0, class count), or below 2**63 where no
    count applies."""

    def test_the_rule_table_names_every_reader(self):
        assert sorted(_CLASS_SET_RULES) == sorted(_CLASS_SET_READERS)

    @pytest.mark.parametrize("reader", sorted(_CLASS_SET_READERS))
    def test_a_one_shot_iterator_reads_as_its_list(self, reader):
        _, read = _CLASS_SET_READERS[reader]
        assert _same_result(read(iter([0, 2])), read([0, 2]))

    @pytest.mark.parametrize("repeated", [[3, 0, 1, 2, 3], [2, 0, 2, 1, 3, 3, 1]])
    @pytest.mark.parametrize("reader", sorted(_CLASS_SET_READERS))
    def test_a_repeated_class_is_merged_or_rejected(self, reader, repeated):
        what, read = _CLASS_SET_READERS[reader]
        for given in (repeated, iter(repeated)):
            if _CLASS_SET_RULES[reader][0] == "reject":
                with pytest.raises(ValidationError, match=f"^{what} contains duplicate class indices$"):
                    read(given)
            else:
                assert _same_result(read(given), read(sorted(set(repeated))))

    @pytest.mark.parametrize("reader", sorted(_CLASS_SET_READERS))
    def test_an_empty_set_raises_its_readers_message(self, reader):
        _, read = _CLASS_SET_READERS[reader]
        message = _CLASS_SET_RULES[reader][1]
        for given in ([], iter([])):
            if message is None:
                assert read(given) == 0.0
            else:
                with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                    read(given)

    @pytest.mark.parametrize(
        "classes", [3, None, [2**70], [1.5], [-1]],
        ids=["not-iterable", "none", "beyond-int64", "fraction", "negative"],
    )
    @pytest.mark.parametrize("reader", sorted(_CLASS_SET_READERS))
    def test_faults_are_ftcal_errors_naming_the_set(self, reader, classes):
        what, read = _CLASS_SET_READERS[reader]
        for given in [classes] + ([iter(classes)] if isinstance(classes, list) else []):
            with pytest.raises(FtcalError, match=f"^{what}"):
                read(given)

    def test_only_data_reads_class_indices(self):
        # an _integer call without bounds reads a class index
        readers = []
        for source in Path(data.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(source.read_text())):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_integer":
                    if len(node.args) + len(node.keywords) < 3:
                        readers.append(source.name)
        assert readers == ["data.py"]
        assert not hasattr(metrics, "_restriction_columns")


_LINEAR = MlpModel(np.eye(2), LinearHead(np.eye(2)))
# each scalar argument, with the name its errors give it and a value outside its range
_SCALAR_SITES = {
    "check_seed": ("seed", check_seed, -1),
    "derive_seed.stream": ("stream", lambda v: derive_seed(0, 1, v), -1),
    "LabelPartition.num_classes": ("num_classes", lambda v: LabelPartition(v, (0,)), 1),
    "make_random_split.num_classes": ("num_classes", lambda v: make_random_split(v, 1, 0), 1),
    "make_random_split.k": ("k", lambda v: make_random_split(4, v, 0), 4),
    "make_greedy_similar_split.k": ("k", lambda v: make_greedy_similar_split(np.eye(4), v), 4),
    "check_gamma": ("gamma", check_gamma, np.inf),
    "TrainConfig.learning_rate": ("learning_rate", lambda v: TrainConfig(v), -0.1),
    "TrainConfig.momentum": ("momentum", lambda v: TrainConfig(0.1, momentum=v), 1.0),
    "TrainConfig.weight_decay": ("weight_decay", lambda v: TrainConfig(0.1, weight_decay=v), -1e-4),
    "TrainConfig.epochs": ("epochs", lambda v: TrainConfig(0.1, epochs=v), 0),
    "TrainConfig.batch_size": ("batch_size", lambda v: TrainConfig(0.1, batch_size=v), 0),
    "TrainConfig.seed": ("seed", lambda v: TrainConfig(0.1, seed=v), 2**64),
    "ToySpec.stddev": ("stddev", lambda v: ToySpec(stddev=v), -0.1),
    "ToySpec.samples_per_class": ("samples_per_class", lambda v: ToySpec(samples_per_class=v), 0),
    "ToySpec.class_means": (
        "class_means",
        lambda v: ToySpec(class_means=((10.0, 2.0), (10.0, v), (10.0, 8.0), (10.0, 7.0))),
        np.inf,
    ),
    "ToySpec.shift": ("shift", lambda v: ToySpec(shift=(1.0, -1.0, v, 1.0)), -np.inf),
    "gradient_check.num_cases": ("num_cases", lambda v: gradient_check(num_cases=v), 0),
    "gradient_check.step": ("step", lambda v: gradient_check(num_cases=1, step=v), 0.0),
    "absent_feature_shift.learning_rate": (
        "learning_rate",
        lambda v: absent_feature_shift(_LINEAR, (np.ones(2), 0), np.ones(2), v),
        np.inf,
    ),
    "estimate_gamma_pcv.repeats": (
        "repeats",
        lambda v: estimate_gamma_pcv(
            _EYE4, MlpModel(np.eye(4), LinearHead(np.eye(5, 4))), LabelPartition(5, (0, 1, 2, 3)),
            TrainConfig(0.01), repeats=v,
        ),
        0,
    ),
    "loss_and_grads.label": ("label", lambda v: loss_and_grads(_LINEAR, np.ones(2), v), 2),
}


class TestScalarReaders:
    """Every count, seed and real setting is read by ``errors._integer`` or
    ``errors._real``: a bool, a string, ``None``, nan or a value outside the
    argument's range is a ``ValidationError`` that names the argument."""

    @pytest.mark.parametrize("bad", [True, "1", None, np.nan, "out-of-range"])
    @pytest.mark.parametrize("site", sorted(_SCALAR_SITES))
    def test_faults_are_validation_errors_naming_the_argument(self, site, bad):
        what, read, outside = _SCALAR_SITES[site]
        with pytest.raises(ValidationError, match=rf"^{what} "):
            read(outside if bad == "out-of-range" else bad)

    def test_integral_numbers_are_integers_and_bools_are_not(self):
        for two in (2, 2.0, np.int64(2), np.uint8(2), np.float32(2.0)):
            assert type(errors._integer(two, "n", 1)) is int
            assert errors._integer(two, "n", 1) == 2
        for bad in (True, np.True_, 2.5, np.float32(2.5), 0, "2", None, np.nan, np.inf):
            with pytest.raises(ValidationError, match="^n must be a positive integer, got "):
                errors._integer(bad, "n", 1)
        with pytest.raises(ValidationError, match="^c: class index True is not an integer$"):
            errors._integer(True, "c: class index")
        with pytest.raises(ValidationError, match="^seed must be a nonnegative integer below 4, got 4$"):
            errors._integer(4, "seed", 0, 4)

    def test_reals_are_finite_non_bool_numbers_returned_as_float(self):
        for value in (3, 3.0, np.int64(3), np.float32(3.0), 10**300):
            assert type(errors._real(value, "x")) is float
        for bad in (True, np.True_, "3", None, 1j, 10**400, np.nan, -np.inf):
            with pytest.raises(ValidationError, match="^x must be finite, got "):
                errors._real(bad, "x")
        with pytest.raises(ValidationError, match=r"^x must be finite and >= 0 and < 1, got 1\.0$"):
            errors._real(1.0, "x", 0.0, 1.0)
        with pytest.raises(ValidationError, match=r"^x must be finite and > 0, got 0\.0$"):
            errors._real(0.0, "x", 0.0, low_open=True)

    def test_only_the_readers_check_scalars(self):
        # a scalar type or finiteness test outside the readers would be a
        # second rule; an array-wide np.isfinite(...).all() is not one, nor is
        # fine_tune's guard on its own loss, which is no argument
        for source in Path(data.__file__).parent.glob("*.py"):
            text = source.read_text().replace("math.isfinite(loss)", "")
            for reader in (errors._integer, errors._real):
                text = text.replace(inspect.getsource(reader), "")
            checks = re.findall(r"np\.integer|numbers\.Real|isfinite\((?![^()]*\)\.all\(\))", text)
            assert checks == [], source.name


_PARTITION4 = LabelPartition(4, (0, 1))
_LOGITS4 = LabeledLogits(np.eye(4), [0, 1, 2, 3])
# each named option, with its choices, the name its errors give it and a call that reads it
_CHOICE_SITES = {
    "GammaEstimate.method": (METHODS, "method", lambda v: GammaEstimate(0.0, v, {})),
    "TrainConfig.mode": (MODES, "mode", lambda v: TrainConfig(0.1, mode=v)),
    "MlpModel.activation": (
        ACTIVATIONS, "activation", lambda v: MlpModel(np.eye(2), _LINEAR.head, v)
    ),
    "LabelPartition.group_indices": (("S", "U", "Y"), "group selector", _PARTITION4.group_indices),
    "accuracy.group_a": (
        ("S", "U", "Y"), "group selector", lambda v: accuracy(_LOGITS4, _PARTITION4, v, "Y")
    ),
    "accuracy.group_b": (
        ("S", "U", "Y"), "group selector", lambda v: accuracy(_LOGITS4, _PARTITION4, "Y", v)
    ),
}
# each pair of widths that must agree, with a call where they differ and its message
_WIDTH_SITES = {
    "predict_cosine": (
        lambda: predict_cosine(
            LabeledFeatures(np.eye(2), [0, 1]), LinearHead(np.eye(4, 3)), _PARTITION4, 0.0
        ),
        "features have dim 2, head expects 3",
    ),
    "estimate_gamma_pcv": (
        lambda: estimate_gamma_pcv(
            _EYE4, MlpModel(np.eye(3), LinearHead(np.eye(5, 3))), LabelPartition(5, (0, 1, 2, 3)),
            TrainConfig(0.01),
        ),
        "features have dim 4, model expects 3",
    ),
    "ncm_predict": (
        lambda: ncm_predict(_EYE4, ClassMeans(np.eye(2), [0, 1], [1, 1]), [0, 1]),
        "features have dim 4, each class mean expects 2",
    ),
    "MlpModel.hidden_map": (
        lambda: MlpModel(np.eye(3, 2), _LINEAR.head), "hidden_map output has dim 3, head expects 2"
    ),
    "forward": (lambda: forward(_LINEAR, np.ones(3)), "input has dim 3, model expects 2"),
    "forward_batch": (
        lambda: forward_batch(_LINEAR, np.ones((1, 3))), "inputs have dim 3, model expects 2"
    ),
    "fine_tune": (
        lambda: fine_tune(
            _LINEAR, LabeledFeatures(np.ones((2, 3)), [0, 1]), [0, 1], TrainConfig(0.1)
        ),
        "features have dim 3, model expects 2",
    ),
}


class TestChoicesAndWidths:
    """Every named option is read by ``errors._choice`` and every pair of
    widths that must agree is checked by ``data.check_dim``: a fault is a
    ``ValidationError`` with that rule's one message."""

    @pytest.mark.parametrize("bad", ["bogus", None, "array"])
    @pytest.mark.parametrize("site", sorted(_CHOICE_SITES))
    def test_anything_but_a_choice_is_refused(self, site, bad):
        choices, what, read = _CHOICE_SITES[site]
        value = np.array([choices[0]]) if bad == "array" else bad
        message = f"{what} must be one of {choices}, got {value!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            read(value)

    @pytest.mark.parametrize("site", sorted(_WIDTH_SITES))
    def test_a_width_mismatch_names_both_widths(self, site):
        call, message = _WIDTH_SITES[site]
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call()

    def test_a_choice_is_kept_as_a_plain_str(self):
        assert type(errors._choice(np.str_("U"), ("S", "U"), "group")) is str
        assert type(TrainConfig(0.1, mode=np.str_("linear_probe")).mode) is str
        assert type(MlpModel(np.eye(2), _LINEAR.head, np.str_("rectified")).activation) is str
        assert type(GammaEstimate(0.0, np.str_("ALG"), {}).method) is str

    def test_only_the_two_rules_word_their_messages(self):
        for source in Path(data.__file__).parent.glob("*.py"):
            text = source.read_text()
            for rule in (errors._choice, data.check_dim):
                text = text.replace(inspect.getsource(rule), "")
            assert re.findall(r"must be one of| expects ", text) == [], source.name
        assert not hasattr(data, "check_group")


class TestRandomSplit:
    def test_full_set_is_rejected(self):
        with pytest.raises(ValidationError):
            make_random_split(4, 4, seed=0)
        with pytest.raises(ValidationError):
            make_random_split(4, 0, seed=0)

    def test_two_class_split_is_deterministic(self):
        for seed in (0, 1, 99):
            first = make_random_split(2, 1, seed)
            assert first.fine_tuning in ((0,), (1,))
            assert first == make_random_split(2, 1, seed)

    def test_same_seed_same_split(self):
        assert make_random_split(10, 5, seed=7) == make_random_split(10, 5, seed=7)

    def test_uniform_over_subsets(self):
        # C=6, k=3: all 20 subsets must appear, each within 5 binomial
        # standard errors of the uniform expectation.
        counts = {}
        trials = 10_000
        for seed in range(trials):
            s = make_random_split(6, 3, seed).fine_tuning
            counts[s] = counts.get(s, 0) + 1
        assert len(counts) == 20
        expected = trials / 20
        tolerance = 5 * np.sqrt(trials * (1 / 20) * (19 / 20))
        for subset, count in counts.items():
            assert abs(count - expected) <= tolerance, (subset, count)


class TestSplitPerClass:
    """``_split_per_class``: each class's rows split 80/20, in row order or
    in the order of one permutation per class."""

    @staticmethod
    def labels(seed):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 6, size=int(rng.integers(20, 200)))

    @pytest.mark.parametrize("seed", range(10))
    def test_without_a_generator_each_class_trains_on_its_first_rows(self, seed):
        labels = self.labels(seed)
        classes = [4, 0, 2, 5]
        train, test = data._split_per_class(labels, classes)
        expected = []
        for c in classes:
            rows = np.flatnonzero(labels == c)
            expected.extend(rows[: math.ceil(0.8 * rows.size)])
        assert train.tolist() == sorted(expected)
        labelled = np.flatnonzero(np.isin(labels, classes))
        assert test.tolist() == sorted(set(labelled.tolist()) - set(expected))

    @pytest.mark.parametrize("seed", range(10))
    def test_with_a_generator_sizes_cover_and_seed_are_kept(self, seed):
        labels = self.labels(seed)
        classes = [1, 2, 3, 5]
        train, test = data._split_per_class(labels, classes, derive_rng(seed, 0))
        assert np.all(np.diff(train) > 0) and np.all(np.diff(test) > 0)
        assert np.intersect1d(train, test).size == 0
        assert np.union1d(train, test).tolist() == np.flatnonzero(np.isin(labels, classes)).tolist()
        for c in classes:
            n_c = np.count_nonzero(labels == c)
            assert np.count_nonzero(labels[train] == c) == math.ceil(0.8 * n_c)
        again = data._split_per_class(labels, classes, derive_rng(seed, 0))
        assert train.tolist() == again[0].tolist() and test.tolist() == again[1].tolist()


def _oracle_total_distance(means, subset):
    total = 0.0
    subset = sorted(subset)
    for i in range(len(subset)):
        for j in range(i + 1, len(subset)):
            total += float(np.linalg.norm(np.asarray(means[subset[i]]) - means[subset[j]]))
    return total


def _oracle_greedy(means, k):
    """Independent re-implementation: closest pair seed, then min added cost."""
    means = np.asarray(means, dtype=float)
    c = means.shape[0]
    if k == 1:
        return (0,)
    best_pair, best_dist = None, np.inf
    for i in range(c):
        for j in range(i + 1, c):
            d = float(np.linalg.norm(means[i] - means[j]))
            if d < best_dist:
                best_pair, best_dist = [i, j], d
    members = best_pair
    while len(members) < k:
        best_c, best_cost = None, np.inf
        for cand in range(c):  # ascending scan + strict < keeps the lowest index on ties
            if cand in members:
                continue
            cost = sum(float(np.linalg.norm(means[cand] - means[m])) for m in members)
            if cost < best_cost:
                best_c, best_cost = cand, cost
        members.append(best_c)
    return tuple(sorted(members))


class TestGreedySplit:
    def test_line_instance_matches_exhaustive_optimum(self):
        means = [[0.0], [1.0], [10.0], [11.0]]
        got = make_greedy_similar_split(means, 2).fine_tuning
        best = min(
            itertools.combinations(range(4), 2),
            key=lambda s: _oracle_total_distance(means, s),
        )
        assert got == (0, 1)
        assert got == tuple(best)

    def test_identical_means_tie_rule(self):
        means = np.ones((5, 3))
        assert make_greedy_similar_split(means, 4).fine_tuning == (0, 1, 2, 3)

    def test_five_point_instance_against_independent_greedy(self):
        means = [(0.0, 0.0), (0.0, 1.0), (5.0, 5.0), (5.0, 6.0), (9.0, 9.0)]
        got = make_greedy_similar_split(means, 3).fine_tuning
        assert got == _oracle_greedy(means, 3) == (0, 1, 2)
        # The greedy heuristic is not exhaustive: enumeration finds a
        # strictly cheaper 3-subset on this instance.
        best = min(
            itertools.combinations(range(5), 3),
            key=lambda s: _oracle_total_distance(means, s),
        )
        assert tuple(best) == (2, 3, 4)
        assert _oracle_total_distance(means, best) < _oracle_total_distance(means, got)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        means = rng.normal(size=(8, 4))
        a = make_greedy_similar_split(means, 5)
        b = make_greedy_similar_split(means, 5)
        assert a == b
        assert a.fine_tuning == _oracle_greedy(means, 5)

    def test_k_one_degenerates_to_class_zero(self):
        assert make_greedy_similar_split(np.random.default_rng(0).normal(size=(4, 2)), 1).fine_tuning == (0,)

    def test_k_out_of_range(self):
        with pytest.raises(ValidationError):
            make_greedy_similar_split(np.zeros((3, 2)), 3)


class TestTotalIntraGroupDistance:
    def test_upper_triangle_of_the_greedy_distance_matrix_bit_for_bit(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            num_classes = int(rng.integers(3, 12))
            scale = 10.0 ** rng.integers(-3, 4)
            means = rng.normal(size=(num_classes, int(rng.integers(1, 9)))) * scale
            split = make_greedy_similar_split(means, int(rng.integers(1, num_classes))).fine_tuning
            own = _distances(means)[np.ix_(split, split)]
            expected = own[np.triu_indices(len(split), k=1)].sum()
            assert total_intra_group_distance(means, split) == expected
            assert total_intra_group_distance(means, split[::-1]) == expected
            assert total_intra_group_distance(means, split) == pytest.approx(
                _oracle_total_distance(means, split), rel=1e-13
            )

    @pytest.mark.parametrize("block_bytes", [300, data._BLOCK_BYTES])
    def test_distance_matrix_matches_the_broadcast_formula_bit_for_bit(self, block_bytes, monkeypatch):
        monkeypatch.setattr(data, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(9)
        for dim in (1, 7, 8, 9, 128, 129, 1000):
            means = rng.normal(size=(int(rng.integers(2, 30)), dim)) * 10.0 ** rng.integers(-5, 6)
            diff = means[:, None, :] - means[None, :, :]
            expected = np.sqrt((diff * diff).sum(axis=2))
            assert _distances(means).tobytes() == expected.tobytes()

    def test_the_block_budget_lives_only_in_data(self):
        # a stale copy in metrics would leave patches of data._BLOCK_BYTES unseen there
        assert not hasattr(metrics, "_BLOCK_BYTES")
        assert metrics._row_blocks is data._row_blocks

    def test_no_classes_x_classes_x_dim_temporary(self, monkeypatch):
        _cpus(monkeypatch, 1)  # a bound for one thread; TestNcmScoresOnThreads bounds four
        means = np.random.default_rng(10).normal(size=(100, 512))  # 0.4 MB; 100 x 100 x 512 is 41 MB
        tracemalloc.start()
        try:
            total_intra_group_distance(means, range(0, 100, 2))
            make_greedy_similar_split(means, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * means.nbytes, f"peak {peak} B for {means.nbytes} B of means"

    def test_one_difference_slab_per_block(self, monkeypatch):
        _cpus(monkeypatch, 1)
        rng = np.random.default_rng(12)
        rows, candidates = rng.normal(size=(100, 512)), rng.normal(size=(100, 512))
        blocks = data._row_blocks(100, rows.itemsize * candidates.size)
        slab = max(block.stop - block.start for block in blocks) * candidates.nbytes
        tracemalloc.start()
        try:
            scores = _ncm_scores(rows, candidates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a squared copy of the slab, or the next block's slab made before
        # this one is freed, would be a second slab
        assert peak < scores.nbytes + slab + slab // 2, f"peak {peak} B, slab {slab} B"

    def test_non_integral_class_index_rejected(self):
        with pytest.raises(ValidationError, match="class index 1.5 is not an integer"):
            total_intra_group_distance(np.eye(3), (0, 1.5))
        for two in (2, np.int64(2)):
            assert total_intra_group_distance(np.eye(3), (0, two)) == np.sqrt(2.0)

    def test_empty_and_singleton_subsets_cost_nothing(self):
        means = np.arange(6.0).reshape(3, 2)
        assert total_intra_group_distance(means, ()) == 0.0
        assert total_intra_group_distance(means, (2,)) == 0.0

    def test_means_without_dimensions_are_all_at_distance_zero(self):
        means = np.zeros((3, 0))
        assert make_greedy_similar_split(means, 2).fine_tuning == (0, 1)
        assert total_intra_group_distance(means, (0, 1, 2)) == 0.0

    def test_means_are_validated(self):
        with pytest.raises(ValidationError):
            total_intra_group_distance([[0.0, np.nan], [1.0, 1.0]], (0, 1))

    @pytest.mark.parametrize("subset", [(-1, 0), (1, 1), (0, 5), (0, 3)])
    def test_negative_repeated_and_out_of_range_indices_rejected(self, subset):
        means = [[0.0, 0.0], [4.0, 4.0], [4.0, 0.0]]
        with pytest.raises(ValidationError, match="subset"):
            total_intra_group_distance(means, subset)


def _broadcast_scores(rows, candidates):
    diff = rows[:, None, :] - candidates[None, :, :]
    return -(diff * diff).sum(axis=2)


class TestNcmScoresOnThreads:
    """``_ncm_scores`` shares its row blocks among one thread per CPU of the
    affinity mask; its bits do not depend on the mask, it holds one slab
    per thread, and no thread outlives the call."""

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    @pytest.mark.parametrize("block_bytes", [300, data._BLOCK_BYTES])
    def test_matches_the_broadcast_formula_bit_for_bit(self, cpus, block_bytes, monkeypatch):
        _cpus(monkeypatch, cpus)
        monkeypatch.setattr(data, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(20)
        for num_candidates, dim in ((1, 1), (2, 3), (7, 9), (40, 64)):
            row_bytes = 8 * num_candidates * dim
            step = max(2, block_bytes // row_bytes)
            for num_blocks in sorted({1, 2, 3, cpus, cpus + 1, data._THREAD_BLOCKS, data._THREAD_BLOCKS + 1}):
                for num_rows, blocks in ((num_blocks * step, num_blocks), (num_blocks * step + 1, num_blocks + 1)):
                    assert len(data._row_blocks(num_rows, row_bytes)) == blocks  # the last of one row
                    rows = rng.normal(size=(num_rows, dim)) * 10.0 ** rng.integers(-5, 6)
                    candidates = rng.normal(size=(num_candidates, dim))
                    expected = _broadcast_scores(rows, candidates)
                    assert _ncm_scores(rows, candidates).tobytes() == expected.tobytes()
        assert _ncm_scores(np.ones((0, 3)), np.ones((2, 3))).shape == (0, 2)

    def test_the_memory_order_of_the_inputs_moves_no_bit(self, monkeypatch):
        _cpus(monkeypatch, 2)
        rng = np.random.default_rng(21)
        rows, candidates = rng.normal(size=(300, 33)), rng.normal(size=(60, 33))
        expected = _broadcast_scores(rows, candidates).tobytes()
        strided = np.repeat(rows, 2, axis=1)[:, ::2]
        for r, c in ((np.asfortranarray(rows), candidates), (rows, np.asfortranarray(candidates)), (strided, candidates)):
            assert _ncm_scores(r, c).tobytes() == expected

    def test_public_results_are_the_same_at_one_and_four_cpus(self, monkeypatch):
        rng = np.random.default_rng(22)
        features = LabeledFeatures(rng.normal(size=(400, 64)), np.arange(400) % 100)
        means = class_means(features, range(100))
        split_means = rng.normal(size=(200, 256))
        assert len(data._row_blocks(400, 8 * 100 * 64)) > 4
        assert len(data._row_blocks(200, 8 * 200 * 256)) > 4

        def results():
            return (
                ncm_predict(features, means, range(100)).tobytes(),
                ncm_predict(features, means, range(0, 100, 3)).tobytes(),
                ncm_logits(features, means).values.tobytes(),
                make_greedy_similar_split(split_means, 20).fine_tuning,
                total_intra_group_distance(split_means, range(0, 200, 2)),
            )

        with monkeypatch.context() as patch:
            _cpus(patch, 1)
            one = results()
        _cpus(monkeypatch, 4)
        assert results() == one

    def test_one_difference_slab_per_thread(self, monkeypatch):
        _cpus(monkeypatch, 4)
        rng = np.random.default_rng(12)
        rows, candidates = rng.normal(size=(100, 512)), rng.normal(size=(100, 512))
        blocks = data._row_blocks(100, rows.itemsize * candidates.size)
        slab = max(block.stop - block.start for block in blocks) * candidates.nbytes
        tracemalloc.start()
        try:
            scores = _ncm_scores(rows, candidates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < scores.nbytes + 4 * slab + slab // 2, f"peak {peak} B, slab {slab} B"

    def test_every_cpu_scores_and_no_thread_outlives_the_call(self, monkeypatch):
        _cpus(monkeypatch, 4)
        score_block = data._score_block
        arrived = threading.Barrier(4, timeout=10)
        scorers = set()

        def spy(rows, candidates, slab, scores):
            if threading.get_ident() not in scorers:
                scorers.add(threading.get_ident())
                arrived.wait()  # every thread takes a block before any takes a second
            score_block(rows, candidates, slab, scores)

        monkeypatch.setattr(data, "_score_block", spy)
        rows = np.random.default_rng(23).normal(size=(100, 512))  # 50 blocks
        before = threading.active_count()
        scores = _ncm_scores(rows, rows)
        assert threading.active_count() == before
        assert len(scorers) == 4 and threading.get_ident() in scorers
        assert scores.tobytes() == _broadcast_scores(rows, rows).tobytes()

    def test_one_block_starts_no_thread(self, monkeypatch):
        _cpus(monkeypatch, 4)
        rows = np.random.default_rng(25).normal(size=(30, 8))
        assert len(data._row_blocks(30, rows.itemsize * rows.size)) == 1

        def refuse(*args, **kwargs):
            raise AssertionError("started a thread for one block")

        monkeypatch.setattr(threading, "Thread", refuse)
        assert _ncm_scores(rows, rows).tobytes() == _broadcast_scores(rows, rows).tobytes()

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_the_first_failing_block_is_raised_after_every_thread_ends(self, cpus, monkeypatch):
        _cpus(monkeypatch, cpus)
        rows = np.repeat(np.arange(100.0)[:, None], 512, axis=1)  # row i holds i
        step = data._row_blocks(100, rows.itemsize * rows.size)[0].stop
        later_failed = threading.Event()
        score_block = data._score_block

        def faulty(block_rows, candidates, slab, scores):
            index = int(block_rows[0, 0]) // step
            if index == 9:
                later_failed.set()
                raise ValueError("block 9")
            if index == 3:
                # on 4 CPUs, block 9 fails first: the other threads go on past block 3
                if cpus > 1 and not later_failed.wait(timeout=10):
                    raise AssertionError("block 9 was never scored")
                raise ValueError("block 3")
            score_block(block_rows, candidates, slab, scores)

        monkeypatch.setattr(data, "_score_block", faulty)
        before = threading.active_count()
        with pytest.raises(ValueError, match="^block 3$"):
            _ncm_scores(rows, rows)
        assert threading.active_count() == before
        assert later_failed.is_set() == (cpus > 1)

    def test_more_threads_than_cores_lose_no_row(self, monkeypatch):
        _cpus(monkeypatch, 8)
        monkeypatch.setattr(data, "_BLOCK_BYTES", 300)  # two rows a block: many hand-offs
        rng = np.random.default_rng(24)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                rows, candidates = rng.normal(size=(int(rng.integers(20, 400)), 5)), rng.normal(size=(3, 5))
                assert _ncm_scores(rows, candidates).tobytes() == _broadcast_scores(rows, candidates).tobytes()
                wide = rng.normal(size=(20, 5))  # two rows a block for the nearest-mean kernel too
                nearest = np.argmax(_broadcast_scores(data.unit_rows(rows, "feature"), wide), axis=1)
                assert data._ncm_nearest(rows, wide).tobytes() == nearest.tobytes()
        finally:
            sys.setswitchinterval(interval)


def _count_threads(monkeypatch) -> list:
    """Record every thread started from now on; returns the list it fills.
    Each thread lingers a little after its work, so a call that returns
    without joining its threads leaves them alive."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

        def run(self):
            super().run()
            time.sleep(0.01)

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


class TestRowBlockPassesOnThreads:
    """Every row-block pass (the container copy and check, the statistics
    kernel, the absent probability and the NCM distances) runs through
    ``data._each_block``: the same bits and faults at any CPU count, the
    caller's ``np.errstate`` in every block, no thread on too few blocks
    and none left after a call."""

    def _instance(self, num_rows=600):
        rng = np.random.default_rng(30)
        values = rng.normal(size=(num_rows, 40)) * 10.0 ** rng.integers(-3, 4, size=(num_rows, 1))
        labels = rng.integers(0, 40, size=num_rows)
        features = LabeledFeatures(rng.normal(size=(num_rows, 24)), labels)
        return values, labels, LabelPartition(40, range(0, 40, 3)), features, LinearHead(rng.normal(size=(40, 24)))

    def _results(self, values, labels, partition, features, head):
        logits = LabeledLogits(values, labels)
        stats = metrics._stats_kernel(logits.values, logits.labels, partition)
        return (
            logits.values.tobytes(),
            logits.labels.tobytes(),
            features.values.tobytes(),
            *(field.tobytes() for field in stats),
            np.float64(absent_binary_prob(logits, partition)).tobytes(),
            predict_cosine(features, head, partition, 0.3).tobytes(),
        )

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_every_pass_matches_one_thread_bit_for_bit(self, cpus, monkeypatch):
        with monkeypatch.context() as patch:
            _cpus(patch, 1)
            expected = self._results(*self._instance())
        _cpus(monkeypatch, cpus)
        monkeypatch.setattr(data, "_BLOCK_BYTES", 2048)  # 6 logits rows a block: 100 blocks
        assert len(data._row_blocks(600, 8 * 40)) == 100
        started = _count_threads(monkeypatch)
        assert self._results(*self._instance()) == expected
        assert bool(started) == (cpus > 1)

    def test_two_non_finite_blocks_raise_one_message(self, monkeypatch):
        _cpus(monkeypatch, 4)
        monkeypatch.setattr(data, "_BLOCK_BYTES", 64)  # 4 rows a block: 1,000 blocks
        values = np.random.default_rng(31).normal(size=(4000, 2))
        values[1001, 1], values[3500, 0] = np.nan, -np.inf
        for _ in range(5):
            with pytest.raises(ValidationError, match=r"^logits contains non-finite entries$"):
                LabeledLogits(values, np.zeros(4000, dtype=np.int64))

    def test_the_first_non_integral_label_in_row_order_is_named(self, monkeypatch):
        _cpus(monkeypatch, 4)
        monkeypatch.setattr(data, "_BLOCK_BYTES", 64)  # 8 labels a block: 500 blocks

        class SlowFirstFault(np.ndarray):
            def __getitem__(self, index):
                if isinstance(index, slice) and index.start == 1000:
                    time.sleep(0.2)  # the other threads fail later blocks meanwhile
                return super().__getitem__(index)

        labels = np.zeros(4000)
        bad = np.arange(1000, 4000, 37)
        labels[bad] = bad + 0.5  # a bad label in most blocks from the 125th on
        for source in (labels, labels.view(SlowFirstFault)):
            with pytest.raises(ValidationError, match=r"^labels entry 1000\.5 is not an integer$"):
                LabeledLogits(np.zeros((4000, 2)), source)

    def test_no_thread_outlives_a_pass(self, monkeypatch):
        _cpus(monkeypatch, 4)
        monkeypatch.setattr(data, "_BLOCK_BYTES", 2048)
        values, labels, partition, features, head = self._instance()
        logits = LabeledLogits(values, labels)
        broken = values.copy()
        broken[-1, -1] = np.inf
        started = _count_threads(monkeypatch)
        before = threading.active_count()

        def rejected():
            with pytest.raises(ValidationError, match="non-finite"):
                LabeledLogits(broken, labels)

        for call in (
            lambda: LabeledLogits(values, labels),
            lambda: metrics._stats_kernel(logits.values, logits.labels, partition),
            lambda: absent_binary_prob(logits, partition),
            lambda: predict_cosine(features, head, partition, 0.3),
            rejected,
        ):
            threads = len(started)
            call()
            assert len(started) > threads and threading.active_count() == before

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_too_few_blocks_start_no_thread(self, cpus, monkeypatch):
        _cpus(monkeypatch, cpus)
        monkeypatch.setattr(data, "_BLOCK_BYTES", 2048)  # 6 rows of 40 logits a block
        started = _count_threads(monkeypatch)
        partition = LabelPartition(40, range(20))
        candidates = np.ones((4, 10))  # NCM rows of 4 x 10 differences: 6 rows a block too
        for num_blocks in (data._THREAD_BLOCKS - 1, data._THREAD_BLOCKS):
            num_rows = 6 * num_blocks
            values = np.random.default_rng(num_blocks).normal(size=(num_rows, 40))
            logits = LabeledLogits(values, np.full(num_rows, 30))  # every row absent-labelled
            absent_binary_prob(logits, partition)
            _ncm_scores(values[:, :10], candidates)
            # the container, the kernel, the absent probability and NCM
            assert len(started) == (0 if num_blocks < data._THREAD_BLOCKS else 4 * (cpus - 1))

    def test_more_threads_than_cores_lose_no_row(self, monkeypatch):
        monkeypatch.setattr(data, "_BLOCK_BYTES", 64)  # two rows of 4 logits a block: many hand-offs
        rng = np.random.default_rng(33)
        partition = LabelPartition(4, (0, 2))

        def results(values, labels):
            logits = LabeledLogits(values, labels)
            stats = metrics._stats_kernel(logits.values, logits.labels, partition)
            return [logits.values.tobytes(), *(field.tobytes() for field in stats)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                num_rows = int(rng.integers(2 * data._THREAD_BLOCKS, 400))
                values, labels = rng.normal(size=(num_rows, 4)), rng.integers(0, 4, size=num_rows)
                _cpus(monkeypatch, 1)
                expected = results(values, labels)
                _cpus(monkeypatch, 8)
                assert results(values, labels) == expected
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_the_callers_errstate_reaches_every_block(self, cpus, monkeypatch):
        _cpus(monkeypatch, cpus)
        rng = np.random.default_rng(32)
        rows, candidates = rng.normal(size=(400, 256)), rng.normal(size=(100, 256))
        rows[-2:] = 1e200  # overflows in the last of 200 blocks only
        assert len(data._row_blocks(400, rows.itemsize * candidates.size)) == 200
        for _ in range(6):
            with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
                _ncm_scores(rows, candidates)
        monkeypatch.setattr(data, "_BLOCK_BYTES", 2048)  # 100 blocks
        values = rng.normal(size=(600, 40))
        values[-3:, 0] = -1000.0  # exp underflows in the last block only
        logits, partition = LabeledLogits(values, np.full(600, 39)), LabelPartition(40, range(20))
        _group_stats(logits, partition)
        for _ in range(6):
            with np.errstate(under="raise"), pytest.raises(FloatingPointError, match="underflow"):
                absent_binary_prob(logits, partition)


class TestUnitRows:
    """``unit_rows`` scales each row by its norm, or first by a power of two
    where a square could overflow or underflow, so a positive rescaling of a
    row moves no unit bit when it is a power of two, and no NCM or cosine
    prediction at any scale."""

    def _instance(self):
        rng = np.random.default_rng(34)
        rows = rng.normal(size=(40, 16))
        means = class_means(LabeledFeatures(rng.normal(size=(60, 16)), np.arange(60) % 6), range(6))
        return rows, means, LinearHead(rng.normal(size=(6, 16))), LabelPartition(6, (0, 2, 3))

    def _predictions(self, rows, means, head, partition):
        features = LabeledFeatures(rows, np.zeros(len(rows), dtype=np.int64))
        return ncm_predict(features, means, range(6)), predict_cosine(features, head, partition, 0.05)

    def test_powers_of_two_move_no_bit(self):
        rows, means, head, partition = self._instance()
        rows = rows[:5]
        exponents = np.arange(-1000, 1001)
        scaled = np.vstack([np.ldexp(rows, k) for k in exponents])
        repeated = np.tile(rows, (exponents.size, 1))
        assert np.array_equal(np.ldexp(scaled, -np.repeat(exponents, 5)[:, None]), repeated)  # exact
        unit = data.unit_rows(rows, "feature")
        assert data.unit_rows(scaled, "feature").tobytes() == np.tile(unit, (exponents.size, 1)).tobytes()
        expected = self._predictions(rows, means, head, partition)
        for got, want in zip(self._predictions(scaled, means, head, partition), expected):
            assert got.tolist() == np.tile(want, exponents.size).tolist()

    @pytest.mark.parametrize("scale", [1e160, 1e300, 1e-170, 1e-300])
    def test_rows_beyond_the_square_range_keep_their_predictions(self, scale):
        rows, means, head, partition = self._instance()
        expected = self._predictions(rows, means, head, partition)
        for got, want in zip(self._predictions(rows * scale, means, head, partition), expected):
            assert got.tolist() == want.tolist()

    def test_only_a_row_of_zeros_has_zero_norm(self):
        tiny = np.array([[5e-324, 0.0], [0.0, -1e-320], [3e-310, 4e-310]])
        assert data.unit_rows(tiny, "feature").tolist() == [[1.0, 0.0], [0.0, -1.0], [0.6, 0.8]]
        for zero_row in (0, 2):
            with_zero = tiny.copy()
            with_zero[zero_row] = -0.0
            with pytest.raises(ValidationError, match=f"^feature row {zero_row} has zero norm$"):
                data.unit_rows(with_zero, "feature")

    def test_a_zero_row_past_the_first_block_is_named_by_its_index(self, monkeypatch):
        monkeypatch.setattr(data, "_BLOCK_BYTES", 64)  # two rows a block
        rows, means, head, partition = self._instance()
        rows[[29, 33]] = 0.0
        features = LabeledFeatures(rows, np.zeros(40, dtype=np.int64))
        for call in (
            lambda: ncm_predict(features, means, range(6)),
            lambda: predict_cosine(features, head, partition, 0.0),
        ):
            with pytest.raises(ValidationError, match="^feature row 29 has zero norm$"):
                call()

    def test_rows_inside_the_square_range_keep_the_plain_quotient(self):
        rng = np.random.default_rng(35)
        rows = rng.normal(size=(300, 33)) * 10.0 ** rng.integers(-140, 141, size=(300, 1))
        expected = rows / np.linalg.norm(rows, axis=1)[:, None]
        assert data.unit_rows(rows, "feature").tobytes() == expected.tobytes()
