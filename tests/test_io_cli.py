import dataclasses
import hashlib
import os
import re
import stat
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ftcal
from ftcal import (
    LabeledFeatures,
    LabeledLogits,
    LabelPartition,
    LinearHead,
    MlpModel,
    ParseError,
    ShapeError,
    TrainConfig,
    ToySpec,
    ValidationError,
    ausuc,
    class_means,
    estimate_gamma_alg,
    linear_cka,
    ncm_logits,
    seen_unseen_curve,
)
from ftcal import cli, io
from ftcal.cli import main
from ftcal.trainer import MODES, EpochRecord
from helpers import write_ncm_files


class TestMatrixFile:
    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(3, 4)) * np.pi
        path = tmp_path / "m.csv"
        io.save_matrix(matrix, path)
        np.testing.assert_array_equal(io.load_matrix(path), matrix)

    @pytest.mark.parametrize(
        "matrix",
        [
            np.random.default_rng(1).normal(size=(50, 7)) * 10.0 ** np.arange(-3, 4),
            np.array(
                [
                    [np.nan, -np.nan, np.inf, -np.inf],
                    [-0.0, 0.0, 5e-324, -2.2250738585072009e-308],
                    [1.0 / 3.0, 1e16, -1.7976931348623157e308, 0.1],
                ]
            ),
            np.random.default_rng(2).normal(size=(9, 1)),
        ],
        ids=["random", "special-values", "one-column"],
    )
    def test_bytes_equal_the_per_value_format(self, tmp_path, matrix):
        path = tmp_path / "m.csv"
        io.save_matrix(matrix, path)
        body = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in matrix)
        assert path.read_bytes() == f"#shape {matrix.shape[0]} {matrix.shape[1]}\n{body}".encode()

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3)])
    def test_a_matrix_load_matrix_refuses_is_not_written(self, tmp_path, shape):
        # load_matrix reads a header and three blank lines, or a header alone, as a fault
        message = f"matrix must be 2-D with a row and a column, got shape {shape}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            io.save_matrix(np.zeros(shape), tmp_path / "m.csv")
        assert list(tmp_path.iterdir()) == []

    def test_shape_header_mismatch(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("#shape 2 2\n1,2\n3,4\n5,6\n")
        with pytest.raises(ShapeError):
            io.load_matrix(path)

    def test_expected_shape_mismatch(self, tmp_path):
        path = tmp_path / "m.csv"
        io.save_matrix(np.eye(2), path)
        with pytest.raises(ShapeError):
            io.load_matrix(path, expected_shape=(3, 2))

    def test_empty_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            io.load_matrix(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ParseError, match=":2:"):
            io.load_matrix(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ParseError, match=":2:"):
            io.load_matrix(path)


class TestLabelsFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "l.csv"
        io.save_labels([3, 0, 7], path)
        assert io.load_labels(path).tolist() == [3, 0, 7]

    def test_negative_and_malformed(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("1\n-2\n")
        with pytest.raises(ParseError, match=":2:"):
            io.load_labels(path)
        path.write_text("1\nx\n")
        with pytest.raises(ParseError):
            io.load_labels(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1\n\n2\n", ":2: blank line inside labels"),
            ("", ": empty labels file"),
            ("0\n99999999999999999999\n", ":2: labels must be below 2**63"),
        ],
    )
    def test_faults_name_the_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "l.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            io.load_labels(path)
        assert str(info.value) == f"{path}{message}"

    def test_a_fault_in_a_later_batch_names_its_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io, "_BATCH_CHARS", 16)  # about 5 lines a batch
        path = tmp_path / "l.csv"
        path.write_text("".join(f"{label}\n" for label in range(100)) + "x\n")
        with pytest.raises(ParseError) as info:
            io.load_labels(path)
        assert str(info.value) == f"{path}:101: not an integer label"

    def test_a_label_fault_is_outranked_by_a_later_decoding_fault(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io, "_BATCH_CHARS", 16)
        path = tmp_path / "l.csv"
        path.write_bytes(b"1\n-2\n" + b"3\n" * 100 + b"\xff\n")
        with pytest.raises(ParseError) as info:
            io.load_labels(path)
        assert str(info.value) == f"{path}: not a UTF-8 text file"

    def test_peak_memory_stays_near_the_labels(self, tmp_path):
        # the lines of the whole file as strings would take over 12 times
        # the labels' bytes
        labels = np.random.default_rng(13).integers(0, 1000, size=200_000)
        path = tmp_path / "l.csv"
        io.save_labels(labels, path)
        tracemalloc.start()
        try:
            loaded = io.load_labels(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded, labels)
        assert peak < 4 * labels.nbytes, f"peak {peak} B for {labels.nbytes} B of labels"


class TestPartitionFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "p.txt"
        partition = LabelPartition(6, (0, 2, 5))
        io.save_partition(partition, path)
        assert io.load_partition(path) == partition
        assert path.read_text() == "num_classes=6\nfine_tuning=0,2,5\n"

    def test_trailing_whitespace_tolerated(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("num_classes=3  \nfine_tuning=1 \n")
        assert io.load_partition(path) == LabelPartition(3, (1,))

    def test_strict_structure(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("num_classes=3\n")
        with pytest.raises(ParseError):
            io.load_partition(path)
        path.write_text("classes=3\nfine_tuning=1\n")
        with pytest.raises(ParseError):
            io.load_partition(path)


class TestModelFile:
    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        model = MlpModel(
            hidden_map=rng.normal(size=(3, 2)) * 1e-7,
            head=LinearHead(rng.normal(size=(4, 3)) * 1e7),
            activation="rectified",
        )
        path = tmp_path / "model.csv"
        io.save_model(model, path)
        loaded = io.load_model(path)
        np.testing.assert_array_equal(loaded.hidden_map, model.hidden_map)
        np.testing.assert_array_equal(loaded.head.weights, model.head.weights)
        assert loaded.activation == "rectified"

    def test_matrix_sections_equal_the_per_value_format(self, tmp_path):
        rng = np.random.default_rng(3)
        model = MlpModel(hidden_map=rng.normal(size=(1, 3)), head=LinearHead([[-0.0], [5e-324]]))
        path = tmp_path / "model.csv"
        io.save_model(model, path)
        sections = [
            f"[{name}]\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in matrix)
            for name, matrix in (("hidden_map", model.hidden_map), ("head", model.head.weights))
        ]
        assert path.read_text().endswith("".join(sections))

    def test_shape_declaration_checked(self, tmp_path):
        path = tmp_path / "model.csv"
        path.write_text(
            "[meta]\nactivation=linear\nhidden_map_shape=2 2\nhead_shape=2 2\n"
            "[hidden_map]\n1,0\n[head]\n1,0\n0,1\n"
        )
        with pytest.raises(ShapeError):
            io.load_model(path)

    def test_declared_shapes_are_read_as_counts(self, tmp_path):
        # each part is read as a settings count is: 1.0 is 1, 1.5 is no count
        path = tmp_path / "model.csv"
        body = "[hidden_map]\n1,0\n[head]\n2\n3\n"
        path.write_text(f"[meta]\nhidden_map_shape=1.0 2\nhead_shape=2 1e0\n{body}")
        model = io.load_model(path)
        assert (model.hidden_map.shape, model.head.weights.shape) == ((1, 2), (2, 1))
        path.write_text(f"[meta]\nhidden_map_shape=1.5 2\n{body}")
        with pytest.raises(ParseError) as info:
            io.load_model(path)
        assert str(info.value) == f"{path}: malformed hidden_map_shape '1.5 2'"

    def test_ragged_head_row_names_its_line(self, tmp_path):
        path = tmp_path / "model.csv"
        path.write_text("[meta]\nactivation=linear\n[hidden_map]\n1,0\n0,1\n[head]\n1,0\n0\n")
        with pytest.raises(ParseError, match=":8:"):
            io.load_model(path)

    def test_missing_section(self, tmp_path):
        path = tmp_path / "model.csv"
        path.write_text("[meta]\nactivation=linear\n[head]\n1,0\n0,1\n")
        with pytest.raises(ParseError, match="hidden_map"):
            io.load_model(path)


class TestSharedInputRules:
    """The writers read their input by the containers' array rule, and the
    model reader by the settings, choice, array and width rules."""

    @pytest.mark.parametrize(
        "values",
        [[[None, 1.0]], [["1", "2"]], np.eye(2, dtype=bool), [[1.0 + 2.0j]], [[1.0], [1.0, 2.0]]],
        ids=["none", "text", "bool", "complex", "ragged"],
    )
    def test_save_matrix_refuses_what_is_not_real(self, tmp_path, values):
        with pytest.raises(ValidationError, match=r"^matrix must be an array of real numbers$"):
            io.save_matrix(values, tmp_path / "m.csv")
        assert list(tmp_path.iterdir()) == []  # no file and no .tmp

    @pytest.mark.parametrize(
        "labels, message",
        [
            ([1.5], "labels entry 1.5 is not an integer"),
            (["2"], "labels must be an array of real numbers"),
            ([None], "labels must be an array of real numbers"),
            ([True], "labels must be an array of real numbers"),
            ([-1], "labels must be nonnegative"),
            ([], "labels must be nonempty"),
        ],
        ids=["fraction", "text", "none", "bool", "negative", "empty"],
    )
    def test_save_labels_refuses_what_load_labels_or_a_container_refuses(
        self, tmp_path, labels, message
    ):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            io.save_labels(labels, tmp_path / "l.csv")
        assert list(tmp_path.iterdir()) == []  # no file and no .tmp

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[meta]\nactivation=linear\n[hidden_map]\n1\n[head]\n1\n1\n[bias]\n0\n",
             ":8: unknown section [bias]"),
            ("[meta]\nactivation=bogus\n[hidden_map]\n1\n[head]\n1\n1\n",
             ": activation must be one of ('linear', 'rectified'), got 'bogus'"),
            ("[meta]\nactivation=linear\n[hidden_map]\nnan\n[head]\n1\n1\n",
             ": hidden_map contains non-finite entries"),
            ("[meta]\n[hidden_map]\n1\n[head]\n",
             ": weights must be 2-dimensional, got shape (0,)"),
            ("[meta]\n[hidden_map]\n1,0\n[head]\n1,0\n0,1\n",
             ": hidden_map output has dim 1, head expects 2"),
        ],
        ids=["extra-section", "bogus-activation", "nan", "empty-head", "widths"],
    )
    def test_load_model_faults_start_with_the_path(self, tmp_path, text, message):
        path = tmp_path / "model.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            io.load_model(path)
        assert str(info.value) == f"{path}{message}"


class TestTrainConfigFile:
    def test_round_trip(self, tmp_path):
        config = TrainConfig(0.05, momentum=0.9, weight_decay=1e-4, epochs=7, batch_size=4, seed=3)
        path = tmp_path / "config.txt"
        io.save_train_config(config, path)
        assert io.load_train_config(path) == config

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("learning_rate=0.1\nwarmup=5\n")
        with pytest.raises(ParseError, match="warmup"):
            io.load_train_config(path)

    def test_learning_rate_required(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("epochs=5\n")
        with pytest.raises(ParseError):
            io.load_train_config(path)

    def test_file_lists_every_field_in_declaration_order(self, tmp_path):
        path = tmp_path / "config.txt"
        io.save_train_config(TrainConfig(0.05, epochs=3, batch_size=8, seed=2), path)
        assert path.read_text() == (
            "learning_rate=0.05\nmomentum=0.0\nweight_decay=0.0\nepochs=3\n"
            "batch_size=8\nmode=full\nseed=2\n"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("epochs=5\n", "learning_rate is required"),
            ("learning_rate=0.1\nepochs=2.5\n", "malformed value for epochs: '2.5'"),
            ("learning_rate=fast\n", "malformed value for learning_rate: 'fast'"),
        ],
    )
    def test_error_messages_name_the_key(self, tmp_path, text, message):
        path = tmp_path / "config.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(message)):
            io.load_train_config(path)

    def test_counts_are_read_as_the_constructor_reads_them(self, tmp_path):
        # an integral real is a count, as TrainConfig(0.1, epochs=2.0) takes it;
        # an integer keeps digits a float would round (2**64 - 1 would become 2**64)
        path = tmp_path / "config.txt"
        path.write_text(
            "learning_rate=0.1\nepochs=2.0\nbatch_size=1e1\nseed=18446744073709551615\n"
        )
        config = io.load_train_config(path)
        assert config == TrainConfig(0.1, epochs=2.0, batch_size=10, seed=2**64 - 1)
        assert (config.epochs, config.seed) == (2, 2**64 - 1)


class TestToySpecFile:
    def test_round_trip(self, tmp_path):
        spec = ToySpec(samples_per_class=17, shift=(0.5, -0.5, 1.5, -1.5))
        path = tmp_path / "spec.txt"
        io.save_toy_spec(spec, path)
        assert io.load_toy_spec(path) == spec

    def test_floats_are_written_in_their_shortest_exact_form(self, tmp_path):
        path = tmp_path / "spec.txt"
        io.save_toy_spec(ToySpec(), path)
        assert path.read_text().splitlines()[:3] == [
            "class_means=10.0,2.0;10.0,3.0;10.0,8.0;10.0,7.0",
            "stddev=0.2",
            "shift=1.0,-1.0,-1.0,1.0",
        ]
        assert io.load_toy_spec(path) == ToySpec()


@st.composite
def _partitions(draw, num_classes=st.integers(2, 40)):
    count = draw(num_classes)
    seen = draw(st.sets(st.integers(0, count - 1), min_size=1, max_size=count - 1))
    return LabelPartition(count, tuple(seen))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False)

_TRAIN_CONFIGS = st.builds(
    TrainConfig,
    learning_rate=_NONNEGATIVE,
    momentum=st.floats(0.0, 1.0, exclude_max=True),
    weight_decay=_NONNEGATIVE,
    epochs=st.integers(1, 10**6),
    batch_size=st.integers(1, 10**6),
    mode=st.sampled_from(MODES),
    seed=st.integers(0, 2**64 - 1),
)


@st.composite
def _toy_specs(draw):
    partition = draw(_partitions(st.integers(2, 6)))
    width = draw(st.integers(2, 6))  # the toy's feature width is its means' common width
    mean = st.lists(_FINITE, min_size=width, max_size=width).map(tuple)
    points = st.lists(mean, min_size=partition.num_classes, max_size=partition.num_classes)
    shifts = st.lists(_FINITE, min_size=partition.num_classes, max_size=partition.num_classes)
    return ToySpec(
        class_means=tuple(draw(points)),
        stddev=draw(_NONNEGATIVE),
        shift=tuple(draw(shifts)),
        samples_per_class=draw(st.integers(1, 10**6)),
        fine_tuning=partition.fine_tuning,
    )


def _integral(low, high):
    """Integers in [low, high] as np.int64, np.uint8 or an integral float."""
    return st.one_of(
        st.integers(low, min(high, 2**63 - 1)).map(np.int64),
        st.integers(low, min(high, 255)).map(np.uint8),
        st.integers(low, min(high, 2**53)).map(float),
    )


def _reals(low=None, high=None, exclude_max=False):
    """Finite reals in [low, high] as a float or an np.float32."""
    return st.one_of(
        st.floats(low, high, exclude_max=exclude_max, allow_nan=False, allow_infinity=False),
        st.floats(low, high, exclude_max=exclude_max, allow_nan=False, allow_infinity=False,
                  width=32).map(np.float32),
    )


@st.composite
def _numpy_partitions(draw, num_classes=_integral(2, 40)):
    count = draw(num_classes)
    seen = draw(st.sets(st.integers(0, int(count) - 1), min_size=1, max_size=int(count) - 1))
    return LabelPartition(count, tuple(draw(_integral(c, c)) for c in seen))


@st.composite
def _numpy_toy_specs(draw):
    partition = draw(_numpy_partitions(_integral(2, 6)))
    size = int(partition.num_classes)
    return ToySpec(
        class_means=tuple(draw(st.lists(st.tuples(_reals(), _reals()), min_size=size, max_size=size))),
        stddev=draw(_reals(0.0)),
        shift=tuple(draw(st.lists(_reals(), min_size=size, max_size=size))),
        samples_per_class=draw(_integral(1, 10**6)),
        fine_tuning=partition.fine_tuning,
    )


_NUMPY_SETTINGS = {
    "partition": (_numpy_partitions(), io.save_partition, io.load_partition),
    "train_config": (
        st.builds(
            TrainConfig,
            learning_rate=_reals(0.0),
            momentum=_reals(0.0, 1.0, exclude_max=True),
            weight_decay=_reals(0.0),
            epochs=_integral(1, 10**6),
            batch_size=_integral(1, 10**6),
            mode=st.sampled_from(MODES),
            seed=_integral(0, 2**64 - 1),
        ),
        io.save_train_config,
        io.load_train_config,
    ),
    "toy_spec": (_numpy_toy_specs(), io.save_toy_spec, io.load_toy_spec),
}


def _plain(value) -> bool:
    """Whether ``value`` holds only built-in ints, floats, strings and tuples."""
    if type(value) is tuple:
        return all(map(_plain, value))
    return type(value) in (int, float, str)


_SETTINGS = {
    "partition": (_partitions(), io.save_partition, io.load_partition),
    "train_config": (_TRAIN_CONFIGS, io.save_train_config, io.load_train_config),
    "toy_spec": (_toy_specs(), io.save_toy_spec, io.load_toy_spec),
}


class TestKeyValueFiles:
    """Partition, train-config and toy-spec files share one reader."""

    @pytest.mark.parametrize("kind", sorted(_SETTINGS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_round_trip(self, tmp_path_factory, kind, data):
        objects, save, load = _SETTINGS[kind]
        value = data.draw(objects)
        path = tmp_path_factory.mktemp(kind) / "settings.txt"
        save(value, path)
        assert load(path) == value

    @pytest.mark.parametrize("kind", sorted(_NUMPY_SETTINGS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_numpy_and_integral_float_settings_are_stored_as_plain_numbers(
        self, tmp_path_factory, kind, data
    ):
        objects, save, load = _NUMPY_SETTINGS[kind]
        value = data.draw(objects)
        assert all(_plain(v) for v in dataclasses.astuple(value)), value
        path = tmp_path_factory.mktemp(kind) / "settings.txt"
        save(value, path)
        assert load(path) == value

    @pytest.mark.parametrize(
        "value, save, load",
        [
            (LabelPartition(7, (1, 4, 6)), io.save_partition, io.load_partition),
            (TrainConfig(0.3, momentum=0.5, epochs=4, mode="linear_probe", seed=9),
             io.save_train_config, io.load_train_config),
            (ToySpec(stddev=0.7, samples_per_class=9, fine_tuning=(1, 2)),
             io.save_toy_spec, io.load_toy_spec),
        ],
    )
    def test_key_order_and_blank_lines_are_free(self, tmp_path, value, save, load):
        path = tmp_path / "settings.txt"
        save(value, path)
        reordered = reversed(path.read_text().splitlines())
        path.write_text("\n" + "\n  \n".join(reordered) + "\n\n")
        assert load(path) == value

    @pytest.mark.parametrize(
        "load, text, message",
        [
            (io.load_partition, "num_classes=4\nfine_tuning=0,x\n",
             "malformed value for fine_tuning: '0,x'"),
            (io.load_train_config, "learning_rate=0.1\nbatch_size=many\n",
             "malformed value for batch_size: 'many'"),
            (io.load_toy_spec, "class_means=10,2;10,y\n",
             "malformed value for class_means: '10,2;10,y'"),
            (io.load_partition, "classes=3\nfine_tuning=1\n", "unknown keys ['classes']"),
            (io.load_model, "[meta]\nactivaton=rectified\n[hidden_map]\n1\n[head]\n1\n1\n",
             "unknown keys ['activaton']"),
            (io.load_partition, "fine_tuning=1\n", "num_classes is required"),
            (io.load_train_config, "learning_rate=0.1\nmode=bogus\n",
             "mode must be one of ('full', 'frozen_classifier', 'linear_probe'), got 'bogus'"),
            (io.load_partition, "num_classes=4\nfine_tuning=0,0\n",
             "fine_tuning contains duplicate class indices"),
            (io.load_toy_spec, "stddev=-1\n", "stddev must be finite and >= 0, got -1.0"),
        ],
    )
    def test_error_messages_name_the_key(self, tmp_path, load, text, message):
        path = tmp_path / "settings.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            load(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "load, text, line, key",
        [
            (io.load_partition, "num_classes=4\nfine_tuning=0\nfine_tuning=1\n", 3,
             "fine_tuning"),
            (io.load_train_config, "learning_rate=0.1\nepochs=2\n\nlearning_rate=0.2\n", 4,
             "learning_rate"),
            (io.load_toy_spec, "stddev=0.1\nstddev=0.3\n", 2, "stddev"),
            (io.load_model,
             "[meta]\nactivation=linear\nactivation=rectified\n[hidden_map]\n1\n[head]\n1\n1\n",
             3, "activation"),
        ],
    )
    def test_repeated_key_names_its_line(self, tmp_path, load, text, line, key):
        path = tmp_path / "settings.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            load(path)
        assert str(info.value) == f"{path}:{line}: duplicate key {key!r}"

    def test_format_report_spells_values_as_the_reader_splits_them(self):
        pairs = {"n": 3, "ids": (0, 2), "points": ((1.0, 0.5), (2.0, -3.0)), "x": np.float64(0.1)}
        assert io.format_report(pairs) == "n=3\nids=0,2\npoints=1.0,0.5;2.0,-3.0\nx=0.1\n"

    def test_history_rows_use_the_matrix_number_format(self, tmp_path):
        path = tmp_path / "history.csv"
        io.save_history([EpochRecord(1, 0.1, 0.5), EpochRecord(2, 1e-20, 1.0)], path)
        assert path.read_text() == (
            "epoch,loss,accuracy\n1,0.10000000000000001,0.5\n2,9.9999999999999995e-21,1\n"
        )


@pytest.mark.parametrize(
    "load",
    [io.load_matrix, io.load_labels, io.load_partition, io.load_model,
     io.load_train_config, io.load_toy_spec],
)
def test_non_utf8_file_is_a_parse_error_naming_it(tmp_path, load):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"1\n\xff\n")
    with pytest.raises(ParseError) as info:
        load(path)
    assert str(info.value) == f"{path}: not a UTF-8 text file"


class TestWriteText:
    """Every file goes through ``io.write_text``: whole or not at all."""

    @pytest.mark.parametrize("failure", [RuntimeError, KeyboardInterrupt])
    def test_failed_write_keeps_old_file_and_leaves_no_temporary(
        self, tmp_path, monkeypatch, failure
    ):
        path = tmp_path / "m.csv"
        io.save_matrix(np.eye(2), path)
        before = path.read_bytes()
        csv_lines = io._csv_lines

        def failing_lines(matrix):
            for number, line in enumerate(csv_lines(matrix), 1):
                if number == 2:
                    raise failure("interrupted mid-write")
                yield line

        monkeypatch.setattr(io, "_csv_lines", failing_lines)
        with pytest.raises(failure):
            io.save_matrix(np.arange(2000.0).reshape(1000, 2), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv"]

    def test_symlinked_target_is_updated_through_the_link(self, tmp_path):
        target = tmp_path / "real.txt"
        link = tmp_path / "link.txt"
        io.write_report({"a": 1}, target)
        link.symlink_to(target)
        io.write_report({"a": 2}, link)
        assert link.is_symlink()
        assert target.read_text() == "a=2\n"

    def test_non_regular_target_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        io.write_report({"a": 1}, fifo)
        reader.join(timeout=10)
        assert received == ["a=1\n"]
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    def test_writes_every_chunk_of_a_generator(self, tmp_path):
        path = tmp_path / "t.txt"
        io.write_text(path, (f"{i}\n" for i in range(3)))
        assert path.read_text() == "0\n1\n2\n"

    def test_missing_directory_names_the_requested_path(self, tmp_path):
        path = tmp_path / "missing" / "m.csv"
        with pytest.raises(FileNotFoundError) as info:
            io.save_matrix(np.eye(2), path)
        assert info.value.filename == str(path)


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def fixture_dir(tmp_path):
    """Small hand-built logits/labels/partition files."""
    logits = np.array([[3.0, 0.0, 0.5], [1.0, 0.0, 0.5], [0.2, 2.0, 0.1], [0.0, 0.1, 4.0]])
    labels = [0, 2, 1, 2]
    io.save_matrix(logits, tmp_path / "logits.csv")
    io.save_labels(labels, tmp_path / "labels.csv")
    io.save_partition(LabelPartition(3, (0, 1)), tmp_path / "partition.txt")
    return tmp_path


class TestCli:
    def test_metrics_default_gamma_matches_explicit_zero(self, fixture_dir, capsys):
        args = [
            "metrics",
            "--logits", str(fixture_dir / "logits.csv"),
            "--labels", str(fixture_dir / "labels.csv"),
            "--partition", str(fixture_dir / "partition.txt"),
        ]
        assert run_cli(*args) == 0
        default_out = capsys.readouterr().out
        assert run_cli(*args, "--gamma", "0") == 0
        assert capsys.readouterr().out == default_out
        assert "acc_y_y=" in default_out

    def test_ausuc_with_curve_export(self, fixture_dir, capsys):
        curve_path = fixture_dir / "curve.csv"
        code = run_cli(
            "ausuc",
            "--logits", str(fixture_dir / "logits.csv"),
            "--labels", str(fixture_dir / "labels.csv"),
            "--partition", str(fixture_dir / "partition.txt"),
            "--curve-out", str(curve_path),
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("ausuc=")
        lines = curve_path.read_text().strip().split("\n")
        assert lines[0] == "gamma_threshold,acc_s_y,acc_u_y"
        assert lines[1].startswith("-inf,")

    def test_calibrate_writes_labels(self, fixture_dir):
        out = fixture_dir / "pred.csv"
        code = run_cli(
            "calibrate",
            "--logits", str(fixture_dir / "logits.csv"),
            "--labels", str(fixture_dir / "labels.csv"),
            "--partition", str(fixture_dir / "partition.txt"),
            "--gamma", "10",
            "--out", str(out),
        )
        assert code == 0
        assert io.load_labels(out).tolist() == [2, 2, 2, 2]

    def test_gamma_star_and_alg_reports(self, fixture_dir, capsys):
        code = run_cli(
            "gamma-star",
            "--logits", str(fixture_dir / "logits.csv"),
            "--labels", str(fixture_dir / "labels.csv"),
            "--partition", str(fixture_dir / "partition.txt"),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "method=STAR" in out and "gamma=" in out

        train_logits = np.array([[5.0, 1.0, 0.2], [1.4, 7.0, 1.0]])
        io.save_matrix(train_logits, fixture_dir / "train_logits.csv")
        io.save_labels([0, 1], fixture_dir / "train_labels.csv")
        report = fixture_dir / "alg.txt"
        code = run_cli(
            "alg",
            "--train-logits", str(fixture_dir / "train_logits.csv"),
            "--train-labels", str(fixture_dir / "train_labels.csv"),
            "--partition", str(fixture_dir / "partition.txt"),
            "--out", str(report),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "method=ALG" in out
        assert "gamma=0.6" in out
        assert report.read_text() == out

    def test_gamma_star_report_matches_metrics_and_calibrate(self, tmp_path, capsys):
        # Quantised, non-dyadic logits give ulp-close flip values; absent
        # classes 0 and 2 sit below and between the seen ones.
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 5, size=200)
        io.save_matrix(rng.integers(-24, 25, size=(200, 5)) / 16.0 * 1e-3, tmp_path / "l.csv")
        io.save_labels(labels, tmp_path / "y.csv")
        io.save_partition(LabelPartition(5, (1, 3, 4)), tmp_path / "p.txt")
        files = ["--logits", str(tmp_path / "l.csv"), "--labels", str(tmp_path / "y.csv"),
                 "--partition", str(tmp_path / "p.txt")]

        def report(*argv):
            assert run_cli(*argv) == 0
            return dict(line.split("=", 1) for line in capsys.readouterr().out.split())

        star = report("gamma-star", *files)
        metrics = report("metrics", *files, "--gamma", star["gamma"])
        for key in ("acc_y_y", "acc_s_y", "acc_u_y"):
            assert metrics[key] == star[key]
        out = tmp_path / "pred.csv"
        assert run_cli("calibrate", *files, "--gamma", star["gamma"], "--out", str(out)) == 0
        hit = io.load_labels(out) == labels
        assert repr(float(hit.mean())) == star["acc_y_y"]

    def test_usage_error_exit_code(self, capsys):
        assert run_cli("metrics") == 1
        assert run_cli("no-such-command") == 1
        capsys.readouterr()

    def test_missing_input_file_exit_code(self, fixture_dir, capsys):
        code = run_cli(
            "metrics",
            "--logits", str(fixture_dir / "does_not_exist.csv"),
            "--labels", str(fixture_dir / "labels.csv"),
            "--partition", str(fixture_dir / "partition.txt"),
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_validation_error_exit_code(self, fixture_dir, capsys):
        bad = fixture_dir / "bad_labels.csv"
        io.save_labels([0, 2, 1], bad)  # wrong row count
        code = run_cli(
            "metrics",
            "--logits", str(fixture_dir / "logits.csv"),
            "--labels", str(bad),
            "--partition", str(fixture_dir / "partition.txt"),
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_split_random_and_greedy(self, tmp_path, capsys):
        out = tmp_path / "partition.txt"
        assert run_cli("split", "--mode", "random", "--num-classes", "6", "--k", "3",
                       "--seed", "4", "--out", str(out)) == 0
        loaded = io.load_partition(out)
        assert loaded.num_classes == 6 and len(loaded.fine_tuning) == 3
        capsys.readouterr()

        means = tmp_path / "means.csv"
        io.save_matrix(np.array([[0.0], [1.0], [10.0], [11.0]]), means)
        assert run_cli("split", "--mode", "greedy", "--num-classes", "4", "--k", "2",
                       "--class-means", str(means), "--out", str(out)) == 0
        assert io.load_partition(out).fine_tuning == (0, 1)
        capsys.readouterr()

    def test_split_prints_the_partition_file_it_writes(self, tmp_path, capsys):
        out = tmp_path / "p.txt"
        assert run_cli("split", "--mode", "random", "--num-classes", "10", "--k", "4",
                       "--seed", "3", "--out", str(out)) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_greedy_split_requires_means(self, tmp_path, capsys):
        out = tmp_path / "p.txt"
        assert run_cli("split", "--mode", "greedy", "--num-classes", "4", "--k", "2",
                       "--out", str(out)) == 2
        capsys.readouterr()

    def test_cka_subcommand(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(5, 3))
        io.save_matrix(a, tmp_path / "a.csv")
        io.save_matrix(a, tmp_path / "b.csv")
        assert run_cli("cka", "--weights-a", str(tmp_path / "a.csv"),
                       "--weights-b", str(tmp_path / "b.csv")) == 0
        out = capsys.readouterr().out
        assert out.startswith("cka=")
        assert abs(float(out.strip().split("=")[1]) - 1.0) < 1e-9

    def test_cka_rows_are_taken_in_the_order_given(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(5, 4))
        io.save_matrix(a, tmp_path / "a.csv")
        io.save_matrix(b, tmp_path / "b.csv")
        assert run_cli("cka", "--weights-a", str(tmp_path / "a.csv"),
                       "--weights-b", str(tmp_path / "b.csv"), "--rows", "3,2") == 0
        expected = io.format_report({"cka": linear_cka(a[[3, 2]], b[[3, 2]])})
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("", "error: --rows must be comma-separated integers, got ''\n"),
            ("1,x", "error: --rows must be comma-separated integers, got '1,x'\n"),
            ("0,5", "error: --rows: class index 5 is outside [0, 5)\n"),
            ("2,2,3", "error: --rows contains duplicate class indices\n"),
        ],
    )
    def test_cka_rows_faults_exit_2(self, tmp_path, capsys, rows, message):
        io.save_matrix(np.eye(5, 3), tmp_path / "a.csv")
        assert run_cli("cka", "--weights-a", str(tmp_path / "a.csv"),
                       "--weights-b", str(tmp_path / "a.csv"), "--rows", rows) == 2
        assert capsys.readouterr().err == message

    def test_label_beyond_int64_exits_2_naming_the_line(self, fixture_dir, capsys):
        labels = fixture_dir / "labels.csv"
        labels.write_text("0\n2\n99999999999999999999\n2\n")
        code = run_cli(
            "metrics",
            "--logits", str(fixture_dir / "logits.csv"),
            "--labels", str(labels),
            "--partition", str(fixture_dir / "partition.txt"),
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {labels}:3: labels must be below 2**63\n"

    def test_gradcheck_passes(self, capsys):
        assert run_cli("gradcheck", "--cases", "10", "--seed", "1") == 0
        assert "max_relative_error=" in capsys.readouterr().out

    @pytest.mark.parametrize("cases", ["0", "-5"])
    def test_gradcheck_without_cases_exits_2(self, cases, capsys):
        assert run_cli("gradcheck", "--cases", cases) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: num_cases must be a positive integer")

    @pytest.mark.parametrize("bad_input", ["logits", "labels"])
    def test_non_utf8_input_exits_2_naming_the_file(self, fixture_dir, capsys, bad_input):
        bad = fixture_dir / "bad.csv"
        bad.write_bytes(b"1,2\n3,\xff4\n" if bad_input == "logits" else b"0\n\xff\n")
        paths = {"logits": fixture_dir / "logits.csv", "labels": fixture_dir / "labels.csv"}
        paths[bad_input] = bad
        code = run_cli(
            "metrics",
            "--logits", str(paths["logits"]),
            "--labels", str(paths["labels"]),
            "--partition", str(fixture_dir / "partition.txt"),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    def test_ncm_subcommand(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        means = np.array([[0.0, 5.0], [5.0, 0.0], [5.0, 5.0]])
        rows, labels = [], []
        for c in range(3):
            rows.append(means[c] + 0.05 * rng.standard_normal((10, 2)))
            labels.append(np.full(10, c))
        io.save_matrix(np.vstack(rows), tmp_path / "mean_f.csv")
        io.save_labels(np.concatenate(labels), tmp_path / "mean_l.csv")
        io.save_matrix(np.vstack(rows), tmp_path / "eval_f.csv")
        io.save_labels(np.concatenate(labels), tmp_path / "eval_l.csv")
        io.save_partition(LabelPartition(3, (0, 1)), tmp_path / "partition.txt")
        assert run_cli(
            "ncm",
            "--mean-features", str(tmp_path / "mean_f.csv"),
            "--mean-labels", str(tmp_path / "mean_l.csv"),
            "--eval-features", str(tmp_path / "eval_f.csv"),
            "--eval-labels", str(tmp_path / "eval_l.csv"),
            "--partition", str(tmp_path / "partition.txt"),
        ) == 0
        out = capsys.readouterr().out
        assert "acc_y_y=1.0" in out and "acc_u_u=1.0" in out

        assert run_cli(
            "ncm",
            "--mean-features", str(tmp_path / "mean_f.csv"),
            "--mean-labels", str(tmp_path / "mean_l.csv"),
            "--eval-features", str(tmp_path / "eval_f.csv"),
            "--eval-labels", str(tmp_path / "eval_l.csv"),
            "--partition", str(tmp_path / "partition.txt"),
            "--restrict", "U",
        ) == 0
        assert "acc_u_u=1.0" in capsys.readouterr().out

    ncm_files = staticmethod(write_ncm_files)

    def test_ncm_report_is_metrics_on_ncm_logits(self, tmp_path, capsys):
        assert run_cli(*self.ncm_files(tmp_path)) == 0
        ncm_out = capsys.readouterr().out
        features = {n: io.load_matrix(tmp_path / f"{n}_f.csv") for n in ("mean", "eval")}
        labels = {n: io.load_labels(tmp_path / f"{n}_l.csv") for n in ("mean", "eval")}
        means = class_means(LabeledFeatures(features["mean"], labels["mean"]), range(5))
        scores = ncm_logits(LabeledFeatures(features["eval"], labels["eval"]), means)
        io.save_matrix(scores.values, tmp_path / "scores.csv")
        assert run_cli(
            "metrics",
            "--logits", str(tmp_path / "scores.csv"),
            "--labels", str(tmp_path / "eval_l.csv"),
            "--partition", str(tmp_path / "partition.txt"),
        ) == 0
        assert capsys.readouterr().out == ncm_out
        assert "acc_y_y=1.0" not in ncm_out

    def test_ncm_rejects_labels_outside_the_partition(self, tmp_path, capsys):
        eval_labels = np.arange(100) % 5
        eval_labels[:3] = 7
        assert run_cli(*self.ncm_files(tmp_path, eval_labels)) == 2
        assert "labels must lie in [0, 5)" in capsys.readouterr().err

    @pytest.mark.parametrize("restrict", ["Y", "S", "U"])
    def test_ncm_refuses_a_label_at_the_class_count(self, tmp_path, capsys, restrict):
        # the message a logits container gives; the report builds none
        eval_labels = np.arange(100) % 5
        eval_labels[-1] = 5
        assert run_cli(*self.ncm_files(tmp_path, eval_labels), "--restrict", restrict) == 2
        assert capsys.readouterr() == ("", "error: labels must lie in [0, 5)\n")

    @pytest.mark.parametrize("restrict", ["Y", "S", "U"])
    def test_ncm_needs_an_absent_labeled_eval_row(self, tmp_path, capsys, restrict):
        eval_labels = np.arange(100) % 5
        eval_labels[~np.isin(eval_labels, (1, 2))] = 1  # classes 1 and 2 are the seen ones
        assert run_cli(*self.ncm_files(tmp_path, eval_labels), "--restrict", restrict) == 2
        assert capsys.readouterr() == ("", "error: no samples labeled in group U\n")

    @pytest.mark.parametrize("restrict", ["Y", "S", "U"])
    @pytest.mark.parametrize("bad_label_row", [2, 60])
    def test_ncm_names_a_zero_eval_row_before_a_label_fault(self, tmp_path, capsys, restrict, bad_label_row):
        args = self.ncm_files(tmp_path)
        values = io.load_matrix(tmp_path / "eval_f.csv")
        values[[40, 70]] = 0.0
        io.save_matrix(values, tmp_path / "eval_f.csv")
        assert run_cli(*args, "--restrict", restrict) == 2
        assert capsys.readouterr() == ("", "error: feature row 40 has zero norm\n")
        labels = np.arange(100) % 5
        labels[bad_label_row] = 9
        io.save_labels(labels, tmp_path / "eval_l.csv")
        assert run_cli(*args, "--restrict", restrict) == 2
        assert capsys.readouterr() == ("", "error: feature row 40 has zero norm\n")

    def test_train_subcommand(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        io.save_matrix(rng.normal(size=(30, 2)), tmp_path / "f.csv")
        io.save_labels(rng.choice([0, 1], 30), tmp_path / "l.csv")
        io.save_partition(LabelPartition(3, (0, 1)), tmp_path / "partition.txt")
        io.save_model(MlpModel(np.eye(2), LinearHead(np.zeros((3, 2)))), tmp_path / "in.csv")
        io.save_train_config(TrainConfig(0.05, epochs=3, batch_size=8, seed=0), tmp_path / "cfg.txt")
        history = tmp_path / "hist.csv"
        code = run_cli(
            "train",
            "--features", str(tmp_path / "f.csv"),
            "--labels", str(tmp_path / "l.csv"),
            "--model-in", str(tmp_path / "in.csv"),
            "--model-out", str(tmp_path / "out.csv"),
            "--partition", str(tmp_path / "partition.txt"),
            "--config", str(tmp_path / "cfg.txt"),
            "--mode", "linear-probe",
            "--history-out", str(history),
        )
        assert code == 0
        trained = io.load_model(tmp_path / "out.csv")
        np.testing.assert_array_equal(trained.hidden_map, np.eye(2))
        assert history.read_text().startswith("epoch,loss,accuracy")
        capsys.readouterr()

    def test_delta_w_and_diagnose(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        pre = rng.normal(size=(4, 3))
        ft = pre + rng.normal(size=(4, 3))
        io.save_matrix(pre, tmp_path / "pre.csv")
        io.save_matrix(ft, tmp_path / "ft.csv")
        io.save_partition(LabelPartition(4, (0, 1)), tmp_path / "partition.txt")
        sim = tmp_path / "sim.csv"
        assert run_cli("delta-w", "--pre", str(tmp_path / "pre.csv"),
                       "--ft", str(tmp_path / "ft.csv"),
                       "--partition", str(tmp_path / "partition.txt"),
                       "--group", "U", "--out", str(sim)) == 0
        out = capsys.readouterr().out
        assert "mean_offdiag=" in out and "subset=2,3" in out
        assert io.load_matrix(sim).shape == (2, 2)

        logits = rng.normal(size=(10, 4))
        labels = np.concatenate([rng.choice([0, 1], 5), rng.choice([2, 3], 5)])
        io.save_matrix(logits, tmp_path / "logits.csv")
        io.save_labels(labels, tmp_path / "labels.csv")
        assert run_cli("diagnose", "--logits", str(tmp_path / "logits.csv"),
                       "--labels", str(tmp_path / "labels.csv"),
                       "--partition", str(tmp_path / "partition.txt"),
                       "--head", str(tmp_path / "ft.csv")) == 0
        out = capsys.readouterr().out
        for key in (
            "mean_seen_weight_norm",
            "mean_absent_weight_norm",
            "mean_nongt_seen_logit",
            "absent_binary_prob",
            "mean_gt_logit_absent",
        ):
            assert f"{key}=" in out

    @pytest.mark.parametrize("group", ["S", "U"])
    def test_delta_w_refuses_a_partition_of_another_class_count(self, tmp_path, capsys, group):
        io.save_matrix(np.ones((4, 2)), tmp_path / "pre.csv")
        io.save_matrix(np.arange(1.0, 9.0).reshape(4, 2), tmp_path / "ft.csv")
        io.save_partition(LabelPartition(6, (0, 1)), tmp_path / "p6.txt")
        code = run_cli("delta-w", "--pre", str(tmp_path / "pre.csv"), "--ft", str(tmp_path / "ft.csv"),
                       "--partition", str(tmp_path / "p6.txt"), "--group", group)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "head has 4 classes but the partition has 6" in captured.err

    @pytest.mark.parametrize("num_classes", [4, 7])
    def test_ncm_refuses_a_partition_of_another_class_count(self, tmp_path, capsys, num_classes):
        args = self.ncm_files(tmp_path)  # mean labels 0..4
        io.save_partition(LabelPartition(num_classes, (1, 2)), tmp_path / "partition.txt")
        code = run_cli(*args)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"mean data has 5 classes but the partition has {num_classes}" in captured.err

    def test_train_refuses_a_partition_of_another_class_count(self, tmp_path, capsys):
        io.save_matrix(np.ones((4, 2)), tmp_path / "f.csv")
        io.save_labels([0, 1, 0, 1], tmp_path / "l.csv")
        io.save_partition(LabelPartition(6, (0, 1)), tmp_path / "p6.txt")
        io.save_model(MlpModel(np.eye(2), LinearHead(np.ones((4, 2)))), tmp_path / "in.csv")
        io.save_train_config(TrainConfig(0.05, epochs=1, batch_size=2, seed=0), tmp_path / "cfg.txt")
        out = tmp_path / "out.csv"
        code = run_cli("train", "--features", str(tmp_path / "f.csv"), "--labels", str(tmp_path / "l.csv"),
                       "--model-in", str(tmp_path / "in.csv"), "--model-out", str(out),
                       "--partition", str(tmp_path / "p6.txt"), "--config", str(tmp_path / "cfg.txt"),
                       "--mode", "full")
        assert code == 2 and not out.exists()
        assert "model has 4 classes but the partition has 6" in capsys.readouterr().err

    def test_greedy_split_refuses_class_means_of_another_count(self, tmp_path, capsys):
        io.save_matrix(np.array([[0.0], [1.0], [10.0], [11.0]]), tmp_path / "means.csv")
        out = tmp_path / "p.txt"
        code = run_cli("split", "--mode", "greedy", "--num-classes", "5", "--k", "2",
                       "--class-means", str(tmp_path / "means.csv"), "--out", str(out))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not out.exists()
        assert captured.err == "error: --num-classes is 5 but --class-means has 4 rows\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_training_failure_exits_3(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        io.save_matrix(rng.normal(size=(30, 2)), tmp_path / "f.csv")
        io.save_labels(rng.choice([0, 1], 30), tmp_path / "l.csv")
        io.save_partition(LabelPartition(3, (0, 1)), tmp_path / "partition.txt")
        io.save_model(MlpModel(np.eye(2), LinearHead(np.ones((3, 2)))), tmp_path / "in.csv")
        io.save_train_config(TrainConfig(1e300, epochs=2, batch_size=8, seed=0), tmp_path / "cfg.txt")
        out = tmp_path / "out.csv"
        code = run_cli("train", "--features", str(tmp_path / "f.csv"), "--labels", str(tmp_path / "l.csv"),
                       "--model-in", str(tmp_path / "in.csv"), "--model-out", str(out),
                       "--partition", str(tmp_path / "partition.txt"),
                       "--config", str(tmp_path / "cfg.txt"), "--mode", "full")
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "" and not out.exists()
        assert re.fullmatch(r"training failure: non-finite loss at epoch \d+\n", captured.err)

    def test_toy_smoke(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        io.save_toy_spec(ToySpec(samples_per_class=25), spec)
        outdir = tmp_path / "toy"
        assert run_cli("toy", "--outdir", str(outdir), "--seed", "3", "--spec", str(spec)) == 0
        assert (outdir / "report.txt").exists()
        assert (outdir / "partition.txt").exists()
        capsys.readouterr()

    def test_toy_seed_overrides_the_config_seed(self, tmp_path, capsys):
        spec, config = tmp_path / "spec.txt", tmp_path / "config.txt"
        io.save_toy_spec(ToySpec(samples_per_class=25), spec)
        io.save_train_config(TrainConfig(0.01, epochs=5, seed=7), config)
        outdir = tmp_path / "toy"
        assert run_cli("toy", "--outdir", str(outdir), "--spec", str(spec),
                       "--config", str(config), "--seed", "3") == 0
        used = io.load_train_config(outdir / "train_config.txt")
        assert used == TrainConfig(0.01, epochs=5, seed=3)
        capsys.readouterr()

    def test_out_of_memory_exits_3_with_a_message(self, fixture_dir, monkeypatch, capsys):
        def exhausted(args):
            raise MemoryError()

        monkeypatch.setattr(cli, "_cmd_metrics", exhausted)
        code = run_cli(
            "metrics",
            "--logits", str(fixture_dir / "logits.csv"),
            "--labels", str(fixture_dir / "labels.csv"),
            "--partition", str(fixture_dir / "partition.txt"),
        )
        assert code == 3
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_report_and_curve_files_leave_no_temporary(self, fixture_dir, capsys):
        logit_args = [
            "--logits", str(fixture_dir / "logits.csv"),
            "--labels", str(fixture_dir / "labels.csv"),
            "--partition", str(fixture_dir / "partition.txt"),
        ]
        assert run_cli("ausuc", *logit_args, "--curve-out", str(fixture_dir / "c.csv")) == 0
        assert run_cli("gamma-star", *logit_args, "--out", str(fixture_dir / "g.txt")) == 0
        assert run_cli("calibrate", *logit_args, "--gamma", "1", "--out",
                       str(fixture_dir / "p.csv")) == 0
        assert (fixture_dir / "g.txt").read_text() in capsys.readouterr().out
        assert not list(fixture_dir.glob("*.tmp"))


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout on this platform")
class TestOutToOwnStdout:
    """A file written to ``/dev/stdout`` with stdout redirected lands where the
    stream stands: ``alg`` prints its report and then writes it, ``ausuc``
    writes its curve and then prints its report, and nothing the stream held
    is lost or overwritten."""

    @pytest.fixture(params=["alg", "ausuc"])
    def case(self, request, fixture_dir):
        """The command and the text it leaves on stdout, in order."""
        if request.param == "alg":
            io.save_matrix(np.array([[5.0, 1.0, 0.2], [1.4, 7.0, 1.0]]), fixture_dir / "tl.csv")
            io.save_labels([0, 1], fixture_dir / "tlab.csv")
            logits = LabeledLogits(io.load_matrix(fixture_dir / "tl.csv"), [0, 1])
            partition = io.load_partition(fixture_dir / "partition.txt")
            report = io.format_report(estimate_gamma_alg(logits, partition).as_dict())
            return [
                "alg",
                "--train-logits", str(fixture_dir / "tl.csv"),
                "--train-labels", str(fixture_dir / "tlab.csv"),
                "--partition", str(fixture_dir / "partition.txt"),
                "--out", "/dev/stdout",
            ], 2 * report
        logits = LabeledLogits(io.load_matrix(fixture_dir / "logits.csv"), [0, 2, 1, 2])
        curve = seen_unseen_curve(logits, io.load_partition(fixture_dir / "partition.txt"))
        return [
            "ausuc",
            "--logits", str(fixture_dir / "logits.csv"),
            "--labels", str(fixture_dir / "labels.csv"),
            "--partition", str(fixture_dir / "partition.txt"),
            "--curve-out", "/dev/stdout",
        ], io.format_curve_csv(curve) + io.format_report({"ausuc": ausuc(curve)})

    @staticmethod
    def run(args, stdout):
        src = os.path.dirname(os.path.dirname(ftcal.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        command = [sys.executable, "-m", "ftcal.cli", *args]
        return subprocess.run(command, stdout=stdout, env=env, timeout=120, check=True)

    def test_appending_redirect_keeps_the_earlier_line(self, fixture_dir, case):
        args, expected = case
        log = fixture_dir / "log.txt"
        log.write_text("previous line\n")
        with open(log, "a") as handle:
            self.run(args, handle)
        assert log.read_text() == "previous line\n" + expected

    def test_truncating_redirect_holds_the_output_in_order(self, fixture_dir, case):
        args, expected = case
        log = fixture_dir / "log.txt"
        log.write_text("previous line\n")
        with open(log, "w") as handle:
            self.run(args, handle)
        assert log.read_text() == expected

    def test_pipe_receives_the_output_in_order(self, case):
        args, expected = case
        assert self.run(args, subprocess.PIPE).stdout.decode() == expected


class TestParseCache:
    """The CLI reads a matrix file of at least ``io._PARALLEL_CHARS`` bytes
    through a cache of ``.npy`` entries named by the digest of its bytes.
    Here that size is 1 byte, so every regular file is cached."""

    @pytest.fixture(autouse=True)
    def parses(self, monkeypatch):
        """The paths ``io.load_matrix`` parses, in order."""
        monkeypatch.setattr(io, "_PARALLEL_CHARS", 1)
        parsed, load_matrix = [], io.load_matrix

        def counted(path, expected_shape=None):
            parsed.append(os.path.basename(path))
            return load_matrix(path, expected_shape)

        monkeypatch.setattr(io, "load_matrix", counted)
        return parsed

    @pytest.fixture()
    def files(self, tmp_path):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(40, 5)) * 3.0
        logits[0, :2] = -0.0, 5e-324
        io.save_matrix(logits, tmp_path / "logits.csv")
        io.save_labels(rng.integers(0, 5, 40), tmp_path / "labels.csv")
        io.save_labels(rng.choice([1, 3], 40), tmp_path / "seen_labels.csv")
        io.save_partition(LabelPartition(5, (1, 3)), tmp_path / "partition.txt")
        io.save_matrix(rng.normal(size=(5, 3)), tmp_path / "head.csv")
        return tmp_path

    @staticmethod
    def entries() -> list:
        directory = os.path.join(os.environ["XDG_CACHE_HOME"], "ftcal", "matrix-v1")
        return sorted(os.listdir(directory)) if os.path.isdir(directory) else []

    @staticmethod
    def entry(path) -> str:
        digest = hashlib.blake2b(path.read_bytes(), digest_size=32).hexdigest()
        return os.path.join(os.environ["XDG_CACHE_HOME"], "ftcal", "matrix-v1", f"{digest}.npy")

    @staticmethod
    def logit_args(files, logits="logits.csv"):
        return ["--logits", str(files / logits), "--labels", str(files / "labels.csv"),
                "--partition", str(files / "partition.txt")]

    @staticmethod
    def run(capsys, *argv):
        code = run_cli(*argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize(
        "command, extra, matrices",
        [
            ("metrics", [], ["logits.csv"]),
            ("ausuc", ["--curve-out", "{out}"], ["logits.csv"]),
            ("gamma-star", ["--out", "{out}"], ["logits.csv"]),
            ("calibrate", ["--gamma", "0.5", "--out", "{out}"], ["logits.csv"]),
            ("alg", ["--out", "{out}"], ["logits.csv"]),
            ("diagnose", ["--head", "{head}"], ["logits.csv", "head.csv"]),
        ],
    )
    def test_a_warm_run_parses_nothing_and_prints_and_writes_the_same_bytes(
        self, files, capsys, parses, command, extra, matrices
    ):
        inputs = self.logit_args(files)
        if command == "alg":
            inputs = ["--train-logits", str(files / "logits.csv"), "--train-labels",
                      str(files / "seen_labels.csv"), "--partition", str(files / "partition.txt")]
        runs = []
        for run in ("cold", "warm"):
            out = files / f"{run}.out"
            result = self.run(capsys, command, *inputs,
                              *(arg.format(out=out, head=files / "head.csv") for arg in extra))
            runs.append((result, out.read_bytes() if out.exists() else None))
        assert runs[0] == runs[1] and runs[0][0][0] == 0
        assert (runs[0][1] is None) == (command in ("metrics", "diagnose"))
        assert parses == matrices  # every parse was the cold run's
        assert self.entries() == sorted(os.path.basename(self.entry(files / m)) for m in matrices)

    def test_a_hit_holds_every_bit_the_parse_gave(self, tmp_path, parses):
        matrix = np.array([[np.nan, -np.nan, np.inf], [-0.0, 5e-324, 0.1], [1e308, -1.0, 1 / 3]])
        path = tmp_path / "m.csv"
        io.save_matrix(matrix, path)
        cold, warm = io._cached_matrix(str(path)), io._cached_matrix(str(path))
        assert cold.tobytes() == warm.tobytes() == io.load_matrix(path).tobytes()
        assert parses == ["m.csv", "m.csv"]  # the cold run and the reference
        assert warm.dtype == np.float64 and warm.flags.c_contiguous and warm.flags.writeable

    def test_the_cache_directory_is_the_owners_alone(self, tmp_path):
        io.save_matrix(np.eye(2), tmp_path / "m.csv")
        io._cached_matrix(str(tmp_path / "m.csv"))
        directory = os.path.dirname(self.entry(tmp_path / "m.csv"))
        assert stat.S_IMODE(os.stat(directory).st_mode) == 0o700

    @pytest.mark.parametrize(
        "distrust",
        [
            lambda directory, monkeypatch: os.chmod(directory, 0o770),
            lambda directory, monkeypatch: os.chmod(directory, 0o777),
            lambda directory, monkeypatch: monkeypatch.setattr(os, "getuid", lambda: -1),
            lambda directory, monkeypatch: (os.rename(directory, f"{directory}-real"),
                                            os.symlink(f"{directory}-real", directory)),
        ],
        ids=["group-writable", "world-writable", "another-owner", "symlink"],
    )
    def test_a_directory_others_could_write_to_is_not_used(
        self, files, capsys, parses, monkeypatch, distrust
    ):
        args = ["metrics", *self.logit_args(files)]
        cold = self.run(capsys, *args)
        entry = self.entry(files / "logits.csv")
        np.save(entry, np.zeros((40, 5)))  # a planted entry, served while the directory is sound
        planted = self.run(capsys, *args)
        assert planted != cold and parses == ["logits.csv"]
        distrust(os.path.dirname(entry), monkeypatch)
        assert self.run(capsys, *args) == cold and cold[0] == 0
        assert parses == ["logits.csv"] * 2
        assert np.load(entry).tobytes() == np.zeros((40, 5)).tobytes()  # nor written to

    def test_a_fifo_at_an_entry_is_a_miss_and_is_replaced(self, tmp_path, parses):
        path = tmp_path / "m.csv"
        io.save_matrix(np.eye(3), path)
        entry = self.entry(path)
        os.makedirs(os.path.dirname(entry), mode=0o700)
        os.mkfifo(entry)
        loads = []
        reader = threading.Thread(target=lambda: loads.append(io._cached_matrix(str(path))),
                                  daemon=True)
        reader.start()
        reader.join(timeout=30)
        assert not reader.is_alive(), "the read waited on the FIFO"
        assert loads[0].tobytes() == np.eye(3).tobytes() and parses == ["m.csv"]
        assert stat.S_ISREG(os.lstat(entry).st_mode)
        assert io._cached_matrix(str(path)).tobytes() == np.eye(3).tobytes()
        assert parses == ["m.csv"]

    @staticmethod
    def write_entry(entry, shape, matrix):
        """An entry whose header declares ``shape`` and whose data is ``matrix``'s."""
        with open(entry, "wb") as handle:
            header = {"descr": "<f8", "fortran_order": False, "shape": shape}
            np.lib.format.write_array_header_1_0(handle, header)
            handle.write(matrix.tobytes())

    @pytest.mark.parametrize(
        "damage",
        [
            lambda entry, matrix: os.truncate(entry, os.path.getsize(entry) - 8),
            lambda entry, matrix: np.save(entry, matrix.ravel()),
            lambda entry, matrix: np.save(entry, matrix.astype(np.float32)),
            lambda entry, matrix: np.save(entry, matrix.astype(object), allow_pickle=True),
            lambda entry, matrix: np.save(entry, np.asfortranarray(matrix)),
            lambda entry, matrix: open(entry, "wb").close(),
            lambda entry, matrix: TestParseCache.write_entry(entry, (2**30, 2**20), matrix),
        ],
        ids=["truncated", "1-d", "float32", "object", "fortran-order", "empty", "8-PiB-header"],
    )
    def test_a_damaged_entry_is_a_miss_with_the_same_result(self, files, capsys, parses, damage):
        args = ["metrics", *self.logit_args(files)]
        cold = self.run(capsys, *args)
        entry = self.entry(files / "logits.csv")
        damage(entry, io.load_matrix(files / "logits.csv"))
        assert self.run(capsys, *args) == cold and cold[0] == 0
        assert parses == ["logits.csv"] * 3  # cold, the damage's reference and the miss
        assert self.run(capsys, *args) == cold  # the miss stored a sound entry again
        assert len(parses) == 3

    def test_a_bad_field_exits_2_on_every_run_and_stores_nothing(self, files, capsys, parses):
        (files / "bad.csv").write_text("1,2,3,4,5\n6,7,8,9,10\n1,x,3,4,5\n")
        runs = [self.run(capsys, "metrics", *self.logit_args(files, "bad.csv")) for _ in range(2)]
        message = f"error: {files / 'bad.csv'}:3: not a comma-separated list of reals\n"
        assert runs == [(2, "", message)] * 2
        assert parses == ["bad.csv"] * 2 and self.entries() == []

    def test_a_file_changed_between_digest_and_parse_is_not_kept(
        self, files, capsys, parses, monkeypatch
    ):
        load_matrix = io.load_matrix

        def rewritten_first(path, expected_shape=None):
            io.save_matrix(np.ones((40, 5)), path)
            return load_matrix(path, expected_shape)

        monkeypatch.setattr(io, "load_matrix", rewritten_first)
        code, out, _ = self.run(capsys, "metrics", *self.logit_args(files))
        assert code == 0 and "acc_y_y=" in out
        assert parses == ["logits.csv"] and self.entries() == []

    def test_a_pipe_and_a_file_below_the_threshold_store_nothing(
        self, files, capsys, parses, monkeypatch
    ):
        args = ["metrics", *self.logit_args(files)]
        fifo = files / "pipe.csv"
        os.mkfifo(fifo)
        text = (files / "logits.csv").read_bytes()
        writer = threading.Thread(target=fifo.write_bytes, args=(text,), daemon=True)
        writer.start()
        piped = self.run(capsys, "metrics", *self.logit_args(files, "pipe.csv"))
        writer.join(timeout=10)
        monkeypatch.setattr(io, "_PARALLEL_CHARS", len(text) + 1)
        assert self.run(capsys, *args) == piped and piped[0] == 0
        assert parses == ["pipe.csv", "logits.csv"] and self.entries() == []

    def test_an_unwritable_cache_changes_no_output(self, files, capsys, parses, monkeypatch):
        blocker = files / "not_a_directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        runs = [self.run(capsys, "metrics", *self.logit_args(files)) for _ in range(2)]
        assert runs[0] == runs[1] and runs[0][0] == 0 and runs[0][2] == ""
        assert parses == ["logits.csv"] * 2

    @pytest.mark.parametrize(
        "fault", [None, OSError, ImportError], ids=["no-directory", "unreadable", "no-blake2b"]
    )
    def test_a_file_is_digested_only_with_the_directory_open(
        self, files, capsys, parses, monkeypatch, fault
    ):
        # with no usable directory nothing is digested; a digest that fails
        # parses, and the directory's descriptor is closed on every path
        args = ["metrics", *self.logit_args(files)]
        cold = self.run(capsys, *args)
        directory = os.stat(os.path.dirname(self.entry(files / "logits.csv")))
        opened, digested, open_cache = [], [], io._open_cache

        def opening():
            if fault is None:
                return None
            opened.append(open_cache())
            return opened[-1]

        def digest(path):
            digested.append(path)
            raise fault("no digest")

        def names_the_directory(fd):
            try:
                return os.path.samestat(os.fstat(fd), directory)
            except OSError:  # closed
                return False

        monkeypatch.setattr(io, "_open_cache", opening)
        monkeypatch.setattr(io, "_file_digest", digest)
        assert self.run(capsys, *args) == cold and cold[0] == 0
        assert parses == ["logits.csv"] * 2 and len(digested) == len(opened) == (fault is not None)
        assert not any(map(names_the_directory, opened))

    def test_the_least_recently_used_entries_go_first(self, tmp_path, parses, monkeypatch):
        paths = {name: tmp_path / f"{name}.csv" for name in "abc"}
        for number, path in enumerate(paths.values()):
            io.save_matrix(np.full((4, 25), float(number)), path)
        entry_bytes = 128 + 4 * 25 * 8
        monkeypatch.setattr(io, "_CACHE_BYTES", 2 * entry_bytes + 100)
        for age, name in ((200, "a"), (100, "b")):
            io._cached_matrix(str(paths[name]))
            past = os.stat(self.entry(paths[name])).st_mtime_ns - age * 10**9
            os.utime(self.entry(paths[name]), ns=(past, past))
        io._cached_matrix(str(paths["a"]))  # a hit: a is now the most recently used
        io._cached_matrix(str(paths["c"]))
        assert parses == ["a.csv", "b.csv", "c.csv"]
        kept = sorted(os.path.basename(self.entry(paths[name])) for name in "ac")
        assert self.entries() == kept
        directory = os.path.dirname(self.entry(paths["a"]))
        assert sum(os.path.getsize(os.path.join(directory, e)) for e in kept) <= io._CACHE_BYTES

    def test_a_matrix_larger_than_the_cache_is_not_kept(self, tmp_path, parses, monkeypatch):
        io.save_matrix(np.eye(4), tmp_path / "m.csv")
        monkeypatch.setattr(io, "_CACHE_BYTES", 4 * 4 * 8)
        monkeypatch.setattr(np, "save", None)  # not even written and removed
        io._cached_matrix(str(tmp_path / "m.csv"))
        assert parses == ["m.csv"] and self.entries() == []

    def test_concurrent_runs_keep_one_sound_entry(self, tmp_path):
        # three CLI processes parse and store the same 4 MB file at once
        rng = np.random.default_rng(4)
        logits = tmp_path / "logits.csv"
        io.save_matrix(rng.normal(size=(2_500, 100)) * 3.0, logits)
        assert logits.stat().st_size >= 1 << 22  # the size from which the CLI caches
        io.save_labels(rng.integers(0, 100, 2_500), tmp_path / "labels.csv")
        io.save_partition(LabelPartition(100, tuple(range(0, 100, 2))), tmp_path / "p.txt")
        src = os.path.dirname(os.path.dirname(ftcal.__file__))
        command = [sys.executable, "-m", "ftcal.cli", "metrics", "--logits", str(logits),
                   "--labels", str(tmp_path / "labels.csv"), "--partition", str(tmp_path / "p.txt")]
        env = {**os.environ, "PYTHONPATH": src}
        runs = [subprocess.Popen(command, stdout=subprocess.PIPE, env=env) for _ in range(3)]
        outputs = [run.communicate(timeout=120)[0] for run in runs]
        assert [run.returncode for run in runs] == [0, 0, 0]
        assert outputs[1:] == outputs[:2]
        assert self.entries() == [os.path.basename(self.entry(logits))]
        assert np.load(self.entry(logits)).tobytes() == io.load_matrix(logits).tobytes()
