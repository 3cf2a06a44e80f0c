"""CSV matrix loading: ``io.load_matrix`` reads a file or pipe once, batch by
batch, and must accept exactly the files, give exactly the bits and raise
exactly the errors of the whole-file line-by-line loader kept below as the
reference."""

import contextlib
import os
import signal
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ftcal import LabeledLogits, LabelPartition, ParseError, ShapeError, absent_binary_prob
from ftcal import data, io

# ------------------------------------------------ line-by-line reference


def ref_read_lines(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read().splitlines()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not a UTF-8 text file") from None


def ref_parse_rows(path, numbered_lines, empty):
    rows = []
    width = None
    for number, line in numbered_lines:
        text = line.strip()
        if not text:
            raise ParseError(f"{path}:{number}: blank line inside matrix")
        try:
            row = [float(field) for field in text.split(",")]
        except ValueError:
            raise ParseError(f"{path}:{number}: not a comma-separated list of reals") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"{path}:{number}: expected {width} columns, found {len(row)}")
        rows.append(row)
    if not rows:
        raise ParseError(f"{path}: {empty}")
    return np.array(rows, dtype=np.float64)


def ref_load_matrix(path, expected_shape=None):
    lines = ref_read_lines(path)
    declared = None
    start = 0
    if lines and lines[0].lstrip().startswith("#shape"):
        parts = lines[0].split()
        if len(parts) != 3:
            raise ParseError(f"{path}:1: malformed shape header {lines[0]!r}")
        try:
            declared = (int(parts[1]), int(parts[2]))
        except ValueError as exc:
            raise ParseError(f"{path}:1: malformed shape header {lines[0]!r}") from exc
        start = 1

    matrix = ref_parse_rows(path, enumerate(lines[start:], start + 1), "empty matrix file")
    if declared is not None and matrix.shape != declared:
        raise ShapeError(f"{path}: header declares {declared}, content is {matrix.shape}")
    if expected_shape is not None and matrix.shape != tuple(expected_shape):
        raise ShapeError(f"{path}: expected shape {tuple(expected_shape)}, got {matrix.shape}")
    return matrix


def outcome(load, *args):
    """("ok", shape, raw bits) of a loaded matrix, or (exception type, message)."""
    try:
        matrix = load(*args)
    except Exception as exc:  # noqa: BLE001 - the type and message are the result
        return type(exc), str(exc)
    assert matrix.dtype == np.float64
    return "ok", matrix.shape, matrix.tobytes()


def no_child_process():
    """Whether this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def assert_same_as_reference(path, expected_shape=None):
    got = outcome(io.load_matrix, path, expected_shape)
    assert got == outcome(ref_load_matrix, path, expected_shape)
    return got


# ------------------------------------------------ edge files

EDGES = {
    # line structure
    "blank line inside": b"1,2\n\n3,4\n",
    "whitespace-only line": b"1,2\n \t \n3,4\n",
    "no-break-space line": "1,2\n\u00a0\n3,4\n".encode(),
    "blank last line": b"1,2\n3,4\n\n",
    "whitespace last line without newline": b"1,2\n3,4\n  ",
    "crlf": b"#shape 2 2\r\n1,2\r\n3,4\r\n",
    "lone cr": b"1,2\r3,4\r",
    "mixed endings": b"1,2\r\n3,4\r5,6\n",
    "no final newline": b"1,2\n3,4",
    "hash line in body": b"1,2\n# note\n3,4\n",
    "header only": b"#shape 2 2\n",
    "empty file": b"",
    "newline only": b"\n",
    "indented header": b"  #shape 2 2\n1,2\n3,4\n",
    # characters
    "underscore digits": b"1_0,2\n3,4\n",
    "arabic-indic digits": "\u0661\u0662,2\n3,4\n".encode(),
    "form feed inside": b"1,2\x0c3,4\n",
    "form feed at end": b"1,2\x0c\n3,4\n",
    "vertical tab inside": b"1,2\x0b3,4\n",
    "unit separator inside": b"1\x1f,2\n3,4\n",
    "unit separator at end": b"1,2\x1f\n3,4\n",
    "file separator inside": b"1,2\x1c3,4\n",
    "line separator inside": "1,2\u20283,4\n".encode(),
    "line separator at end": "1,2\u2028\n3,4\n".encode(),
    "next line inside": "1,2\x853,4\n".encode(),
    "separator in header": b"#shape 2 2\x1c1,2\n3,4\n",
    "no-break-space padding": "\u00a01,2\u3000\n3,4\n".encode(),
    "bom": b"\xef\xbb\xbf1,2\n3,4\n",
    "bom before header": b"\xef\xbb\xbf#shape 1 2\n1,2\n",
    "nul byte": b"1,2\x00\n3,4\n",
    "invalid utf-8": b"1,2\n3,\xff4\n",
    "invalid utf-8 after a malformed header": b"#shape 2\n" + b"1,2\n" * 5000 + b"\xff\n",
    "nan and inf": b"nan,-nan,NaN\ninf,-inf,-Infinity\n",
    "overflow and subnormal": b"1e400,-1e400,4.9e-324\n",
    # fields and shape
    "trailing comma": b"1,2,\n3,4,\n",
    "empty field": b"1,,2\n",
    "ragged rows": b"1,2\n3,4,5\n",
    "quoted fields": b'"1","2"\n3,4\n',
    "hex field": b"0x1,2\n",
    "padded fields": b" 1 , 2 \n\t3,4\t\n",
    "one row": b"1,2,3\n",
    "one column": b"1\n2\n3\n",
    "one cell": b"5",
    "header": b"#shape 2 2\n1,2\n3,4\n",
    "header with trailing spaces": b"#shape 2 2   \n1,2\n3,4\n",
    "malformed header": b"#shape 2\n1,2\n",
    "non-integer header": b"#shape a b\n1,2\n",
    "mismatched header": b"#shape 3 2\n1,2\n3,4\n",
    "malformed header over a bad row": b"#shape 2\n1,x\n",
    "header over a bad row": b"#shape 3 2\n1,2\n3,x\n5,6\n",
    "header over a ragged row": b"#shape 3 2\n1,2\n3,4,5\n5,6\n",
    "header over a blank row": b"#shape 3 2\n1,2\n\n5,6\n",
}


@pytest.fixture(params=[1, io._BATCH_CHARS], ids=["line-batches", "default-batches"])
def batch_chars(request, monkeypatch):
    monkeypatch.setattr(io, "_BATCH_CHARS", request.param)
    return request.param


@pytest.fixture
def forked(monkeypatch):
    """Fan out to two forked workers whatever the text's size and the
    host's CPUs; the list it returns gains an entry for each pool started.
    No worker may outlive the test."""
    monkeypatch.setattr(io, "_PARALLEL_CHARS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert io._fork_workers() == 2, "the pool needs the main thread alone and fork"
    started = []
    forked_map = io._forked_map

    def spy(function, tasks, workers):
        started.append(workers)
        return forked_map(function, tasks, workers)

    monkeypatch.setattr(io, "_forked_map", spy)
    yield started
    assert no_child_process()


class TestEdgeFiles:
    @pytest.mark.parametrize("name", list(EDGES))
    def test_matches_the_line_by_line_loader(self, name, tmp_path, batch_chars):
        path = tmp_path / "m.csv"
        path.write_bytes(EDGES[name])
        assert_same_as_reference(path)

    def test_accepted_edges_keep_their_values(self, tmp_path):
        expected = {
            "crlf": [[1.0, 2.0], [3.0, 4.0]],
            "lone cr": [[1.0, 2.0], [3.0, 4.0]],
            "underscore digits": [[10.0, 2.0], [3.0, 4.0]],
            "arabic-indic digits": [[12.0, 2.0], [3.0, 4.0]],
            "form feed inside": [[1.0, 2.0], [3.0, 4.0]],
            "one column": [[1.0], [2.0], [3.0]],
            "one cell": [[5.0]],
        }
        for name, values in expected.items():
            path = tmp_path / "m.csv"
            path.write_bytes(EDGES[name])
            np.testing.assert_array_equal(io.load_matrix(path), values)

    def test_negative_nan_keeps_its_sign_bit(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(EDGES["nan and inf"])
        signs = np.signbit(io.load_matrix(path)[0])
        assert signs.tolist() == [False, True, False]

    def test_error_messages_name_the_line(self, tmp_path):
        cases = {
            "blank line inside": ":2: blank line inside matrix",
            "whitespace last line without newline": ":3: blank line inside matrix",
            "ragged rows": ":2: expected 2 columns, found 3",
            "trailing comma": ":1: not a comma-separated list of reals",
            "header only": ": empty matrix file",
        }
        for name, message in cases.items():
            path = tmp_path / "m.csv"
            path.write_bytes(EDGES[name])
            with pytest.raises(ParseError) as info:
                io.load_matrix(path)
            assert str(info.value) == f"{path}{message}"

    def test_expected_shape(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(EDGES["header"])
        assert assert_same_as_reference(path, (2, 2))[0] == "ok"
        assert assert_same_as_reference(path, (3, 2))[0] is ShapeError

    @pytest.mark.parametrize("missing", ["absent.csv", "."])
    def test_missing_file_or_directory(self, tmp_path, missing):
        assert assert_same_as_reference(tmp_path / missing)[0] is ParseError

    def test_a_pipe_is_read_once(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        loaded = []
        loader = threading.Thread(target=lambda: loaded.append(io.load_matrix(fifo)), daemon=True)
        loader.start()
        fifo.write_bytes(b"1_0,2\n3,4\n")
        loader.join(timeout=10)
        if loader.is_alive():  # waiting to open the pipe a second time: release it
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            loader.join(timeout=10)
        assert len(loaded) == 1
        np.testing.assert_array_equal(loaded[0], [[10.0, 2.0], [3.0, 4.0]])


class TestOnePass:
    def test_a_plain_file_is_never_read_by_the_line_parser(self, tmp_path, monkeypatch):
        path = tmp_path / "m.csv"
        io.save_matrix(np.arange(12.0).reshape(4, 3), path)

        def refuse(*args):
            raise AssertionError("fell back to the line parser")

        monkeypatch.setattr(io, "_parse_rows", refuse)
        np.testing.assert_array_equal(io.load_matrix(path), np.arange(12.0).reshape(4, 3))

    def test_a_clean_pipe_is_never_read_by_the_line_parser(self, tmp_path, monkeypatch):
        source = tmp_path / "m.csv"
        matrix = np.arange(600.0).reshape(200, 3) / 7.0
        io.save_matrix(matrix, source)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)

        def refuse(*args):
            raise AssertionError("fell back to the line parser")

        monkeypatch.setattr(io, "_parse_rows", refuse)
        monkeypatch.setattr(io, "_BATCH_CHARS", 512)  # several batches
        loaded = []
        loader = threading.Thread(
            target=lambda: loaded.append(outcome(io.load_matrix, fifo)), daemon=True
        )
        loader.start()
        fifo.write_bytes(source.read_bytes())
        loader.join(timeout=10)
        assert loaded == [("ok", matrix.shape, matrix.tobytes())]

    def test_peak_memory_stays_near_the_matrix(self, tmp_path):
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(20_000, 50)) * 3.0
        path = tmp_path / "m.csv"
        np.savetxt(path, matrix, fmt="%.17g", delimiter=",", header="shape 20000 50", comments="#")
        tracemalloc.start()
        try:
            loaded = io.load_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded, matrix)
        assert peak < 2 * matrix.nbytes, f"peak {peak} B for a {matrix.nbytes} B matrix"

    def test_a_fault_in_the_last_row_is_found_in_bounded_memory(self, tmp_path):
        rng = np.random.default_rng(6)
        matrix = rng.normal(size=(20_000, 50))
        path = tmp_path / "m.csv"
        np.savetxt(path, matrix, fmt="%.17g", delimiter=",", header="shape 20001 50", comments="#")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(",".join(["1.5"] * 49 + ["x"]) + "\n")
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as info:
                io.load_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == f"{path}:20002: not a comma-separated list of reals"
        assert peak < 2 * matrix.nbytes, f"peak {peak} B for a {matrix.nbytes} B matrix"


# ------------------------------------------------ later batches


class TestLaterBatches:
    """A file of many batches: a fault in a later batch is named by its line,
    a field only ``float()`` reads is read there, and any line ending
    splits it as the reference does."""

    @pytest.fixture(autouse=True)
    def small_batches(self, monkeypatch):
        monkeypatch.setattr(io, "_BATCH_CHARS", 256)  # about 4 lines a batch

    @staticmethod
    def lines(rows=240):
        matrix = np.random.default_rng(11).normal(size=(rows, 4)) * 3.0
        return [",".join("%.17g" % value for value in row).encode() for row in matrix]

    @staticmethod
    def write(path, lines, ending=b"\n"):
        path.write_bytes(ending.join(lines) + ending)
        return path

    @pytest.mark.parametrize("fault, message", [
        (b"1,x,3,4", "not a comma-separated list of reals"),
        (b"1,2,3", "expected 4 columns, found 3"),
        (b"", "blank line inside matrix"),
        (b" \t ", "blank line inside matrix"),
    ], ids=["bad field", "ragged row", "blank line", "whitespace line"])
    def test_a_fault_in_a_later_batch_names_its_line(self, tmp_path, fault, message):
        lines = self.lines()
        lines[149] = fault
        path = self.write(tmp_path / "m.csv", lines)
        assert assert_same_as_reference(path) == (ParseError, f"{path}:150: {message}")

    def test_an_underscore_field_in_a_later_batch_is_read(self, tmp_path):
        lines = self.lines()
        lines[149] = b"1_0," + lines[149].split(b",", 1)[1]
        got = assert_same_as_reference(self.write(tmp_path / "m.csv", lines))
        assert got[0] == "ok" and np.frombuffer(got[2]).reshape(got[1])[149, 0] == 10.0

    def test_a_row_fault_is_outranked_by_a_decoding_fault_in_the_last_batch(self, tmp_path):
        lines = self.lines()
        lines[5] = b"1,x,3,4"
        lines[-1] += b"\xff"
        path = self.write(tmp_path / "m.csv", lines)
        assert assert_same_as_reference(path) == (ParseError, f"{path}: not a UTF-8 text file")

    @pytest.mark.parametrize("fault", [False, True], ids=["clean", "bad field"])
    @pytest.mark.parametrize("endings", [[b"\r\n"], [b"\r", b"\n"]], ids=["crlf", "cr and lf"])
    def test_other_line_endings(self, tmp_path, endings, fault):
        lines = self.lines()
        if fault:
            lines[150] = b"1,x,3,4"
        path = tmp_path / "m.csv"
        path.write_bytes(b"".join(line + endings[number % len(endings)] for number, line in enumerate(lines)))
        assert assert_same_as_reference(path)[0] == (ParseError if fault else "ok")

    @pytest.mark.parametrize("declared", [233, 247])
    def test_a_header_that_miscounts_the_rows(self, tmp_path, declared):
        path = self.write(tmp_path / "m.csv", [b"#shape %d 4" % declared] + self.lines())
        assert assert_same_as_reference(path) == (
            ShapeError, f"{path}: header declares ({declared}, 4), content is (240, 4)"
        )


class TestLargeFilesInProcess:
    """A file of at least ``_PARALLEL_CHARS`` bytes on two CPUs is parsed in
    this process, as the reference parses it."""

    @pytest.mark.parametrize("fault", [False, True], ids=["underscore field", "bad last row"])
    def test_a_large_file_starts_no_process(self, tmp_path, monkeypatch, fault):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

        def refuse():
            raise AssertionError("forked a worker to load")

        monkeypatch.setattr(os, "fork", refuse)
        matrix = np.random.default_rng(12).normal(size=(12_000, 20)) * 3.0
        lines = [",".join("%.17g" % value for value in row) for row in matrix]
        lines[5_000] = "1_0," + lines[5_000].split(",", 1)[1]  # past the first batch
        if fault:
            lines[-1] = "x," + lines[-1].split(",", 1)[1]
        path = tmp_path / "m.csv"
        path.write_text("#shape 12000 20\n" + "\n".join(lines) + "\n", encoding="utf-8")
        assert path.stat().st_size >= io._PARALLEL_CHARS
        got = assert_same_as_reference(path)
        if fault:
            assert got == (ParseError, f"{path}:12001: not a comma-separated list of reals")
        else:
            assert got[0] == "ok" and np.frombuffer(got[2]).reshape(got[1])[5_000, 0] == 10.0
        assert no_child_process()


# ------------------------------------------------ properties

_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(float),
    st.floats(min_value=0.0, max_value=5e-324 * 2**20),  # subnormals
    st.sampled_from([0.0, -0.0]),
    st.builds(
        lambda mantissa, exponent: mantissa * 10.0**exponent,
        st.floats(min_value=-10.0, max_value=10.0),
        st.integers(min_value=-300, max_value=300),
    ),
)
_SHAPES = st.tuples(st.integers(1, 6), st.integers(1, 6))


@settings(max_examples=150, deadline=None)
@given(matrix=arrays(np.float64, _SHAPES, elements=_FINITE))
def test_save_load_round_trip_is_bitwise(tmp_path_factory, matrix):
    path = tmp_path_factory.mktemp("round") / "m.csv"
    io.save_matrix(matrix, path)
    loaded = io.load_matrix(path)
    assert loaded.shape == matrix.shape
    assert loaded.tobytes() == matrix.tobytes()


_FORMATS = [
    repr,
    lambda value: "%.6e" % value,
    lambda value: repr(value) if np.signbit(value) else f"+{value!r}",
    lambda value: f"  {value!r}",
    lambda value: f"{value!r}\t ",
]


@settings(max_examples=150, deadline=None)
@given(
    matrix=arrays(np.float64, _SHAPES, elements=_FINITE),
    choices=st.lists(st.integers(0, len(_FORMATS) - 1), min_size=36, max_size=36),
    header=st.booleans(),
    batch=st.integers(1, 64),
)
def test_formatted_fields_match_the_reference(tmp_path_factory, matrix, choices, header, batch):
    picks = iter(choices)
    lines = [",".join(_FORMATS[next(picks)](float(v)) for v in row) for row in matrix]
    if header:
        lines.insert(0, f"#shape {matrix.shape[0]} {matrix.shape[1]}")
    path = tmp_path_factory.mktemp("formatted") / "m.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io, "_BATCH_CHARS", batch)
        assert assert_same_as_reference(path)[0] == "ok"


# ------------------------------------------------ forked workers


class TestForkedWorkers:
    """Formatting fanned out to forked workers gives the bytes and the
    faults of the same work done in-process, and leaves no process. A load
    starts no worker even where a save of its size would."""

    def _big(self, tmp_path):
        matrix = np.random.default_rng(8).normal(size=(300, 40)) * 3.0
        path = tmp_path / "m.csv"
        io.save_matrix(matrix, path)
        return matrix, path

    @pytest.mark.parametrize("name", list(EDGES))
    def test_edge_files_match_the_line_by_line_loader(self, name, tmp_path, batch_chars, forked):
        TestEdgeFiles().test_matches_the_line_by_line_loader(name, tmp_path, batch_chars)
        assert forked == []

    def test_a_fault_in_the_last_row_is_found_in_bounded_memory(self, tmp_path, forked):
        TestOnePass().test_a_fault_in_the_last_row_is_found_in_bounded_memory(tmp_path)
        assert forked == []

    def test_save_is_byte_identical(self, tmp_path, monkeypatch, forked):
        matrix, path = self._big(tmp_path)
        monkeypatch.setattr(io, "_BATCH_CHARS", 1024)  # many tasks
        io.save_matrix(matrix, tmp_path / "forked.csv")
        assert forked
        assert (tmp_path / "forked.csv").read_bytes() == path.read_bytes()
        assert no_child_process()

    def test_save_tasks_are_row_offsets(self, tmp_path, monkeypatch, forked):
        # each worker formats rows of the matrix it inherited: no array is sent
        spy, tasks = io._forked_map, []

        def seen(function, given, workers):
            return spy(function, (tasks.append(task) or task for task in given), workers)

        monkeypatch.setattr(io, "_forked_map", seen)
        monkeypatch.setattr(io, "_BATCH_CHARS", 1024)  # many tasks
        self._big(tmp_path)
        assert forked == [2] and len(tasks) > 2
        assert all(len(task) == 2 and {type(value) for value in task} == {int} for task in tasks)

    def test_a_failed_save_leaves_no_file(self, tmp_path, monkeypatch, forked):
        matrix, _ = self._big(tmp_path)
        monkeypatch.setattr(io, "_BATCH_CHARS", 1024)

        def fail(block):  # the workers are forked with this in place
            raise ValueError("format fault")

        monkeypatch.setattr(io, "_csv_lines", fail)
        with pytest.raises(ValueError, match="format fault"):
            io.save_matrix(matrix, tmp_path / "out.csv")
        assert forked
        assert sorted(os.listdir(tmp_path)) == ["m.csv"]
        assert no_child_process()

    @pytest.mark.parametrize("fault", ["clean", "row", "decoding"])
    def test_loads_leave_no_worker(self, tmp_path, monkeypatch, forked, fault):
        matrix, path = self._big(tmp_path)
        forked.clear()  # the pool that wrote the matrix
        monkeypatch.setattr(io, "_BATCH_CHARS", 512)
        text = path.read_bytes()
        tail = {"clean": b"", "row": b"1,x\n" + text[-2000:], "decoding": b"\xff\n"}[fault]
        path.write_bytes(text + tail)
        got = assert_same_as_reference(path)
        assert forked == []
        assert got[0] == ("ok" if fault == "clean" else ParseError)
        assert no_child_process()

    def test_a_row_fault_is_outranked_by_a_later_decoding_fault(
        self, tmp_path, monkeypatch, forked
    ):
        _, path = self._big(tmp_path)
        forked.clear()  # the pool that wrote the matrix
        monkeypatch.setattr(io, "_BATCH_CHARS", 512)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[5] = b"1,x\n"
        path.write_bytes(b"".join(lines) + b"\xff\n")
        assert assert_same_as_reference(path)[1] == f"{path}: not a UTF-8 text file"
        assert forked == []

    def test_an_interrupt_shuts_the_workers_down(self, tmp_path, monkeypatch, forked):
        # one row a task: the interrupt comes as this process reads answer
        # 20 of 300, while both workers still have answers to send
        matrix, _ = self._big(tmp_path)
        monkeypatch.setattr(io, "_BATCH_CHARS", 1024)
        load, fork_worker = io.pickle.load, io._fork_worker
        pids, loads = [], []

        def interrupted(file):
            loads.append(file)
            if len(loads) == 20:
                raise KeyboardInterrupt
            return load(file)

        def counted(function, tasks):
            worker = fork_worker(function, tasks)
            pids.append(worker[0])
            return worker

        monkeypatch.setattr(io.pickle, "load", interrupted)
        monkeypatch.setattr(io, "_fork_worker", counted)
        with pytest.raises(KeyboardInterrupt):
            io.save_matrix(matrix, tmp_path / "out.csv")
        assert len(pids) == 2
        assert sorted(os.listdir(tmp_path)) == ["m.csv"]
        assert no_child_process()

    @pytest.mark.parametrize("case", ["clean", "fault", "interrupt", "interrupt, SIGCHLD ignored"])
    def test_no_process_is_signalled(self, case, tmp_path, monkeypatch, capfd, forked):
        # each worker ends by itself, after its share or at its first write
        # once its pipe is closed, so no pid, however reused, is ever hit
        matrix, path = self._big(tmp_path)
        forked.clear()  # the pool that wrote the matrix
        monkeypatch.setattr(io, "_BATCH_CHARS", 1024)  # one row a task

        def refuse(pid, signum):
            raise AssertionError(f"signal {signum} sent to process {pid}")

        monkeypatch.setattr(os, "kill", refuse)
        expected = {"clean": None, "fault": ValueError}.get(case, KeyboardInterrupt)
        if case == "fault":

            def fail(block):  # the workers are forked with this in place
                raise ValueError("format fault")

            monkeypatch.setattr(io, "_csv_lines", fail)
        elif expected is KeyboardInterrupt:
            load, loads = io.pickle.load, []

            def interrupted(file):  # at answer 20 of 300
                loads.append(file)
                if len(loads) == 20:
                    raise KeyboardInterrupt
                return load(file)

            monkeypatch.setattr(io.pickle, "load", interrupted)
        ignored = case.endswith("SIGCHLD ignored")
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN) if ignored else None
        try:
            with pytest.raises(expected) if expected else contextlib.nullcontext():
                io.save_matrix(matrix, tmp_path / "out.csv")
        finally:
            if ignored:
                signal.signal(signal.SIGCHLD, previous)
        assert forked == [2]
        if expected:
            assert sorted(os.listdir(tmp_path)) == ["m.csv"]
        else:
            assert (tmp_path / "out.csv").read_bytes() == path.read_bytes()
        assert no_child_process()
        assert capfd.readouterr().err == ""

    def test_no_task_is_sent_to_a_worker(self, tmp_path, monkeypatch, forked):
        # the workers' own dumps land in their memory, not in this list
        dump, dumped = io.pickle.dump, []

        def spy(*args, **kwargs):
            dumped.append(args[0])
            return dump(*args, **kwargs)

        monkeypatch.setattr(io.pickle, "dump", spy)
        monkeypatch.setattr(io, "_BATCH_CHARS", 1024)  # many tasks
        matrix, path = self._big(tmp_path)
        assert io.load_matrix(path).tobytes() == matrix.tobytes()
        assert forked == [2]
        assert dumped == []

    def test_each_worker_is_forked_with_every_other_task(self, tmp_path, monkeypatch, forked):
        forked_map, fork_worker = io._forked_map, io._fork_worker
        given, shares = [], []

        def listed(function, tasks, workers):
            given.append(list(tasks))
            return forked_map(function, given[-1], workers)

        def counted(function, tasks):
            shares.append(tasks)
            return fork_worker(function, tasks)

        monkeypatch.setattr(io, "_forked_map", listed)
        monkeypatch.setattr(io, "_fork_worker", counted)
        monkeypatch.setattr(io, "_BATCH_CHARS", 1024)  # many tasks
        self._big(tmp_path)
        assert len(given) == 1 and len(given[0]) > 2
        assert shares == [given[0][0::2], given[0][1::2]]

    def test_a_failed_fork_leaks_no_descriptor(self, monkeypatch, forked):
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("no /proc/self/fd to count descriptors in")

        def refuse():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", refuse)
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            list(io._forked_map(abs, [(1,), (2,)], 2))
        assert len(os.listdir("/proc/self/fd")) == before

    def test_workers_ignore_sigint(self, forked):
        assert list(io._forked_map(signal.getsignal, [(signal.SIGINT,)], 2)) == [signal.SIG_IGN]
        assert no_child_process()

    def test_a_worker_that_dies_is_an_error_not_a_hang(self, forked):
        with pytest.raises(ChildProcessError, match="ended early"):
            list(io._forked_map(os._exit, [(0,)], 2))
        assert no_child_process()

    def test_a_process_that_ignores_sigchld_still_saves(self, tmp_path, forked):
        # such a process has its children reaped for it
        matrix, path = self._big(tmp_path)
        forked.clear()  # the pool that wrote the source
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            io.save_matrix(matrix, tmp_path / "again.csv")
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert forked == [2]
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    def test_one_cpu_starts_no_process(self, tmp_path, monkeypatch):
        matrix, path = self._big(tmp_path)
        monkeypatch.setattr(io, "_PARALLEL_CHARS", 1)
        monkeypatch.setattr(io, "_BATCH_CHARS", 512)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

        def refuse():
            raise AssertionError("forked a worker on one CPU")

        monkeypatch.setattr(os, "fork", refuse)
        io.save_matrix(matrix, tmp_path / "again.csv")
        assert io.load_matrix(tmp_path / "again.csv").tobytes() == matrix.tobytes()

    def test_another_thread_keeps_the_work_in_process(self, tmp_path, monkeypatch, forked):
        # a forked worker would inherit the FIFO's write end from the writing
        # thread, and the reader would never see the end of the pipe
        matrix, source = self._big(tmp_path)
        forked.clear()  # the pool that wrote the source
        monkeypatch.setattr(io, "_BATCH_CHARS", 512)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        loaded = []
        loader = threading.Thread(
            target=lambda: loaded.append(outcome(io.load_matrix, fifo)), daemon=True
        )
        loader.start()
        fifo.write_bytes(source.read_bytes())
        loader.join(timeout=10)
        assert not loader.is_alive()
        assert loaded == [("ok", matrix.shape, matrix.tobytes())]
        assert forked == []

    def test_a_second_thread_saves_and_loads_in_process(self, tmp_path, monkeypatch, forked):
        # a regular file, unlike a pipe, is large enough to fork for, so the
        # thread count alone keeps the work here
        matrix, source = self._big(tmp_path)
        forked.clear()  # the pool that wrote the source
        monkeypatch.setattr(io, "_BATCH_CHARS", 512)

        def refuse():
            raise AssertionError("forked while another thread ran")

        monkeypatch.setattr(os, "fork", refuse)
        path = tmp_path / "again.csv"
        loaded = []

        def save_and_load():
            io.save_matrix(matrix, path)
            loaded.append(outcome(io.load_matrix, path))

        worker = threading.Thread(target=save_and_load, daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert path.read_bytes() == source.read_bytes()
        assert loaded == [("ok", matrix.shape, matrix.tobytes())]
        assert forked == [0]  # the save's slices, formatted here

    def test_a_save_after_threaded_ncm_scores_still_forks(self, tmp_path, monkeypatch, forked):
        # the distance kernel joins its threads before it returns or raises
        matrix, path = self._big(tmp_path)
        forked.clear()  # the pool that wrote the matrix
        rows = np.random.default_rng(9).normal(size=(100, 512))  # 50 blocks on two threads
        data._ncm_scores(rows, rows)

        def fail(*block):
            raise ValueError("block fault")

        monkeypatch.setattr(data, "_score_block", fail)
        with pytest.raises(ValueError, match="block fault"):
            data._ncm_scores(rows, rows)
        io.save_matrix(matrix, tmp_path / "again.csv")
        assert forked == [2]
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    def test_a_save_after_threaded_containers_still_forks(self, tmp_path, monkeypatch, forked):
        # the container copy, the statistics kernel and the absent
        # probability join their threads before they return
        matrix, path = self._big(tmp_path)
        forked.clear()  # the pool that wrote the matrix
        monkeypatch.setattr(data, "_BLOCK_BYTES", 8192)  # 10 rows a block: 200 blocks
        rng = np.random.default_rng(10)
        logits = LabeledLogits(rng.normal(size=(2000, 100)), rng.integers(0, 100, size=2000))
        assert len(data._row_blocks(2000, 8 * 100)) >= data._THREAD_BLOCKS
        absent_binary_prob(logits, LabelPartition(100, range(0, 100, 4)))
        assert threading.active_count() == 1
        io.save_matrix(matrix, tmp_path / "again.csv")
        assert forked == [2]
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
