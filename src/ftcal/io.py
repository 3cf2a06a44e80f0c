"""Text file formats: CSV matrices, label lists, partition files, model
containers, training configs, toy specs, seen/absent curves, and key=value
reports.

Matrices and the numbers of a curve serialize with 17 significant
decimal digits, so a write-read round trip reproduces every float64 bit
for bit. All numbers use the period as the decimal separator regardless
of locale. Every file goes through ``write_text``, which replaces a
regular file only once the whole text is written, and appends to the
process's own stdout or stderr, so what a command prints after it
follows the text under ``>`` as well as ``>>``.

Every file is read through one reader, ``_line_batches``: it opens the
file or pipe once and yields its lines in batches of about
``_BATCH_CHARS`` characters. A batch is whole lines, split by
``str.splitlines`` after universal-newline decoding, so any line ending is
read and the batch size never moves a line break.

A matrix field is anything Python's ``float()`` accepts; blank lines are
rejected. ``_parse_batches``, the one matrix parser, parses each batch on
its own, so about one batch is held at a time beside the rows parsed so
far. ``np.loadtxt`` parses lines with no blank line, no ``\x1f``
(whitespace to it, not to ``float()``) and the width of the rows before
them. Any other batch, or one it rejects, goes to the line parser
``_parse_rows``, which sets what is accepted, every value bit and every
error message with its line number. Every file is parsed in the calling
process; the CLI's parse cache makes a large matrix's parse a
once-per-file cost.

A file that is not UTF-8 raises ``ParseError`` naming the file. That
fault outranks any other in the file, wherever it sits: a header, row or
label fault is raised once the rest of the file decodes.

A large matrix is formatted on every CPU of the process's affinity mask,
with every byte as in one process: ``save_matrix`` forks workers with
shares of row offsets of the matrix they inherit. Workers are forked only
while the process runs one thread: a forked child keeps a copy of every
lock and file another thread holds, such as a FIFO's write end, and
nothing in it releases them. A worker ends by itself, after its share or
at its next write once the save closes its pipe, and no process is signalled.

Partition, training-config and toy-spec files are read by one reader,
``_load_fields``, which takes each file's keys, which of them are
required and each value's type from the fields of the dataclass it builds.
It and a model file's ``[meta]`` section parse ``key=value`` lines with
``_parse_kv_lines``, the one place an unknown key is refused.
They are written by ``write_report`` of the dataclass's fields, whose
``format_report`` is the one writer of ``key=value`` text: ``_format_value``
spells each value as ``_parse_value`` reads it back.

The CLI reads every matrix through ``_cached_matrix``, so that a large CSV
is parsed once across runs. A regular file of at least ``_PARALLEL_CHARS``
bytes is looked up by the BLAKE2b digest of its bytes in a directory of
``.npy`` entries, ``ftcal/matrix-v1`` under ``$XDG_CACHE_HOME`` or
``~/.cache``; a miss is ``load_matrix``, whose result is kept there if the
file did not change while it was read. The entries hold at most
``_CACHE_BYTES``, the least recently used going first. Output never
depends on the cache: it is used only where that directory is its user's
alone, an entry that is not a regular file holding a C-order float64
matrix of exactly its file's size is a miss, and a store that fails is
skipped.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import math
import operator
import os
import pickle
import signal
import stat
import sys
import threading
import typing

import numpy as np

from .data import LabelPartition, LinearHead, _cpu_count, _frozen_array, _real_array
from .errors import ParseError, ShapeError, ValidationError
from .metrics import SeenUnseenCurve
from .trainer import EpochRecord, MlpModel, ToySpec, TrainConfig


# characters of text per batch of lines
_BATCH_CHARS = 1 << 16
# characters of text from which formatting fans out to workers, and bytes
# of a file from which the CLI's parse cache keeps its matrix
_PARALLEL_CHARS = 1 << 22
# characters of a typical %.17g field and its comma, to size tasks of rows
_FIELD_CHARS = 20
# bytes the CLI's parse cache entries may hold together
_CACHE_BYTES = 1 << 30


def _csv_lines(matrix: np.ndarray) -> typing.Iterator[str]:
    """The CSV lines of a 2-D real ``matrix``, made one row at a time.

    One ``%.17g`` template per matrix is filled from each row's Python
    numbers, so every CSV number is spelled by this one template."""
    template = ",".join(["%.17g"] * matrix.shape[1]) + "\n"
    return (template % tuple(row.tolist()) for row in matrix)


def format_curve_csv(curve: SeenUnseenCurve) -> str:
    """Curve as CSV: a header, then one row per staircase interval holding
    its left endpoint (``-inf`` for the first interval) and its accuracy
    pair, spelled by ``_csv_lines``."""
    table = np.column_stack([np.concatenate([[-np.inf], curve.thresholds]), curve.points])
    return "".join(itertools.chain(["gamma_threshold,acc_s_y,acc_u_y\n"], _csv_lines(table)))


def _is_std_stream(path) -> int | None:
    """Which of this process's stdout (1) and stderr (2) writes to ``path``; None if neither."""
    try:
        target = os.stat(path)
    except OSError:
        return None
    for fd in (1, 2):
        with contextlib.suppress(OSError):  # a closed stream is no match
            if os.path.samestat(target, os.fstat(fd)):
                return fd
    return None


def write_text(path, chunks) -> None:
    """Stream the strings of ``chunks`` into ``path``, whole or not at all.

    The text goes to a temporary file beside the target (the file a symlink
    points to), which ``os.replace`` moves over it once complete and any
    failure, KeyboardInterrupt included, removes. A target that is this
    process's own stdout or stderr, such as ``/dev/stdout`` redirected to a
    file, is appended to through a duplicate of its descriptor once both
    streams are flushed: the text follows what they wrote and precedes what
    they print next, under ``>`` as under ``>>``. Any other target that
    exists but is not a regular file, such as a FIFO, is written in place.
    """
    own_fd = _is_std_stream(path)
    if own_fd:
        sys.stdout.flush()
        sys.stderr.flush()
    in_place = own_fd or (os.path.exists(path) and not os.path.isfile(path))
    target = path if in_place else os.path.realpath(path)
    scratch = target if in_place else f"{target}.{os.getpid()}.tmp"
    try:
        with open(os.dup(own_fd) if own_fd else scratch, "a" if own_fd else "w",
                  encoding="utf-8", newline="\n") as handle:
            handle.writelines(chunks)  # one write per chunk, never joined
        if not in_place:
            os.replace(scratch, target)
    except BaseException as exc:
        if not in_place:
            if isinstance(exc, OSError) and exc.filename == scratch:
                exc.filename = os.fspath(path)  # name the file the caller asked for
            with contextlib.suppress(OSError):
                os.remove(scratch)
        raise


def _line_batches(path) -> typing.Iterator[list[str]]:
    """The lines of ``path``, read once, as lists of about ``_BATCH_CHARS``
    characters that each end at a line end, so together they hold the lines
    ``str.splitlines`` gives for the whole text."""
    try:
        with open(path, encoding="utf-8") as text:
            for chunk in iter(functools.partial(text.readlines, _BATCH_CHARS), []):
                yield "".join(chunk).splitlines()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not a UTF-8 text file") from None


def _read_lines(path) -> list[str]:
    return list(itertools.chain.from_iterable(_line_batches(path)))


def _fork_workers() -> int:
    """How many forked workers may share a matrix's formatting: one per CPU
    of its affinity mask, or none where that is one CPU, where there is no
    ``fork``, or where the process runs another thread, since a forked
    child keeps a copy of every lock and file that thread holds and no
    thread to release them."""
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return 0
    cpus = _cpu_count()
    return cpus if cpus > 1 else 0


def _fork_worker(function, tasks) -> tuple[int, typing.BinaryIO]:
    """A forked process that pickles ``(True, function(*task))``, or
    ``(False, exception)``, of each of ``tasks`` in turn into a pipe; it ends
    by itself, after the last or at its first write once the pipe is closed.
    Returns its pid and the pipe's read end."""
    answer_out, answer_in = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(answer_out)
        os.close(answer_in)
        raise
    if pid == 0:
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's
            os.close(answer_out)
            with open(answer_in, "wb") as answers:
                for task in tasks:
                    try:
                        answer = (True, function(*task))
                    except Exception as exc:  # noqa: BLE001 - raised again in the parent
                        answer = (False, exc)
                    pickle.dump(answer, answers, pickle.HIGHEST_PROTOCOL)
                    answers.flush()
        finally:
            os._exit(0)  # never the parent's clean-up, stdio flushes or atexit
    os.close(answer_in)
    return pid, open(answer_out, "rb")


def _forked_map(function, tasks, workers: int) -> typing.Iterator:
    """``function(*task)`` of each of ``tasks`` in order, computed here if
    ``workers`` is 0, else by up to ``workers`` forked processes: worker
    ``k`` is forked with its share ``tasks[k::workers]`` and answer ``i`` is
    read from worker ``i % workers``, so no task is ever sent. The workers
    are read from this thread alone. However the iteration ends, their
    pipes are closed, so that each ends by itself within one task, and
    each is reaped; no process is ever signalled."""
    if not workers:
        yield from itertools.starmap(function, tasks)
        return
    tasks, pool = list(tasks), []
    try:
        for worker in range(min(workers, len(tasks))):
            pool.append(_fork_worker(function, tasks[worker::workers]))
        for number in range(len(tasks)):
            pid, answers = pool[number % workers]
            try:
                done, value = pickle.load(answers)
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError(f"worker process {pid} ended early") from None
            if not done:
                raise value
            yield value
    finally:
        # a worker holds the read ends opened before it: writes fail last worker first
        for _, answers in pool:
            answers.close()
        for pid, _ in pool:
            with contextlib.suppress(ChildProcessError):  # reaped already: SIGCHLD ignored
                os.waitpid(pid, 0)


def _csv_text(matrix: np.ndarray, start: int, stop: int) -> str:
    return "".join(_csv_lines(matrix[start:stop]))


def save_matrix(values, path) -> None:
    """Write a 2-D ``data._real_array`` as CSV with a ``#shape`` header line;
    one without a row or a column, which ``load_matrix`` refuses, is refused.

    The rows are formatted in slices of about a batch of text each, by
    forked workers where they fill at least ``_PARALLEL_CHARS``."""
    matrix = _real_array(values, "matrix")
    if matrix.ndim != 2 or 0 in matrix.shape:
        raise ValidationError(f"matrix must be 2-D with a row and a column, got shape {matrix.shape}")
    row_chars = _FIELD_CHARS * matrix.shape[1]
    step = max(1, _BATCH_CHARS // row_chars)
    slices = ((start, start + step) for start in range(0, matrix.shape[0], step))
    workers = _fork_workers() if matrix.shape[0] * row_chars >= _PARALLEL_CHARS else 0
    with contextlib.closing(_forked_map(functools.partial(_csv_text, matrix), slices, workers)) as text:
        write_text(path, itertools.chain([f"#shape {matrix.shape[0]} {matrix.shape[1]}\n"], text))


def _parse_rows(path, numbered_lines, width: int | None = None) -> np.ndarray:
    """Matrix from ``(line number, text)`` pairs of comma-separated reals;
    errors name the line. ``width`` is the column count rows before these
    fixed, if any."""
    rows = []
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
    return np.array(rows, dtype=np.float64)


def _loadtxt(lines: list[str], width: int | None) -> np.ndarray | None:
    """``np.loadtxt``'s matrix of ``lines`` where it reads them as ``float()``
    does, with ``width`` columns unless that is None; else None."""
    # np.loadtxt skips a blank line and reads \x1f as whitespace; float() does neither
    if "" in lines or any(map(str.isspace, lines)) or any("\x1f" in line for line in lines):
        return None
    with contextlib.suppress(ValueError):
        block = np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
        if width in (None, block.shape[1]):
            return block
    return None


def _parse_batches(path, batches, number: int) -> typing.Iterator[np.ndarray]:
    """One matrix per nonempty batch of lines, the first numbered ``number``;
    the first batch fixes the width of every row."""
    width = None
    for lines in filter(None, batches):
        block = _loadtxt(lines, width)
        if block is None:  # a fault to name, or fields only float() reads, such as 1_0
            block = _parse_rows(path, enumerate(lines, number), width)
        number, width = number + len(lines), block.shape[1]
        yield block


@contextlib.contextmanager
def _decoded_first(batches):
    """Raise a ``ValidationError`` of the ``with`` body only once the rest
    of ``batches`` is read: a decoding fault later in the file outranks it."""
    try:
        yield
    except ValidationError:
        for _ in batches:
            pass
        raise


def _shape_header(path, line: str) -> tuple[int, int] | None:
    """The ``(rows, cols)`` a ``#shape`` header line declares, or None where
    ``line`` is not one."""
    if not line.lstrip().startswith("#shape"):
        return None
    parts = line.split()
    if len(parts) != 3:
        raise ParseError(f"{path}:1: malformed shape header {line!r}")
    try:
        return int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ParseError(f"{path}:1: malformed shape header {line!r}") from exc


def _text_size(path) -> int:
    """The bytes of ``path`` if it is a regular file, else 0: the size of a
    pipe's text is unknown until it is read."""
    try:
        status = os.stat(path)
    except OSError:
        return 0
    return status.st_size if stat.S_ISREG(status.st_mode) else 0


def _stack(first: np.ndarray, blocks, declared, size: int) -> tuple[np.ndarray, tuple]:
    """The rows of ``first`` and then of ``blocks`` as one matrix, and the
    shape of all the rows. The rows a ``#shape`` header declares, where a
    file of ``size`` bytes can hold them at two characters a field (a digit
    and a comma or line end), are allocated up front and each block placed
    at its row offset, rows past them only counted; else the buffer grows
    as the rows come."""
    width = first.shape[1]
    rows = -1 if declared is None else declared[0]
    if not 0 <= 2 * width * rows <= size + 1:
        matrix = np.fromiter(
            itertools.chain(first, itertools.chain.from_iterable(blocks)),
            dtype=np.dtype((np.float64, (width,))),
        )
        return matrix, matrix.shape
    matrix = np.empty((rows, width))
    count = 0
    for block in itertools.chain([first], blocks):
        matrix[count : count + len(block)] = block[: max(rows - count, 0)]
        count += len(block)
    return matrix, (count, width)


def load_matrix(path, expected_shape=None) -> np.ndarray:
    """Read a CSV matrix; the optional ``#shape`` header must match the body.

    The file is read once, in batches of lines, in this process, and each
    block of rows is copied into the result as soon as it is parsed, so the
    whole text is never held. A file's header, where the file is big enough
    to hold the rows it declares, sizes the result up front.
    """
    size = _text_size(path)
    with contextlib.closing(_line_batches(path)) as batches, _decoded_first(batches):
        lines = next(batches, [])
        declared = _shape_header(path, lines[0]) if lines else None
        number = 1 if declared is None else 2
        blocks = _parse_batches(path, itertools.chain([lines[number - 1 :]], batches), number)
        first = next(blocks, None)
        if first is None:
            raise ParseError(f"{path}: empty matrix file")
        matrix, shape = _stack(first, blocks, declared, size)
    if declared is not None and shape != declared:
        raise ShapeError(f"{path}: header declares {declared}, content is {shape}")
    if expected_shape is not None and matrix.shape != tuple(expected_shape):
        raise ShapeError(f"{path}: expected shape {tuple(expected_shape)}, got {matrix.shape}")
    return matrix


# what must not change while a file is read for the parse cache
_version = operator.attrgetter("st_size", "st_mtime_ns", "st_ino")


def _open_cache() -> int | None:
    """A descriptor of the parse cache's directory, ``ftcal/matrix-v1``
    under ``$XDG_CACHE_HOME``, or under ``~/.cache`` where that is unset or
    not an absolute path; made with mode 0700 if missing. None unless it is
    a directory, not a symlink, owned by this user and closed to all others:
    every entry is read and written through this descriptor, so no one else
    can plant an entry or swap the directory in between."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    directory = os.path.join(root, "ftcal", "matrix-v1")
    if not os.path.isabs(directory):
        return None
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY | os.O_NOFOLLOW)
    except OSError:
        return None
    status = os.fstat(fd)
    if status.st_uid == os.getuid() and not status.st_mode & 0o077:
        return fd
    os.close(fd)
    return None


def _file_digest(path) -> str:
    """The hex BLAKE2b-256 digest of the bytes of ``path``."""
    # _blake2 is the module behind hashlib.blake2b; importing hashlib maps
    # OpenSSL, which adds 3.5 MB to the resident memory of a CLI run
    from _blake2 import blake2b

    digest = blake2b(digest_size=32)
    with open(path, "rb") as handle:
        for block in iter(functools.partial(handle.read, _BATCH_CHARS), b""):
            digest.update(block)
    return digest.hexdigest()


def _read_entry(cache: int, name: str) -> np.ndarray | None:
    """The matrix of the entry ``name`` of the cache directory ``cache``,
    or None unless it is a regular file (a symlink is not followed, nor a
    FIFO waited on) holding a version 1.0 ``.npy`` C-order float64 matrix
    with a row and a column, of exactly the size its header declares; the
    size is checked before the matrix is allocated. A hit marks the entry
    used."""
    try:
        fd = os.open(name, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK, dir_fd=cache)
        with open(fd, "rb") as handle:
            status = os.fstat(fd)
            if not stat.S_ISREG(status.st_mode) or np.lib.format.read_magic(handle) != (1, 0):
                return None
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(handle)
            count = math.prod(shape)
            if dtype != np.float64 or fortran_order or len(shape) != 2 or not count:
                return None
            if handle.tell() + dtype.itemsize * count != status.st_size:
                return None
            matrix = np.fromfile(handle, dtype, count).reshape(shape)
            with contextlib.suppress(OSError):
                os.utime(fd)
    except (OSError, ValueError, EOFError):
        return None
    return matrix


def _store_entry(cache: int, name: str, matrix: np.ndarray) -> None:
    """Keep ``matrix`` as the entry ``name`` of the cache directory
    ``cache``, unless it would be larger than ``_CACHE_BYTES``: a new
    temporary file, which ``os.replace`` moves over the entry once complete
    and any failure removes. Then remove the least recently used files of
    the cache until they hold at most ``_CACHE_BYTES``. Raises OSError where
    a step fails."""
    if matrix.nbytes >= _CACHE_BYTES:
        return
    scratch = f"{name}.{os.getpid()}.tmp"
    with contextlib.suppress(FileNotFoundError):  # left by a killed run of this pid
        os.unlink(scratch, dir_fd=cache)
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW
    fd = os.open(scratch, flags, 0o600, dir_fd=cache)
    try:
        with open(fd, "wb") as handle:
            np.save(handle, matrix)
        os.replace(scratch, name, src_dir_fd=cache, dst_dir_fd=cache)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(scratch, dir_fd=cache)
        raise
    files = []
    for item in os.scandir(cache):
        with contextlib.suppress(OSError):  # removed by another run meanwhile
            status = item.stat(follow_symlinks=False)
            files.append((status.st_mtime_ns, status.st_size, item.name))
    total = sum(size for _, size, _ in files)
    for _, size, item in sorted(files):
        if total <= _CACHE_BYTES:
            break
        with contextlib.suppress(OSError):
            os.unlink(item, dir_fd=cache)
            total -= size


def _cached_matrix(path) -> np.ndarray:
    """``load_matrix(path)``, as the CLI reads it: once the parse cache is
    open, a regular file of at least ``_PARALLEL_CHARS`` bytes is served from
    the entry of its bytes' digest where that holds a matrix; else it is
    parsed and, if its size, mtime and inode are the same after the parse as
    before the digest, kept there. Any other file, an unreadable one, or a
    run with no cache directory of its user's alone goes to ``load_matrix``."""
    cache = None
    with contextlib.suppress(OSError):
        status = os.stat(path)
        if stat.S_ISREG(status.st_mode) and status.st_size >= _PARALLEL_CHARS:
            cache = _open_cache()
    if cache is None:
        return load_matrix(path)
    try:
        try:
            name = f"{_file_digest(path)}.npy"
        except (OSError, ImportError):  # unreadable, or no BLAKE2b: nothing to look up
            return load_matrix(path)
        matrix = _read_entry(cache, name)
        if matrix is None:
            matrix = load_matrix(path)
            with contextlib.suppress(OSError):
                if _version(os.stat(path)) == _version(status):
                    _store_entry(cache, name, matrix)
        return matrix
    finally:
        os.close(cache)


def save_labels(labels, path) -> None:
    """Write labels one per line, refusing what a container or ``load_labels`` would."""
    arr = _frozen_array(labels, np.int64, "labels", ndim=1)
    if arr.size == 0:
        raise ValidationError("labels must be nonempty")
    if arr.min() < 0:
        raise ValidationError("labels must be nonnegative")
    write_text(path, (f"{value}\n" for value in arr.tolist()))


def _parse_labels(path, lines) -> typing.Iterator[int]:
    """The label of each of ``lines``, numbered from 1; a fault names its line."""
    for number, line in enumerate(lines, 1):
        text = line.strip()
        if not text:
            raise ParseError(f"{path}:{number}: blank line inside labels")
        try:
            value = int(text)
        except ValueError:
            raise ParseError(f"{path}:{number}: not an integer label") from None
        if value < 0:
            raise ParseError(f"{path}:{number}: labels must be nonnegative")
        if value >= 2**63:
            raise ParseError(f"{path}:{number}: labels must be below 2**63")
        yield value


def load_labels(path) -> np.ndarray:
    """Labels one per line, read batch by batch into an int64 array, so
    neither the text nor its lines are held whole."""
    with contextlib.closing(_line_batches(path)) as batches, _decoded_first(batches):
        labels = np.fromiter(_parse_labels(path, itertools.chain.from_iterable(batches)), np.int64)
    if not labels.size:
        raise ParseError(f"{path}: empty labels file")
    return labels


def save_partition(partition: LabelPartition, path) -> None:
    write_report(dataclasses.asdict(partition), path)


def load_partition(path) -> LabelPartition:
    return _load_fields(path, LabelPartition)


def _parse_kv_lines(path, numbered_lines, keys) -> dict:
    """``key=value`` pairs from ``(line number, text)`` pairs, blank lines
    skipped; a line without ``=``, a key given twice or a key not in
    ``keys`` is a fault."""
    pairs = {}
    for number, line in numbered_lines:
        text = line.strip()
        if not text:
            continue
        if "=" not in text:
            raise ParseError(f"{path}:{number}: expected 'key=value'")
        key, _, value = text.partition("=")
        key = key.strip()
        if key in pairs:
            raise ParseError(f"{path}:{number}: duplicate key {key!r}")
        pairs[key] = value.strip()
    unknown = sorted(set(pairs) - set(keys))
    if unknown:
        raise ParseError(f"{path}: unknown keys {unknown}")
    return pairs


def _parse_int(text: str) -> int:
    """``text`` as an ``int``: an integer, whatever its digits, or a real
    number that is one, such as ``2.0``, which ``errors._integer`` takes
    as a count too."""
    try:
        return int(text)
    except ValueError:
        number = float(text)
    if not number.is_integer():
        raise ValueError(f"{text!r} is not an integer")
    return int(number)


def _parse_value(text: str, kind):
    """``text`` read as the annotated type ``kind``: a scalar type, or a
    tuple split on ``,``, or on ``;`` when its items are tuples."""
    if typing.get_origin(kind) is not tuple:
        return _parse_int(text) if kind is int else kind(text)
    item = typing.get_args(kind)[0]
    separator = ";" if typing.get_origin(item) is tuple else ","
    return tuple(_parse_value(part, item) for part in text.split(separator))


def _format_value(value) -> str:
    """``value`` spelled as ``_parse_value`` reads it back: a float in its
    shortest exact form (``repr``), a tuple's items joined with ``,``, or
    with ``;`` when they are tuples, anything else by ``str``."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, tuple):
        separator = ";" if value and isinstance(value[0], tuple) else ","
        return separator.join(map(_format_value, value))
    return str(value)


@functools.cache
def _field_types(cls) -> dict:
    """The annotated type of each field of the dataclass ``cls``, evaluated once."""
    return typing.get_type_hints(cls)


def _load_fields(path, cls):
    """An instance of the dataclass ``cls`` from a ``key=value`` file. The
    keys are its fields, those without a default are required, and each
    value is read as the field's annotated type; a fault ``cls`` finds in
    the values names the file."""
    hints = _field_types(cls)
    pairs = _parse_kv_lines(path, enumerate(_read_lines(path), 1), hints)
    for field in dataclasses.fields(cls):
        if field.default is dataclasses.MISSING and field.name not in pairs:
            raise ParseError(f"{path}: {field.name} is required")
    kwargs = {}
    for key, value in pairs.items():
        try:
            kwargs[key] = _parse_value(value, hints[key])
        except ValueError:
            raise ParseError(f"{path}: malformed value for {key}: {value!r}") from None
    try:
        return cls(**kwargs)
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}") from None


def save_model(model: MlpModel, path) -> None:
    """Model container: a ``[meta]`` section plus one CSV block per matrix."""
    meta = {
        "activation": model.activation,
        "hidden_map_shape": f"{model.dim_hidden} {model.dim_in}",
        "head_shape": f"{model.num_classes} {model.dim_hidden}",
    }
    hidden_map = itertools.chain(["[hidden_map]\n"], _csv_lines(model.hidden_map))
    head = itertools.chain(["[head]\n"], _csv_lines(model.head.weights))
    write_text(path, itertools.chain(["[meta]\n", format_report(meta)], hidden_map, head))


def load_model(path) -> MlpModel:
    """The model of a ``save_model`` file. Its three sections are required
    and its ``[meta]`` keys optional; any other section or key is refused,
    and a fault ``MlpModel`` finds in the content names the file."""
    sections = dict.fromkeys(("meta", "hidden_map", "head"))  # None until its header
    current = None
    for number, line in enumerate(_read_lines(path), 1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("[") and text.endswith("]"):
            current = text[1:-1]
            if current not in sections:
                raise ParseError(f"{path}:{number}: unknown section [{current}]")
            if sections[current] is not None:
                raise ParseError(f"{path}:{number}: duplicate section [{current}]")
            sections[current] = []
            continue
        if current is None:
            raise ParseError(f"{path}:{number}: content before any section header")
        sections[current].append((number, text))

    for name, lines in sections.items():
        if lines is None:
            raise ParseError(f"{path}: missing [{name}] section")
    meta = _parse_kv_lines(path, sections["meta"], ("activation", "hidden_map_shape", "head_shape"))
    hidden_map = _parse_rows(path, sections["hidden_map"])
    head = _parse_rows(path, sections["head"])
    for key, matrix in (("hidden_map_shape", hidden_map), ("head_shape", head)):
        if key in meta:
            try:
                declared = tuple(_parse_int(v) for v in meta[key].split())
            except ValueError:
                raise ParseError(f"{path}: malformed {key} {meta[key]!r}") from None
            if declared != matrix.shape:
                raise ShapeError(f"{path}: {key} declares {declared}, content is {matrix.shape}")
    try:
        return MlpModel(hidden_map, LinearHead(head), meta.get("activation", "linear"))
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}") from None


def save_train_config(config: TrainConfig, path) -> None:
    write_report(dataclasses.asdict(config), path)


def load_train_config(path) -> TrainConfig:
    return _load_fields(path, TrainConfig)


def load_toy_spec(path) -> ToySpec:
    return _load_fields(path, ToySpec)


def save_toy_spec(spec: ToySpec, path) -> None:
    write_report(dataclasses.asdict(spec), path)


def save_history(history: list[EpochRecord], path) -> None:
    rows = np.array([(r.epoch, r.loss, r.accuracy) for r in history], dtype=np.float64)
    write_text(path, itertools.chain(["epoch,loss,accuracy\n"], _csv_lines(rows.reshape(-1, 3))))


def format_report(pairs: dict) -> str:
    """Key=value lines in insertion order, each value spelled by ``_format_value``."""
    return "\n".join(f"{key}={_format_value(value)}" for key, value in pairs.items()) + "\n"


def write_report(pairs: dict, path) -> None:
    write_text(path, [format_report(pairs)])
