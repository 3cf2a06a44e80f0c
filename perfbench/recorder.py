"""Operation counting, deferred output checks and the span recorder.

Every public ftcal call a workload makes goes through ``Recorder.call``.
The call counts as one attempted operation; it fails if it raises or if
the check queued with it reports a problem. A call may also carry a
check of a known defect of ftcal (see README.md): its problems are kept
apart in ``defects`` and do not fail the call. Checks run after the
pass's clock has stopped, so pass times hold only the calls themselves.

Tracing has two modes. ``spans`` records a span (id, name, start, end,
parent, pass id) around every call. ``memory`` also runs ``tracemalloc``
during each call named in ``peak_names`` and stores the call's peak
above its start in the span; those calls run slower under it, so their
spans carry ``peak_mb`` and are left out of per-call times. A call on an
input other than the one its workload states for that layer (say, the
toy fixture loaded by ``io.load_matrix`` next to the 40 MB logits CSV) is
made with ``sample=False``: its span is kept but is no sample of the
layer's metrics. Spans stay in memory until the run ends.

An untraced pass may carry a speed probe (see probe.py); the recorder then
cuts the pass into probe-bracketed segments at call boundaries.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from probe import SEGMENT_S

MIB = float(1 << 20)
UNTRACED, SPANS, MEMORY = "untraced", "spans", "memory"


class PassAborted(Exception):
    """Raised by ``Recorder.call`` after a call raised; ends the pass."""


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    peak_mb: float | None = None
    meta: dict | None = None
    sample: bool = True

    def as_dict(self) -> dict:
        return {key: value for key, value in asdict(self).items() if value is not None}


class Recorder:
    def __init__(self, peak_names=()):
        self.peak_names = frozenset(peak_names)
        self.mode = UNTRACED
        self.pass_id = 0
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.defects: list[tuple[str, str]] = []
        self.checks_run = 0
        self.spans: list[Span | None] = []
        self._pending = []
        self._parents: list[int] = []
        self._probe = None

    def start_pass(self, probe=None) -> None:
        """Begin a pass; with ``probe``, also begin its first segment."""
        self.pass_id += 1
        self._probe = probe
        self._wall = self._normalised = 0.0
        if probe is not None:
            self._last_probe = probe()
        self._segment_start = time.perf_counter()

    def _end_segment(self) -> None:
        wall = time.perf_counter() - self._segment_start
        probe = self._probe()
        self._wall += wall
        self._normalised += wall * self._probe.nominal_s / ((self._last_probe + probe) / 2)
        self._last_probe = probe
        self._segment_start = time.perf_counter()

    def finish_pass(self) -> tuple[float, float | None]:
        """End the pass: its wall seconds (probe time excluded) and, with a
        probe, its normalised seconds."""
        if self._probe is None:
            return time.perf_counter() - self._segment_start, None
        self._end_segment()
        self._probe = None
        return self._wall, self._normalised

    def call(self, name: str, fn, *args, check=None, defect=None, meta=None, sample=True,
             **kwargs):
        """Make one public call.

        ``check(result)`` returns None or a description of the problem.
        ``defect(result)`` does the same for a known defect; its problem
        goes to ``defects``, not ``failures``.
        ``meta`` is a dict, or a callable returning one after the call,
        stored with the span. ``sample`` says whether the span is a sample
        of the layer's per-layer metrics.
        """
        if self._probe is not None and time.perf_counter() - self._segment_start >= SEGMENT_S:
            self._end_segment()
        self.attempted += 1
        peak = None
        measure = self.mode == MEMORY and name in self.peak_names
        if measure:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.failures.append((name, f"{type(exc).__name__}: {exc}"))
            raise PassAborted(name) from exc
        finally:
            end = time.perf_counter()
            if measure:
                peak = tracemalloc.get_traced_memory()[1] / MIB
                tracemalloc.stop()
        if self.mode != UNTRACED:
            if callable(meta):
                meta = meta()
            self.spans.append(Span(len(self.spans), name, start, end, self._parent(),
                                   self.pass_id, peak, meta, sample))
        for check_fn, found in ((check, self.failures), (defect, self.defects)):
            if check_fn is not None:
                self._pending.append((name, check_fn, result, found))
        return result

    def _parent(self) -> int | None:
        return self._parents[-1] if self._parents else None

    @contextmanager
    def group(self, name: str):
        """A parent span around the calls made inside the block."""
        if self.mode == UNTRACED:
            yield
            return
        # Reserve the id now so that the calls inside can name it as parent.
        span_id = len(self.spans)
        self.spans.append(None)
        self._parents.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._parents.pop()
            self.spans[span_id] = Span(span_id, name, start, time.perf_counter(),
                                       self._parent(), self.pass_id)

    def run_checks(self) -> None:
        """Evaluate the checks queued since the last call of this method."""
        pending, self._pending = self._pending, []
        for name, check, result, found in pending:
            self.checks_run += 1
            try:
                problem = check(result)
            except Exception as exc:
                self.failures.append((name, f"check raised {type(exc).__name__}: {exc}"))
                continue
            if problem:
                found.append((name, problem))

