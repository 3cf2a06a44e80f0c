"""One benchmark worker process: set up a workload, then run timed passes.

run.py starts this script once per worker; it is not meant to be run by
hand. The setup clock starts before numpy and ftcal are imported, so
``setup_s`` holds the import, building the seeded inputs and (for ``cli``)
writing the CSV fixtures. Passes then repeat for about ``--seconds``,
at least once each. With ``--trace 1`` the passes cycle through
untraced, span-recording and memory-tracing modes, so the run also
measures its own tracing overhead.

The result, one JSON object, goes to ``--out``.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from probe import Probe  # noqa: E402
from recorder import MEMORY, SPANS, UNTRACED, PassAborted, Recorder  # noqa: E402
from run import PER_LAYER  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
MAX_FAILURES_LISTED = 20


def _blas_threads():
    """Thread count of the OpenBLAS library loaded into this process."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as handle:
        libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _caches() -> dict:
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return caches


def provenance() -> dict:
    import numpy as np

    import ftcal

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "ftcal_file": ftcal.__file__,
    }


def _listed(problems) -> dict:
    """The most frequent problems, each with its count."""
    counts = Counter(f"{name}: {problem}" for name, problem in problems)
    return dict(counts.most_common(MAX_FAILURES_LISTED))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    # Measure the checkout's own source, in this process and in CLI children.
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    peak_names = [name.removesuffix(".peak_mb") for name in PER_LAYER if name.endswith(".peak_mb")]
    rec = Recorder(peak_names)
    rec.mode = SPANS if args.trace else UNTRACED  # the traced run spans set-up calls too
    import ftcal
    import workloads

    if Path(ftcal.__file__).resolve().parent != SRC / "ftcal":
        print(f"measured {ftcal.__file__}, not the checkout's {SRC}", file=sys.stderr)
        return 2
    bench = workloads.SETUPS[args.workload](
        workloads.SIZES[args.size], args.seed, args.workdir, rec
    )
    setup_s = time.perf_counter() - SETUP_START
    # Set-up is mostly imports and interpreter work whatever the workload.
    setup_probe = Probe("mixed")
    setup_scale = setup_probe.nominal_s / setup_probe()
    probe = Probe(bench.probe)
    rec.run_checks()

    modes = (UNTRACED, SPANS, MEMORY) if args.trace else (UNTRACED,)
    wall = {mode: [] for mode in modes}
    normalised = []
    start = time.perf_counter()
    rounds = 0
    while True:
        rounds += 1
        for mode in modes:
            rec.mode = mode
            rec.start_pass(probe if mode == UNTRACED else None)
            try:
                with rec.group("pass"):
                    bench.run_pass(rec)
                seconds, scaled = rec.finish_pass()
                wall[mode].append(seconds)
                if scaled is not None:
                    normalised.append(scaled)
                if mode != UNTRACED and bench.replay is not None:
                    with rec.group("replay"):
                        bench.replay(rec)
            except PassAborted:
                rec.finish_pass()
            rec.mode = UNTRACED
            rec.run_checks()
        # Start another round only if at least half of it fits in the budget.
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds / 2 >= args.seconds:
            break

    usage = resource.RUSAGE_CHILDREN if bench.uses_children else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s * setup_scale,
        "wall_setup_s": setup_s,
        "pass_s": normalised,
        "wall_pass_s": wall[UNTRACED],
        "traced_pass_s": wall.get(SPANS, []),
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "checks_run": rec.checks_run,
        "failures": _listed(rec.failures),
        "known_defects": _listed(rec.defects),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        "inputs": bench.inputs,
        "spans": [span.as_dict() for span in rec.spans],
        "provenance": provenance(),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
