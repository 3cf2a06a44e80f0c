"""ftcal benchmark: time, memory and correctness of one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {logits,features,train,cli} \\
        --seed N --seconds S --trace {0,1}

The run starts a few worker processes one after another (worker.py); each
imports the checkout's ``src/ftcal``, builds the seeded inputs and repeats
the workload's pass for its share of ``--seconds``. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The line before it holds the
details: provenance, input shapes, pass-time quartiles, any failed
checks and the known ftcal defects found (README.md). A traced run also
writes its spans, one JSON object per line, to
``.perfbench_out/spans-<workload>-seed<N>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
RUN_TIMEOUT_S = 170  # all workers together

# Worker processes per untraced run. Timings vary between processes, so a
# run pools the passes of several; each worker's set-up is one setup_s
# sample.
WORKERS = {"logits": 3, "features": 3, "train": 3, "cli": 2}

END_TO_END = {"pass_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metrics, all from the traced run. "<layer>.s" is the median
# seconds per call, "<layer>.peak_mb" the median tracemalloc peak of a call
# above its start, both over the calls on the workload's stated input for
# that layer (spans with "sample"). A layer a workload never calls reads 0.
PER_LAYER = {
    "data.LabeledLogits.s": "s",
    "data.LabeledFeatures.s": "s",
    "data.make_greedy_similar_split.s": "s",
    "data.make_greedy_similar_split.peak_mb": "MB",
    "metrics.acc_report.s": "s",
    "metrics.acc_report.peak_mb": "MB",
    "metrics.seen_unseen_curve.s": "s",
    "metrics.seen_unseen_curve.peak_mb": "MB",
    "metrics.ausuc.s": "s",
    "metrics.format_curve_csv.s": "s",
    "calibration.estimate_gamma_star.s": "s",
    "calibration.estimate_gamma_star.peak_mb": "MB",
    "calibration.estimate_gamma_alg.s": "s",
    "calibration.apply_gamma.s": "s",
    "calibration.apply_gamma.peak_mb": "MB",
    "calibration.predict_cosine.s": "s",
    "calibration.estimate_gamma_pcv.s": "s",
    "analysis.logit_gap_stats.s": "s",
    "analysis.absent_binary_prob.s": "s",
    "analysis.gt_vs_top_nongt_absent.s": "s",
    "analysis.linear_cka.s": "s",
    "analysis.linear_cka.peak_mb": "MB",
    "analysis.delta_w_similarity.s": "s",
    "analysis.weight_norms.s": "s",
    "ncm.class_means.s": "s",
    "ncm.ncm_predict.s": "s",
    "ncm.ncm_predict.peak_mb": "MB",
    "trainer.fine_tune.s": "s",
    "trainer.sgd_step.us": "us",
    "trainer.sgd_steps": "count",
    "trainer.gradient_check.s": "s",
    "pipeline.run_toy_pipeline.s": "s",
    "io.load_matrix.s": "s",
    "io.load_matrix.mb_per_s": "MB/s",
    "io.save_matrix.s": "s",
    "io.save_matrix.mb_per_s": "MB/s",
    "io.load_labels.s": "s",
    "io.save_labels.s": "s",
    "cli.startup.s": "s",
    "cli.toy.s": "s",
    "cli.metrics.s": "s",
    "cli.ausuc.s": "s",
    "cli.gamma-star.s": "s",
    "cli.calibrate.s": "s",
    "cli.alg.s": "s",
    "cli.ncm.s": "s",
    "cli.diagnose.s": "s",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _quartiles(values) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values)


def _src_loc() -> dict:
    lines = nonblank = 0
    for path in sorted((ROOT / "src" / "ftcal").glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        lines += len(text)
        nonblank += sum(1 for line in text if line.strip())
    return {"lines": lines, "nonblank": nonblank}


def _pooled(results: list[dict], key: str) -> dict:
    """Problem counts of all workers."""
    return dict(sum((Counter(r[key]) for r in results), Counter()))


def per_layer(results: list[dict]) -> dict:
    """Per-layer values from the spans and pass times of traced workers."""
    spans = [span for result in results for span in result["spans"] if span["sample"]]

    # Calls run under tracemalloc carry peak_mb; their durations are not used.
    timed = [s for s in spans if "peak_mb" not in s]
    values = {}
    for metric in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        if kind == "s":
            values[metric] = _median([s["end"] - s["start"] for s in timed if s["name"] == layer])
        elif kind == "peak_mb":
            values[metric] = _median([s["peak_mb"] for s in spans
                                      if s["name"] == layer and "peak_mb" in s])
        elif kind == "mb_per_s":
            values[metric] = _median([s["meta"]["bytes"] / (1 << 20) / (s["end"] - s["start"])
                                      for s in timed if s["name"] == layer])
    steps = results[0]["inputs"].get("sgd_steps_per_fine_tune", 0)
    values["trainer.sgd_steps"] = steps
    values["trainer.sgd_step.us"] = (
        values["trainer.fine_tune.s"] / steps * 1e6 if steps else 0.0
    )
    traced = _median([t for r in results for t in r["traced_pass_s"]])
    untraced = _median([t for r in results for t in r["wall_pass_s"]])
    values["trace.pass_s"] = traced
    values["trace.overhead_s"] = traced - untraced
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def end_to_end(results: list[dict]) -> dict:
    values = {
        "pass_s": _median([t for r in results for t in r["pass_s"]]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in results]),
        "setup_s": _median([r["setup_s"] for r in results]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def run_worker(args, index: int, seconds: float, rundir: Path, timeout: float) -> dict | None:
    workdir = rundir / f"worker{index}"
    workdir.mkdir()
    out = rundir / f"worker{index}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
        "--trace", str(args.trace), "--size", args.size,
        "--workdir", str(workdir), "--out", str(out),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        print(f"worker {index} timed out; the run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.is_file():
        print(f"worker {index} exited with code {proc.returncode}", file=sys.stderr)
        return None
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the harness's smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "ftcal" / "__init__.py").is_file():
        print(f"no ftcal source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    # The traced run needs no set-up samples: one worker, whose traced and
    # untraced passes give the tracing overhead. The tiny smoke-test size
    # needs no steadiness either.
    workers = 1 if args.trace or args.size == "tiny" else WORKERS[args.workload]
    OUT.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT))
    try:
        deadline = time.monotonic() + RUN_TIMEOUT_S
        results = []
        for index in range(workers):
            timeout = max(1.0, deadline - time.monotonic())
            result = run_worker(args, index, args.seconds / workers, rundir, timeout)
            if result is None:
                return 1
            results.append(result)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    pass_times = [t for r in results for t in r["pass_s"]]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "workers": workers,
        "passes": len(pass_times),
        "pass_s_quartiles": _quartiles(pass_times),
        "traced_passes": sum(len(r["traced_pass_s"]) for r in results),
        "wall_pass_s": _median([t for r in results for t in r["wall_pass_s"]]),
        "wall_pass_s_quartiles": _quartiles([t for r in results for t in r["wall_pass_s"]]),
        "setup_s_each": [r["setup_s"] for r in results],
        "wall_setup_s_each": [r["wall_setup_s"] for r in results],
        "peak_rss_mb_each": [r["peak_rss_mb"] for r in results],
        "checks_run": sum(r["checks_run"] for r in results),
        "failures": _pooled(results, "failures"),
        "known_defects": _pooled(results, "known_defects"),
        "inputs": results[0]["inputs"],
        "provenance": {**results[0]["provenance"], "src_loc": _src_loc()},
    }
    if args.trace:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as handle:
            for worker, result in enumerate(results):
                for span in result["spans"]:
                    handle.write(json.dumps({"worker": worker, **span}) + "\n")
        details["spans_file"] = str(spans_path.relative_to(ROOT))
    metrics = per_layer(results) if args.trace else end_to_end(results)
    if details["known_defects"]:
        seen = sum(details["known_defects"].values())
        print(f"known ftcal defect found {seen} times (not counted as failed; see "
              f"perfbench/README.md): {next(iter(details['known_defects']))}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
