"""Benchmark of the Picard and Direct engines on the paper's constructions.

    python3 bench/run.py --workload picard_desk --seed 1 --seconds 30 --trace 0

Runs whole operations of one workload, each in a fresh Python process
(worker.py), until --seconds have passed, and checks every operation's
outputs (checks.py).  With --trace 0 it reports the end-to-end metrics
run_s, setup_s and peak_rss_mb as medians over the operations, setup_s
over extra set-up-only processes too.  With --trace 1 each round is one
untraced and one traced operation, and it reports the per-layer metrics
of the traced ones together with the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

The workloads take no random input: --seed is accepted and recorded, and
every seed runs the same inputs.  The package is imported from src/ next
to this directory; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("picard_desk", "picard_coarse", "direct_global")
SETUP_PROBES = 4
OPERATION_TIMEOUT_S = 150

sys.path.insert(0, str(BENCH))
from tracer import (COUNT_METRICS, INCLUSIVE_METRICS,  # noqa: E402
                    SELF_TIME_METRICS)

LAYER_UNITS = {**{name: "s" for name in SELF_TIME_METRICS},
               **{name: "s" for name in INCLUSIVE_METRICS},
               **{name: "count" for name in COUNT_METRICS},
               "snapshot.bytes_written": "B",
               "solver.traced_share": "ratio",
               "trace.accounted_share": "ratio",
               "trace.run_s": "s",
               "trace.untraced_run_s": "s",
               "trace.overhead_s": "s"}


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def spawn(workload: str, mode: str) -> dict:
    """One worker process; adds setup_s, from process start to ready."""
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    result_path = work / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, str(BENCH / "worker.py"), workload, mode,
               str(work), str(result_path)]
    try:
        start = time.monotonic()
        try:
            proc = subprocess.run(command, env=env, stdout=sys.stderr,
                                  timeout=OPERATION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            if mode == "setup":
                raise BenchmarkError(f"{workload} set-up timed out")
            return {"error": f"timed out after {OPERATION_TIMEOUT_S} s"}
        if proc.returncode != 0 or not result_path.exists():
            raise BenchmarkError(
                f"{workload} set-up failed (exit status {proc.returncode})")
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup_s"] = result["ready"] - start
    return result


def failed_checks(result: dict) -> list[dict]:
    return [c for c in result.get("checks", []) if not c["passed"]]


def report_failure(workload: str, result: dict) -> None:
    if "error" in result:
        print(f"{workload}: operation failed: {result['error']}",
              file=sys.stderr)
    for c in failed_checks(result):
        print(f"{workload}: {c['text']}", file=sys.stderr)


def measure(workload: str, seconds: float, traced: bool):
    """Rounds of operations until the time is up; returns (operations,
    set-up times)."""
    setups = [spawn(workload, "setup")["setup_s"]
              for _ in range(SETUP_PROBES)]
    modes = ("run", "trace") if traced else ("run",)
    operations = []
    deadline = time.monotonic() + seconds
    while not operations or time.monotonic() < deadline:
        for mode in modes:
            result = spawn(workload, mode)
            result["mode"] = mode
            operations.append(result)
            if "setup_s" in result:
                setups.append(result["setup_s"])
            verdicts = [c["passed"] for c in result.get("checks", [])]
            print(f"{workload} {mode}: run_s "
                  f"{result.get('run_s', float('nan')):.4f}, checks passed "
                  f"{sum(verdicts)}/{len(verdicts)}", file=sys.stderr)
    return operations, setups


def median_of(results, key):
    return statistics.median(r[key] for r in results)


def summarize(workload: str, operations, setups, traced: bool) -> dict:
    for result in operations:
        if "error" in result or failed_checks(result):
            report_failure(workload, result)
    good = [r for r in operations if "error" not in r]
    untraced = [r for r in good if r["mode"] == "run"]
    if not untraced:
        raise BenchmarkError(f"{workload}: no operation completed")
    metrics = {}
    if not traced:
        metrics["run_s"] = (median_of(untraced, "run_s"), "s")
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (median_of(untraced, "peak_rss_mb"), "MB")
    else:
        layered = [r for r in good if r["mode"] == "trace"]
        if not layered:
            raise BenchmarkError(f"{workload}: no traced operation completed")
        # median_low keeps each layer value one a traced operation measured
        # and each count a whole number
        for name in layered[0]["layers"]:
            metrics[name] = (statistics.median_low(r["layers"][name]
                                                   for r in layered),
                             LAYER_UNITS[name])
        traced_s = median_of(layered, "run_s")
        untraced_s = median_of(untraced, "run_s")
        metrics["trace.run_s"] = (traced_s, "s")
        metrics["trace.untraced_run_s"] = (untraced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return {
        "correct": not any(failed_checks(r) for r in operations),
        "attempted": len(operations),
        "failed": sum(1 for r in operations
                      if "error" in r or failed_checks(r)),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only; the inputs are fixed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vlasov_transport" / "__init__.py").is_file():
        print(f"error: no package under {SRC}", file=sys.stderr)
        return 2
    print(f"{args.workload}: seed {args.seed} (inputs do not depend on it)",
          file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    try:
        operations, setups = measure(args.workload, args.seconds,
                                     bool(args.trace))
        result = summarize(args.workload, operations, setups,
                           bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, entry in result["metrics"].items():
        print(f"{name}: {entry['value']!r} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
