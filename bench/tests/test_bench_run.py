"""bench/run.py: failure counting, metric names and the missing-package exit."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCH = Path(run.__file__).resolve().parent


def _operation(mode="run", run_s=1.0, passed=True, error=None):
    result = {"mode": mode, "run_s": run_s, "peak_rss_mb": 40.0,
              "setup_s": 0.3,
              "checks": [{"name": "mass_drift", "passed": passed,
                          "text": "check mass_drift ..."}]}
    if error is not None:
        result = {"mode": mode, "error": error}
    return result


def test_check_failure_counts_the_operation_as_failed(capsys):
    operations = [_operation(run_s=1.0), _operation(run_s=2.0, passed=False),
                  _operation(error="DomainExitError: left the axis")]
    result = run.summarize("picard_coarse", operations, [0.3, 0.4], False)
    assert result["attempted"] == 3
    assert result["failed"] == 2
    assert result["correct"] is False
    assert result["metrics"]["run_s"] == {"value": 1.5, "unit": "s"}
    err = capsys.readouterr().err
    assert "picard_coarse: check mass_drift ..." in err
    assert "DomainExitError" in err


def test_traced_summary_reports_overhead():
    layers = {"characteristics.field_eval_self_s": 0.5,
              "trace.accounted_share": 0.999}
    traced = dict(_operation("trace", run_s=1.25), layers=layers)
    result = run.summarize("picard_coarse", [_operation(run_s=1.0), traced],
                           [0.3], True)
    metrics = result["metrics"]
    assert result["failed"] == 0 and result["correct"] is True
    assert metrics["trace.overhead_s"]["value"] == 0.25
    assert metrics["characteristics.field_eval_self_s"] == \
        {"value": 0.5, "unit": "s"}
    assert "run_s" not in metrics


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.LAYER_UNITS
    assert [m["name"] for m in spec["end_to_end"]] \
        == ["run_s", "setup_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload",
         "picard_coarse", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no package" in proc.stderr
