"""One operation of one workload, in a fresh process.

    python3 worker.py <workload> <mode> <work_dir> <result.json>

mode is "setup" (set up, then stop), "run" (set up, run, check) or
"trace" (as run, with the tracer installed around the operation only).
The result file holds `ready`, the time.monotonic() reading when set-up
ended (the parent took one just before starting this process, and both
read the same system-wide clock), then `run_s`, `peak_rss_mb` (this
process's peak resident memory, read before the checks), the checks and,
when traced, the layer metrics.  An exception from the operation or its
checks is reported as `error`; the exit status is nonzero only when
set-up failed.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path



def _operation(workload, traced: bool) -> dict:
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer().install()
    try:
        start = time.perf_counter()
        workload.run()
        run_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"run_s": run_s, "peak_rss_mb": peak_kib / 1024.0}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(run_s)
    return result


def main(argv) -> int:
    name, mode, work_dir, result_path = argv
    work_dir = Path(work_dir)
    try:
        from workloads import WORKLOADS
        workload = WORKLOADS[name]()
        workload.setup(work_dir)
    except Exception:
        traceback.print_exc()
        return 2
    result = {"ready": time.monotonic()}
    if mode != "setup":
        try:
            result.update(_operation(workload, mode == "trace"))
            result["checks"] = [c.to_json() for c in workload.checks()]
        except Exception as exc:
            traceback.print_exc()
            result["error"] = f"{type(exc).__name__}: {exc}"
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
