"""Per-layer spans recorded from outside the package.

The tracer replaces public functions and methods of the package's
modules with wrappers that record a span (name, start, end, parent) and
add work counts.  Modules import each other's functions by value, so a
function is replaced in every loaded package module that holds it, not
only where it is defined.  Spans stay in memory until the operation
ends; uninstall() restores every original.

A span's self time is its duration minus the durations of its direct
child spans.  Layer metrics are named after the module that owns the
wrapped function.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

import numpy as np

PACKAGE = "vlasov_transport"


def _points(index):
    def count(counts, name, args, kwargs, result):
        counts[name + "_points"] += int(np.size(args[index]))
    return count


def _trace_states(counts, name, args, kwargs, result):
    x, t, s_end, substeps = args[0], args[2], args[3], args[5]
    if t != s_end:
        counts["characteristics.traced_states"] += int(np.size(x))
        counts["characteristics.state_steps"] += int(np.size(x)) * substeps


def _solve_picard(counts, name, args, kwargs, result):
    history, trace = result
    grid = history.grid
    counts["solver.picard_iterations"] += trace.iterations
    counts["solver.trace_slots"] += grid.nx * grid.nv \
        * (history.n_levels - 1) * trace.iterations


def _solve_direct(counts, name, args, kwargs, result):
    grid = result.grid
    counts["solver.trace_slots"] += grid.nx * grid.nv * (result.n_levels - 1)


def _snapshot_bytes(counts, name, args, kwargs, result):
    counts["snapshot.bytes_written"] += os.stat(args[0]).st_size


# (module, attribute, metric name, timed, extra counter).  Every wrapper
# counts its calls as "<name>_calls"; a timed one also records a span.
TARGETS = (
    ("phase_space", "interp_profile", "phase_space.interp_profile", True,
     _points(3)),
    ("phase_space", "interp_lattice", "phase_space.interp_lattice", True,
     _points(2)),
    ("characteristics", "LatticeFieldHistory.eval",
     "characteristics.field_eval", True, _points(2)),
    ("characteristics", "trace_states", "characteristics.trace_states",
     True, _trace_states),
    ("solver", "solve_picard", "solver.solve_picard", True, _solve_picard),
    ("solver", "solve_direct", "solver.solve_direct", True, _solve_direct),
    ("solver", "majorant_existence_time", "solver.majorant", True, None),
    ("field_solve", "field_from_history", "field_solve.field_from_history",
     True, None),
    ("field_solve", "MomentProfile.at", "field_solve.moment_at", False, None),
    ("field_solve", "advance_field", "field_solve.advance_field", True, None),
    ("field_solve", "density_moment", "field_solve.density_moment", True,
     None),
    ("analysis", "compute_diagnostics", "analysis.compute_diagnostics", True,
     None),
    ("analysis", "pde_residual", "analysis.pde_residual", True, None),
    ("analysis", "holder_quotient", "analysis.holder_quotient", True, None),
    ("analysis", "scenario_monotone_check",
     "analysis.scenario_monotone_check", True, None),
    ("cli", "parse_config", "cli.parse_config", True, None),
    ("cli", "main", "cli.main", True, None),
    ("cli", "run_scenario", "cli.run_scenario", True, None),
    ("snapshot", "write_snapshot", "snapshot.write", True, _snapshot_bytes),
)

# metric name -> span whose self time it reports.  Spans without wrapped
# children report their whole duration, so those metrics end in "_s".
SELF_TIME_METRICS = {
    "characteristics.field_eval_self_s": "characteristics.field_eval",
    "characteristics.trace_states_self_s": "characteristics.trace_states",
    "phase_space.interp_profile_s": "phase_space.interp_profile",
    "phase_space.interp_lattice_s": "phase_space.interp_lattice",
    "solver.solve_picard_self_s": "solver.solve_picard",
    "solver.solve_direct_self_s": "solver.solve_direct",
    "solver.majorant_s": "solver.majorant",
    "field_solve.field_from_history_self_s": "field_solve.field_from_history",
    "field_solve.advance_field_self_s": "field_solve.advance_field",
    "field_solve.density_moment_s": "field_solve.density_moment",
    "analysis.compute_diagnostics_s": "analysis.compute_diagnostics",
    "analysis.pde_residual_s": "analysis.pde_residual",
    "analysis.holder_quotient_s": "analysis.holder_quotient",
    "analysis.scenario_monotone_check_s": "analysis.scenario_monotone_check",
    "cli.parse_config_s": "cli.parse_config",
    "cli.main_self_s": "cli.main",
    "cli.run_scenario_self_s": "cli.run_scenario",
    "snapshot.write_s": "snapshot.write",
}

# metric name -> span whose whole duration, wrapped children included, it
# reports: the two kernels a faster field-history or moment quadrature
# would replace, whatever they call.
INCLUSIVE_METRICS = {
    "characteristics.field_eval_s": "characteristics.field_eval",
    "field_solve.field_from_history_s": "field_solve.field_from_history",
}

COUNT_METRICS = (
    "characteristics.field_eval_calls",
    "characteristics.field_eval_points",
    "characteristics.state_steps",
    "phase_space.interp_profile_calls",
    "phase_space.interp_profile_points",
    "phase_space.interp_lattice_calls",
    "phase_space.interp_lattice_points",
    "solver.picard_iterations",
    "field_solve.field_from_history_calls",
    "field_solve.moment_at_calls",
    "snapshot.bytes_written",
)


class Tracer:
    """Spans and counts for one operation, recorded by installed wrappers."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, attr, name, timed, counter in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, method, self._wrap(
                    cls.__dict__[method], name, timed, counter))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, timed, counter)
            for module in modules:
                if vars(module).get(attr) is original:
                    self._patch(module, attr, wrapper)
        return self

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def _patch(self, holder, attr, wrapper) -> None:
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    def _wrap(self, fn, name, timed, counter):
        counts = self.counts
        calls = name + "_calls"
        if not timed:
            @functools.wraps(fn)
            def count_only(*args, **kwargs):
                counts[calls] += 1
                return fn(*args, **kwargs)
            return count_only

        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            counts[calls] += 1
            if counter is not None:
                counter(counts, name, args, kwargs, result)
            return result
        return wrapper

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            totals[name] = totals.get(name, 0.0) + (end - start - covered)
        return totals

    def layer_metrics(self, run_s: float) -> dict[str, float]:
        """Per-layer self times and counts, plus the share of run_s they
        cover."""
        own = self.self_times()
        metrics = {metric: own.get(span, 0.0)
                   for metric, span in SELF_TIME_METRICS.items()}
        unnamed = set(own) - set(SELF_TIME_METRICS.values())
        if unnamed:
            raise RuntimeError(f"spans without a metric: {sorted(unnamed)}")
        for metric, span in INCLUSIVE_METRICS.items():
            metrics[metric] = sum(end - start for name, start, end, _
                                  in self.spans if name == span)
        for name in COUNT_METRICS:
            metrics[name] = self.counts[name]
        slots = self.counts["solver.trace_slots"]
        metrics["solver.traced_share"] = \
            self.counts["characteristics.traced_states"] / slots if slots \
            else 0.0
        metrics["trace.accounted_share"] = sum(own.values()) / run_s
        return metrics
