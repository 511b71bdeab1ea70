"""Output checks computed apart from the program.

Every reference value here is evaluated by the benchmark itself: the
closed-form quartic bumps, a trapezoid mass, the a priori bounds of the
paper recomputed from the stored levels, the closed-form majorant
F = 1/(1 - t) for C = 1, and an own reader for the binary snapshot
format.  Nothing in this module imports the package, so a fault in the
program cannot hide in its own check.

Each check returns a Check: a measured value, the limit it must stay on
the right side of, and whether it passed.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SNAPSHOT_MAGIC = b"SVMSNAP1".ljust(16, b"\x00")
_SNAPSHOT_HEADER = struct.Struct("<16sIId")

# Level-0 snapshots against the closed form: the program and the benchmark
# evaluate the same polynomial in possibly different operation order.
BUMP_ATOL = 1e-14
EXACT_SUP_TOL = 1e-12
MASS_DRIFT_TOL = 1e-4
MAJORANT_TOL = 5e-3
PICARD_MAX_ITER = 15
CROSS_ENGINE_CONST = 50.0
FIELD_MIN_TOL = 1e-8


@dataclass(frozen=True)
class Check:
    """One verdict: measured against limit, in the stated direction."""

    name: str
    measured: float
    limit: float
    passed: bool
    lower_is_ok: bool = True

    def describe(self) -> str:
        verdict = "passed" if self.passed else "FAILED"
        side = "<=" if self.lower_is_ok else ">="
        text = (f"check {self.name} {verdict}: measured {self.measured:.6g}, "
                f"required {side} {self.limit:.6g}")
        if not self.passed:
            text += f", off by {abs(self.measured - self.limit):.3g}"
        return text

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "text": self.describe()}


def at_most(name: str, measured: float, limit: float) -> Check:
    measured = float(measured)
    return Check(name, measured, float(limit), bool(measured <= limit))


def at_least(name: str, measured: float, limit: float) -> Check:
    measured = float(measured)
    return Check(name, measured, float(limit), bool(measured >= limit),
                 lower_is_ok=False)


# ---------------------------------------------------------------------------
# closed forms and quadrature


def quartic_bump(z) -> np.ndarray:
    """(1 - z^2)^2 on |z| < 1 and 0 elsewhere."""
    z = np.asarray(z, dtype=float)
    return np.where(np.abs(z) < 1.0, (1.0 - z ** 2) ** 2, 0.0)


def bump_density(x, v, amplitude=1.0, center_x=0.0, center_v=0.0,
                 width=0.5) -> np.ndarray:
    x = np.asarray(x, dtype=float)[:, None]
    v = np.asarray(v, dtype=float)[None, :]
    return amplitude * quartic_bump((x - center_x) / width) \
        * quartic_bump((v - center_v) / width)


def bump_field(x, amplitude=0.5, width=1.0) -> np.ndarray:
    return amplitude * quartic_bump(np.asarray(x, dtype=float) / width)


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def trapezoid_mass(f: np.ndarray, dx: float, dv: float) -> float:
    """Double trapezoid of a (nx, nv) lattice."""
    nx, nv = f.shape
    return float(_trapezoid_weights(nx, dx) @ f @ _trapezoid_weights(nv, dv))


def running_integral(y: np.ndarray, h: float) -> np.ndarray:
    """Cumulative trapezoid of samples y at spacing h, 0 at the start."""
    y = np.asarray(y, dtype=float)
    return np.concatenate([[0.0], np.cumsum(0.5 * h * (y[1:] + y[:-1]))])


def occupied_velocities(f: np.ndarray, v_nodes: np.ndarray,
                        threshold: float) -> np.ndarray:
    """Velocity nodes with |f| above threshold at some x."""
    return v_nodes[np.any(np.abs(f) > threshold, axis=0)]


# ---------------------------------------------------------------------------
# snapshot and CSV artifacts


def read_snapshot(path) -> tuple[np.ndarray, float]:
    """(values, time) from a snapshot file; values 2D for a density."""
    data = Path(path).read_bytes()
    if len(data) < _SNAPSHOT_HEADER.size:
        raise ValueError(f"{path}: shorter than a snapshot header")
    magic, nx, nv, time = _SNAPSHOT_HEADER.unpack_from(data)
    if magic != SNAPSHOT_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    count = nx * nv if nv else nx
    payload = data[_SNAPSHOT_HEADER.size:]
    if len(payload) != 8 * count:
        raise ValueError(f"{path}: payload has {len(payload)} bytes, "
                         f"expected {8 * count}")
    values = np.frombuffer(payload, dtype="<f8").astype(float)
    return (values.reshape(nx, nv) if nv else values), time


def read_picard_trace(path) -> list[tuple[float, float]]:
    """(field_diff, density_diff) per iteration from picard_trace.csv."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [(float(r["field_diff"]), float(r["density_diff"])) for r in rows]


# ---------------------------------------------------------------------------
# checks


def check_run_status(exit_code: int, summary: dict) -> list[Check]:
    return [at_most("exit_status", exit_code, 0),
            at_least("summary_ok", 1.0 if summary.get("ok") is True else 0.0,
                     1.0)]


def check_initial_snapshots(f0: np.ndarray, b0: np.ndarray,
                            x_nodes: np.ndarray,
                            v_nodes: np.ndarray) -> list[Check]:
    """Level-0 f and B equal the default quartic bumps on the grid."""
    f_err = float(np.max(np.abs(f0 - bump_density(x_nodes, v_nodes))))
    b_err = float(np.max(np.abs(b0 - bump_field(x_nodes))))
    return [at_most("level0_f_equals_bump", f_err, BUMP_ATOL),
            at_most("level0_b_equals_bump", b_err, BUMP_ATOL)]


def check_density_sups(f_levels, limit: float = 1.0 + EXACT_SUP_TOL,
                       name: str = "density_sup") -> Check:
    """Every density level stays at or below the limit in sup norm."""
    return at_most(name, max(float(np.max(np.abs(f))) for f in f_levels),
                   limit)


def check_mass_drift(f_levels, dx: float, dv: float) -> Check:
    """Relative trapezoid-mass drift against the first level."""
    masses = [trapezoid_mass(f, dx, dv) for f in f_levels]
    drift = max(abs(m - masses[0]) for m in masses) / abs(masses[0])
    return at_most("mass_drift", drift, MASS_DRIFT_TOL)


def check_picard_trace(diffs, tol: float) -> list[Check]:
    """The last successive difference is below tol, and from the second
    iteration on both columns strictly decrease."""
    worst = [max(field, density) for field, density in diffs]
    growth = 0.0
    for column in (0, 1):
        series = [row[column] for row in diffs[1:]]
        for a, b in zip(series, series[1:]):
            growth = max(growth, b / a if a > 0 else math.inf)
    return [Check("picard_trace_converged", worst[-1], tol, worst[-1] < tol),
            Check("picard_trace_decreasing", growth, 1.0, growth < 1.0)]


def majorant_crossing_time(cap: float) -> float:
    """Time F = 1/(1 - t), the C = 1 majorant, reaches cap."""
    return 1.0 - 1.0 / cap


def check_majorant(blowup_time, cap: float) -> Check:
    measured = math.inf if blowup_time is None else float(blowup_time)
    return at_most("majorant_blowup_time_error",
                   abs(measured - majorant_crossing_time(cap)), MAJORANT_TOL)


def check_picard_convergence(converged: bool, iterations: int) -> list[Check]:
    return [at_least("picard_converged", 1.0 if converged else 0.0, 1.0),
            at_most("picard_iterations", iterations, PICARD_MAX_ITER)]


def check_cross_engine(b_picard, b_direct, dt: float, dx: float) -> Check:
    dist = max(float(np.max(np.abs(p - d)))
               for p, d in zip(b_picard, b_direct))
    return at_most("cross_engine_distance", dist,
                   CROSS_ENGINE_CONST * (dt * dt + dx ** 3))


def check_a_priori_bounds(f_levels, b_levels, v_nodes: np.ndarray, dt: float,
                          dv: float, f0_sup: float,
                          b0_sup: float) -> list[Check]:
    """The paper's a priori bounds on the stored levels.

    P(t), the running maximum of the occupied |v|, obeys
    P(t) <= P(0) + int_0^t |B|_inf + dv + dt max|B|_inf (dv for the
    velocity quantisation, dt max|B| for the quadrature), and
    |B(t)|_inf <= C (1 + int_0^t P) with
    C = max(|B0|_inf, 1) max(2 |f0|_inf, 1).  Each check reports the worst
    ratio of left to right side over the levels.
    """
    threshold = 1e-12 * f0_sup
    radius = []
    running = 0.0
    for f in f_levels:
        occupied = occupied_velocities(f, v_nodes, threshold)
        if occupied.size:
            running = max(running, float(np.max(np.abs(occupied))))
        radius.append(running)
    radius = np.asarray(radius)
    b_sup = np.asarray([float(np.max(np.abs(b))) for b in b_levels])
    support_bound = radius[0] + running_integral(b_sup, dt) + dv \
        + dt * float(b_sup.max())
    c = max(b0_sup, 1.0) * max(2.0 * f0_sup, 1.0)
    field_bound = c * (1.0 + running_integral(radius, dt))
    return [at_most("support_bound_ratio",
                    float(np.max(radius / support_bound)), 1.0),
            at_most("field_bound_ratio",
                    float(np.max(b_sup / field_bound)), 1.0)]


def check_scenario_scan(f_levels, b_levels, v_nodes: np.ndarray,
                        dv: float) -> list[Check]:
    """The sign-definite scenario on the stored levels: B >= -1e-8
    everywhere, and the lowest occupied velocity never drops by more
    than one velocity cell between consecutive levels."""
    field_min = min(float(np.min(b)) for b in b_levels)
    threshold = 1e-12 * float(np.max(np.abs(f_levels[0])))
    lowest = []
    for f in f_levels:
        occupied = occupied_velocities(f, v_nodes, threshold)
        lowest.append(float(occupied.min()) if occupied.size else math.inf)
    drops = [a - b for a, b in zip(lowest, lowest[1:])
             if math.isfinite(a) and math.isfinite(b)]
    return [at_least("scenario_field_min", field_min, -FIELD_MIN_TOL),
            at_most("scenario_support_drop", max(drops, default=0.0),
                    dv * (1.0 + 1e-9))]


def check_scenario_report(passed: bool) -> Check:
    return at_least("scenario_monotone_check", 1.0 if passed else 0.0, 1.0)
