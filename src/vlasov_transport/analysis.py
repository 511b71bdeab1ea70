"""Diagnostics and structure checks on solution histories.

Everything here consumes a SolutionHistory after the fact: support
tracking, conserved-quantity drift, finite-difference residuals of the
governing equations, derivative representations along characteristics,
the one-parameter change of frame that rescales solutions, a
monotonicity check for sign-definite scenarios, and a square-root modulus
of continuity table for the field.  None of it feeds back into the
solvers; failures here are findings, not exceptions, except where the
input data violates an explicit hypothesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .characteristics import trace_backward_sampled
from .field_solve import density_moment, trapezoid_uniform
from .phase_space import (DensityField, PhaseGrid, TransportField, _frame,
                          interp_lattice, interp_profile)
from .solver import SolutionHistory, MajorantResult, _support_mask

__all__ = [
    "ScenarioHypothesisError",
    "DiagnosticsTrace",
    "ScenarioReport",
    "ContinuationReport",
    "HolderReport",
    "velocity_support",
    "support_infimum",
    "compute_diagnostics",
    "derivative_rep_check",
    "transform_rectangle",
    "transform_density_level",
    "transform_field_level",
    "scaling_transform",
    "pde_residual",
    "scenario_hypothesis_check",
    "scenario_monotone_check",
    "continuation_indicator",
    "holder_quotient",
]


class ScenarioHypothesisError(ValueError):
    """The data fed to a scenario check violates the scenario hypotheses.

    Distinct from a failed check: the check never ran.
    """


def _threshold_for(f: DensityField, threshold: float | None) -> float:
    if threshold is None:
        return 1e-12 * f.sup_norm()
    if threshold < 0:
        raise ValueError("support threshold must be nonnegative")
    return threshold


def _occupied_velocities(f: DensityField, threshold: float | None):
    """Velocity nodes of the columns where |f| exceeds the threshold.

    Off the block f is +0.0, which exceeds no threshold, so only the
    block's columns are read.
    """
    threshold = _threshold_for(f, threshold)
    return f.grid.v_nodes[f.slices[1]][
        np.any(np.abs(f.block) > threshold, axis=0)]


def velocity_support(f: DensityField, threshold: float | None = None) -> float:
    """Radius of the velocity support: max |v| with |f(x, v)| > threshold.

    Returns 0.0 for an empty support.
    """
    occupied = _occupied_velocities(f, threshold)
    return float(np.max(np.abs(occupied))) if occupied.size else 0.0


def support_infimum(f: DensityField, threshold: float | None = None) -> float:
    """Lowest velocity carrying mass; +inf when the lattice is empty."""
    occupied = _occupied_velocities(f, threshold)
    return float(np.min(occupied)) if occupied.size else math.inf


@dataclass(frozen=True)
class DiagnosticsTrace:
    """Per-level scalar diagnostics of a solution history."""

    times: np.ndarray
    density_sup: np.ndarray
    field_sup: np.ndarray
    field_min: np.ndarray
    field_max: np.ndarray
    mass: np.ndarray
    support_radius: np.ndarray      # running max over levels so far
    support_inf: np.ndarray
    dxf_sup: np.ndarray
    dvf_sup: np.ndarray
    dxb_sup: np.ndarray

    COLUMNS = ("time", "density_sup", "field_sup", "field_min", "field_max",
               "mass", "support_radius", "support_inf", "dxf_sup", "dvf_sup",
               "dxb_sup")

    def rows(self):
        cols = (self.times, self.density_sup, self.field_sup, self.field_min,
                self.field_max, self.mass, self.support_radius,
                self.support_inf, self.dxf_sup, self.dvf_sup, self.dxb_sup)
        for k in range(self.times.size):
            yield tuple(float(c[k]) for c in cols)


def compute_diagnostics(solution: SolutionHistory) -> DiagnosticsTrace:
    grid = solution.grid
    thr = _threshold_for(solution.f_levels[0], None)
    n = solution.n_levels
    out = {name: np.zeros(n) for name in DiagnosticsTrace.COLUMNS[1:]}
    running = 0.0
    for k in range(n):
        f = solution.f_levels[k]
        b = solution.b_levels[k]
        values = f.values
        out["density_sup"][k] = f.sup_norm()
        out["field_sup"][k] = b.sup_norm()
        out["field_min"][k] = float(b.values.min())
        out["field_max"][k] = float(b.values.max())
        out["mass"][k] = float(trapezoid_uniform(
            trapezoid_uniform(values, grid.dv, axis=1), grid.dx, axis=0))
        running = max(running, velocity_support(f, thr))
        out["support_radius"][k] = running
        out["support_inf"][k] = support_infimum(f, thr)
        out["dxf_sup"][k] = float(np.max(np.abs(
            np.gradient(values, grid.dx, axis=0, edge_order=2))))
        out["dvf_sup"][k] = float(np.max(np.abs(
            np.gradient(values, grid.dv, axis=1, edge_order=2))))
        out["dxb_sup"][k] = float(np.max(np.abs(
            np.gradient(b.values, grid.dx, edge_order=2))))
    return DiagnosticsTrace(times=solution.times, **out)


def derivative_rep_check(solution: SolutionHistory, t: float):
    """Compare lattice derivatives of f(t) against their path-integral form.

    Along the backward characteristics,

        dvf(t, x, v) = dvf0(X(0), V(0)) - int_0^t dxf(s, X(s), V(s)) ds,
        dxf(t, x, v) = dxf0(X(0), V(0))
                       - int_0^t (dxB dvf)(s, X(s), V(s)) ds.

    The left sides are centered finite differences of the stored lattice,
    the right sides trapezoid quadratures over the stored levels with the
    integrands interpolated at the recorded path points.  Returns the two
    sup-norm residuals (dvf first), taken over the nodes whose trajectory
    can meet the density support; everywhere else both sides vanish.
    """
    if solution.initial_data is None:
        raise ValueError("history carries no initial data family")
    grid = solution.grid
    dt = solution.dt
    m = round(t / dt)
    if m < 1 or abs(t - m * dt) > 1e-9 * max(1.0, t) or m >= solution.n_levels:
        raise ValueError("t must be a stored level time past 0")
    f0 = solution.initial_data.density()
    box = f0.support
    hist = solution.field_history()
    if box is None:
        return 0.0, 0.0
    # Three cells round the box, so the finite differences next to the
    # support are compared too.
    pad = ((box[0][0] - 3 * grid.dx, box[0][1] + 3 * grid.dx),
           (box[1][0] - 3 * grid.dv, box[1][1] + 3 * grid.dv))
    mask = _support_mask(grid, pad, t, *hist.range_bound())
    if not mask.any():
        return 0.0, 0.0
    xg = np.broadcast_to(grid.x_nodes[:, None], mask.shape)[mask]
    vg = np.broadcast_to(grid.v_nodes[None, :], mask.shape)[mask]
    sample_times = dt * np.arange(m, -1, -1)
    xs, vs = trace_backward_sampled(xg, vg, t, sample_times, hist)
    xs, vs = xs[::-1], vs[::-1]      # ascending level order 0..m

    gx = np.empty((m + 1, xg.size))
    gv = np.empty((m + 1, xg.size))
    for k in range(m + 1):
        f_k = solution.f_levels[k].values
        dxf_k = np.gradient(f_k, grid.dx, axis=0, edge_order=2)
        dvf_k = np.gradient(f_k, grid.dv, axis=1, edge_order=2)
        dxb_k = np.gradient(solution.b_levels[k].values, grid.dx,
                            edge_order=2)
        gx[k] = interp_lattice(grid, dxf_k, xs[k], vs[k])
        gv[k] = interp_profile(grid.x_min, grid.dx, dxb_k, xs[k],
                               out_of_range="error") \
            * interp_lattice(grid, dvf_k, xs[k], vs[k])
    rep_dv = f0.dv(xs[0], vs[0]) - trapezoid_uniform(gx, dt, axis=0)
    rep_dx = f0.dx(xs[0], vs[0]) - trapezoid_uniform(gv, dt, axis=0)

    f_t = solution.f_levels[m].values
    fd_dv = np.gradient(f_t, grid.dv, axis=1, edge_order=2)[mask]
    fd_dx = np.gradient(f_t, grid.dx, axis=0, edge_order=2)[mask]
    return (float(np.max(np.abs(fd_dv - rep_dv))),
            float(np.max(np.abs(fd_dx - rep_dx))))


def transform_rectangle(grid: PhaseGrid, u: float, times) -> PhaseGrid:
    """Largest rectangle whose preimage under the frame map stays inside
    grid at every time in times (node counts preserved).

    The preimage of (x, v) at time t is ((u+1)x - ut, (u+1)v - u); the
    admissible x-interval is affine in t, so endpoint times suffice.
    """
    a = _frame(u)
    x_lo, x_hi = -math.inf, math.inf
    for t in times:
        lo = (grid.x_min + u * t) / a
        hi = (grid.x_max + u * t) / a
        lo, hi = min(lo, hi), max(lo, hi)
        x_lo, x_hi = max(x_lo, lo), min(x_hi, hi)
    v_pair = ((grid.v_min + u) / a, (grid.v_max + u) / a)
    v_lo, v_hi = min(v_pair), max(v_pair)
    if not (x_lo < x_hi and v_lo < v_hi):
        raise ValueError(f"scaling u = {u} leaves no valid sub-rectangle")
    return PhaseGrid(x_lo, x_hi, v_lo, v_hi, grid.nx, grid.nv)


def transform_density_level(f: DensityField, new_grid: PhaseGrid,
                            u: float) -> DensityField:
    """One density level under the change of frame of scaling_transform,
    f'(x, v) = sign(u+1) f((u+1)x - ut, (u+1)v - u) at the level's time t.

    With the sign factor the map solves the system for every u != -1;
    for u < -1 it negates the density.
    """
    a = _frame(u)
    xq = a * new_grid.x_nodes - u * f.time
    vq = a * new_grid.v_nodes - u
    values = interp_lattice(f.grid, f.values, xq[:, None], vq[None, :])
    if a < 0.0:
        values = -values
    return DensityField(new_grid, values, f.time)


def transform_field_level(b: TransportField, new_grid: PhaseGrid,
                          u: float) -> TransportField:
    a = _frame(u)
    xq = np.clip(a * new_grid.x_nodes - u * b.time,
                 b.grid.x_min, b.grid.x_max)
    values = (1.0 / a) * interp_profile(b.grid.x_min, b.grid.dx, b.values, xq)
    return TransportField(new_grid, values, b.time)


def scaling_transform(solution: SolutionHistory, u: float) -> SolutionHistory:
    """Rescale a history by the one-parameter change of frame.

    With a = u + 1, X = a x - u t and V = a v - u, the transformed pair

        f'(t, x, v) = sign(a) f(t, X, V),
        B'(t, x)    = a^{-1} B(t, X)

    solves the same system whenever (f, B) does, for every u != -1.  The
    density equation holds whatever constant multiplies f', being linear;
    the field equation needs the moment of f', sign(a) |a|^{-1} rho(t, X),
    to equal a^{-1} rho(t, X), which fixes the sign factor.  For u > -1
    the factor is 1; for u < -1 the velocity axis reverses orientation and
    the density is negated.  u = -1 is excluded.  The output lives on the
    largest rectangle whose preimage stays inside the source grid for
    every stored time (same node counts); an empty rectangle is an error.
    u = 0 reproduces the input lattices bitwise.
    """
    grid = solution.grid
    new_grid = transform_rectangle(grid, u, (0.0, solution.t_final))
    f_levels = []
    b_levels = []
    for k in range(solution.n_levels):
        f_levels.append(transform_density_level(solution.f_levels[k],
                                                new_grid, u))
        b_levels.append(transform_field_level(solution.b_levels[k],
                                              new_grid, u))
    data = None
    if solution.initial_data is not None:
        data = solution.initial_data.scaled(u)
    return SolutionHistory(new_grid, solution.dt, tuple(f_levels),
                           tuple(b_levels), initial_data=data)


# Nodes at or below this |f| carry no mass for pde_residual.
_DENSITY_FLOOR = 1e-10


def pde_residual(solution: SolutionHistory):
    """Centered finite-difference residuals of both governing equations.

    Returns (density_residual, field_residual): sup of

        df/dt + v df/dx + B df/dv        over interior nodes and levels
                                         where |f| > _DENSITY_FLOOR,
        dB/dt + dB/dx - rho              over interior nodes and levels.

    Needs at least three stored levels for the centered time difference.
    """
    if solution.n_levels < 3:
        raise ValueError("residuals need at least three time levels")
    grid = solution.grid
    dt = solution.dt
    b = np.stack([lv.values for lv in solution.b_levels])
    rho = np.stack([density_moment(lv).values for lv in solution.f_levels])

    # Level by level, with a window of three full lattices, so no
    # temporary spans all levels of the lattice.
    v_inner = grid.v_nodes[None, 1:-1]
    level_res = []
    before, here = (lv.values for lv in solution.f_levels[:2])
    for k in range(1, solution.n_levels - 1):
        after = solution.f_levels[k + 1].values
        interior = here[1:-1, 1:-1]
        dtf = (after[1:-1, 1:-1] - before[1:-1, 1:-1]) / (2.0 * dt)
        dxf = (here[2:, 1:-1] - here[:-2, 1:-1]) / (2.0 * grid.dx)
        dvf = (here[1:-1, 2:] - here[1:-1, :-2]) / (2.0 * grid.dv)
        res_f = dtf + v_inner * dxf + b[k, 1:-1, None] * dvf
        carrying = np.abs(interior) > _DENSITY_FLOOR
        if carrying.any():
            level_res.append(np.max(np.abs(res_f[carrying])))
        before, here = here, after
    density_res = float(np.max(level_res)) if level_res else 0.0

    dtb = (b[2:, 1:-1] - b[:-2, 1:-1]) / (2.0 * dt)
    dxb = (b[1:-1, 2:] - b[1:-1, :-2]) / (2.0 * grid.dx)
    field_res = float(np.max(np.abs(dtb + dxb - rho[1:-1, 1:-1])))
    return density_res, field_res


@dataclass(frozen=True)
class ScenarioReport:
    passed: bool
    field_min: float
    field_min_tol: float
    support_infima: tuple
    max_support_drop: float
    support_drop_tol: float

    def __bool__(self):
        return self.passed


# Slack below zero that scenario_monotone_check allows the field minimum.
_FIELD_MIN_TOL = 1e-8


def scenario_hypothesis_check(f0: DensityField, b0: TransportField) -> None:
    """Raise ScenarioHypothesisError unless the level-0 data meet the
    sign-definite scenario's hypotheses: f(0) >= 0 with velocity support
    strictly above 1, and B(0) >= 0.

    Off its block f(0) is +0.0, so the block's minimum decides the sign
    (a NaN minimum passes, as it does over the full lattice).
    """
    if f0.block.size and float(f0.block.min()) < 0.0:
        raise ScenarioHypothesisError("initial density must be nonnegative")
    inf0 = support_infimum(f0)
    if not inf0 > 1.0:
        raise ScenarioHypothesisError(
            f"initial velocity support must sit above 1 (found {inf0})")
    if float(b0.values.min()) < 0.0:
        raise ScenarioHypothesisError("initial field must be nonnegative")


def scenario_monotone_check(solution: SolutionHistory) -> ScenarioReport:
    """Check the sign-definite scenario: B stays nonnegative and the lowest
    occupied velocity never falls.

    The hypotheses on the data are checked first
    (scenario_hypothesis_check).  B may dip _FIELD_MIN_TOL below zero, and
    the lowest occupied velocity may fall by one velocity cell per level.
    """
    f0 = solution.f_levels[0]
    scenario_hypothesis_check(f0, solution.b_levels[0])
    thr = _threshold_for(f0, None)
    support_drop_tol = solution.grid.dv * (1.0 + 1e-9)
    field_min = min(float(b.values.min()) for b in solution.b_levels)
    infima = tuple(support_infimum(f, thr) for f in solution.f_levels)
    drops = [infima[k] - infima[k + 1] for k in range(len(infima) - 1)
             if math.isfinite(infima[k]) and math.isfinite(infima[k + 1])]
    max_drop = max(drops) if drops else 0.0
    passed = (field_min >= -_FIELD_MIN_TOL) and (max_drop <= support_drop_tol)
    return ScenarioReport(passed, field_min, _FIELD_MIN_TOL, infima,
                          max_drop, support_drop_tol)


@dataclass(frozen=True)
class ContinuationReport:
    """Growth of the derivative sum against a cap and an optional envelope."""

    times: np.ndarray
    derivative_sum: np.ndarray
    cap: float
    flagged: bool
    first_flagged_level: int | None

    def __bool__(self):
        # Truthy when continuation looks safe.
        return not self.flagged


def continuation_indicator(trace: DiagnosticsTrace, cap: float | None = None,
                           majorant: MajorantResult | None = None
                           ) -> ContinuationReport:
    """Flag blow-up suspicion from the growth of |dxf| + |dvf| sups.

    The cap defaults to 10^3 times the level-0 sum (or an absolute 1.0
    floor if that sum vanishes).  With a majorant supplied, levels past
    its blow-up time or above its envelope are flagged as well.
    """
    series = trace.dxf_sup + trace.dvf_sup
    if cap is None:
        base = series[0] if series.size and series[0] > 0 else 1.0
        cap = 1e3 * base
    flagged_levels = series > cap
    if majorant is not None:
        t_ok = majorant.times[-1]
        envelope = np.interp(trace.times, majorant.times, majorant.values,
                             right=math.inf)
        beyond = trace.times > t_ok + 1e-12
        flagged_levels = flagged_levels | beyond | (series > envelope)
    if flagged_levels.any():
        first = int(np.argmax(flagged_levels))
        return ContinuationReport(trace.times, series, float(cap), True,
                                  first)
    return ContinuationReport(trace.times, series, float(cap), False, None)


@dataclass(frozen=True)
class HolderReport:
    """sup_x,t |B(t, x+h) - B(t, x)| and the h^{1/2} quotients, both axes."""

    space_offsets: np.ndarray
    space_sup: np.ndarray
    space_quotient: np.ndarray
    time_offsets: np.ndarray
    time_sup: np.ndarray
    time_quotient: np.ndarray


def _offset_cells(offsets, spacing: float, limit: int, axis_name: str):
    cells = []
    for h in offsets:
        m = h / spacing
        m_int = round(m)
        if m_int < 1 or abs(m - m_int) > 1e-6 * max(1.0, abs(m)):
            raise ValueError(
                f"{axis_name} offset {h} is not a positive multiple of the "
                f"{axis_name} spacing {spacing}")
        if m_int > limit:
            raise ValueError(
                f"{axis_name} offset {h} exceeds half the {axis_name} extent")
        cells.append(m_int)
    return cells


def holder_quotient(b_levels: Sequence[TransportField], dt: float,
                    space_offsets=None, time_offsets=None) -> HolderReport:
    """Square-root modulus table for a stack of field levels.

    Offsets must be positive multiples of the spacing on their axis and at
    most half the extent.  Defaults pick dyadic cell counts 1, 2, 4, ...
    up to half the axis.  The sup for each offset runs jointly over all
    levels and all valid positions.
    """
    if not b_levels:
        raise ValueError("need at least one field level")
    grid = b_levels[0].grid
    stack = np.stack([b.values for b in b_levels])
    n_levels = stack.shape[0]

    def dyadic(limit):
        out = [1]
        while out[-1] * 2 <= limit:
            out.append(out[-1] * 2)
        return out

    x_limit = (grid.nx - 1) // 2
    if space_offsets is None:
        space_cells = dyadic(x_limit)
    else:
        space_cells = _offset_cells(space_offsets, grid.dx, x_limit, "space")
    t_limit = (n_levels - 1) // 2
    if time_offsets is None:
        time_cells = dyadic(t_limit) if t_limit >= 1 else []
    else:
        if t_limit < 1:
            raise ValueError("time offsets need at least three levels")
        time_cells = _offset_cells(time_offsets, dt, t_limit, "time")

    hs = np.array([m * grid.dx for m in space_cells])
    h_sup = np.array([float(np.max(np.abs(stack[:, m:] - stack[:, :-m])))
                      for m in space_cells])
    taus = np.array([m * dt for m in time_cells])
    t_sup = np.array([float(np.max(np.abs(stack[m:] - stack[:-m])))
                      for m in time_cells])
    return HolderReport(hs, h_sup, h_sup / np.sqrt(hs),
                        taus, t_sup,
                        t_sup / np.sqrt(taus) if taus.size else t_sup)
