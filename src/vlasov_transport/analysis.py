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

from .characteristics import trace_states
from .field_solve import density_moment, trapezoid_uniform
from .phase_space import (DensityField, PhaseGrid, TransportField, _frame,
                          interp_lattice, place_window)
from .solver import SolutionHistory, _selected_nodes, _support_mask

__all__ = [
    "ScenarioHypothesisError",
    "DiagnosticsTrace",
    "ScenarioReport",
    "HolderReport",
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

    Off its block f is +0.0, which exceeds no threshold, so only the
    block is read, placed into zeros.
    """
    threshold = _threshold_for(f, threshold)
    block = f.place(np.zeros(f.block_shape), f.origin)
    hot = np.abs(block, out=block) > threshold
    return f.grid.v_nodes[f.slices[1]][hot.any(axis=0)]


def _radius(occupied: np.ndarray) -> float:
    return float(np.max(np.abs(occupied))) if occupied.size else 0.0


def _lowest(occupied: np.ndarray) -> float:
    return float(np.min(occupied)) if occupied.size else math.inf


def support_infimum(f: DensityField, threshold: float | None = None) -> float:
    """Lowest velocity carrying mass; +inf when the lattice is empty."""
    return _lowest(_occupied_velocities(f, threshold))


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
        cols = [self.times] + [getattr(self, name)
                               for name in self.COLUMNS[1:]]
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
        out["density_sup"][k] = f.sup_norm()
        out["field_sup"][k] = b.sup_norm()
        out["field_min"][k] = float(b.values.min())
        out["field_max"][k] = float(b.values.max())
        out["mass"][k] = float(trapezoid_uniform(density_moment(f).values,
                                                 grid.dx))
        occupied = _occupied_velocities(f, thr)
        running = max(running, _radius(occupied))
        out["support_radius"][k] = running
        out["support_inf"][k] = _lowest(occupied)
        # np.gradient's one-sided edge formula reads three nodes: past three
        # zero nodes round the block it reads zeros, as over the lattice.
        window = place_window((f,), 3)
        if window is not None:
            (values,), _ = window
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
    if box is None:
        return 0.0, 0.0
    hist = solution.field_history()
    # Three cells round the box, so the finite differences next to the
    # support are compared too.
    pad = ((box[0][0] - 3 * grid.dx, box[0][1] + 3 * grid.dx),
           (box[1][0] - 3 * grid.dv, box[1][1] + 3 * grid.dv))
    selection = _support_mask(grid, pad, t, *hist.range_bound())
    if selection is None:
        return 0.0, 0.0
    rs, cs, mask = selection
    xg, vg = _selected_nodes(grid, selection)
    path = [(xg, vg)]      # the path points at levels m, m - 1, ..., 0
    for k in range(m, 0, -1):
        path.append(trace_states(*path[-1], dt * k, dt * (k - 1), hist, 1))
    xs, vs = zip(*path[::-1])      # ascending level order 0..m

    gx = np.empty((m + 1, xg.size))
    gv = np.empty((m + 1, xg.size))
    for k in range(m + 1):
        f_k = solution.f_levels[k].values
        dxf_k = np.gradient(f_k, grid.dx, axis=0, edge_order=2)
        dvf_k = np.gradient(f_k, grid.dv, axis=1, edge_order=2)
        b_k = solution.b_levels[k]
        dxb_k = TransportField(grid, np.gradient(b_k.values, grid.dx,
                                                 edge_order=2), b_k.time)
        gx[k] = interp_lattice(grid, dxf_k, xs[k], vs[k])
        gv[k] = dxb_k.at(xs[k]) * interp_lattice(grid, dvf_k, xs[k], vs[k])
    rep_dv = f0.dv(xs[0], vs[0]) - trapezoid_uniform(gx, dt, axis=0)
    rep_dx = f0.dx(xs[0], vs[0]) - trapezoid_uniform(gv, dt, axis=0)
    # the loop's last pass left level m's finite differences
    return (float(np.max(np.abs(dvf_k[rs, cs][mask] - rep_dv))),
            float(np.max(np.abs(dxf_k[rs, cs][mask] - rep_dx))))


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
        values = 0.0 - values    # not -values: +0.0 stays +0.0
    return DensityField(new_grid, values, f.time)


def transform_field_level(b: TransportField, new_grid: PhaseGrid,
                          u: float) -> TransportField:
    a = _frame(u)
    xq = np.clip(a * new_grid.x_nodes - u * b.time,
                 b.grid.x_min, b.grid.x_max)
    values = (1.0 / a) * b.at(xq)
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

    # Over the blocks of levels k - 1..k + 1 widened by a node, whose
    # interior holds level k's interior block nodes and their neighbours.
    level_res = []
    for k in range(1, solution.n_levels - 1):
        window = place_window(solution.f_levels[k - 1:k + 2], 1)
        if window is None:
            continue
        (before, here, after), (i, j) = window
        rows = slice(i + 1, i + here.shape[0] - 1)
        v_inner = grid.v_nodes[None, j + 1:j + here.shape[1] - 1]
        interior = here[1:-1, 1:-1]
        dtf = (after[1:-1, 1:-1] - before[1:-1, 1:-1]) / (2.0 * dt)
        dxf = (here[2:, 1:-1] - here[:-2, 1:-1]) / (2.0 * grid.dx)
        dvf = (here[1:-1, 2:] - here[1:-1, :-2]) / (2.0 * grid.dv)
        res_f = dtf + v_inner * dxf + b[k, rows, None] * dvf
        carrying = np.abs(interior) > _DENSITY_FLOOR
        if carrying.any():
            level_res.append(np.max(np.abs(res_f[carrying])))
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

    Off its stored entries f(0) is +0.0, so their minimum decides the
    sign: a negative entry has nonzero bits, -0.0 is not below zero, and
    a NaN minimum passes, as it does over the full lattice.
    """
    if f0.data.size and float(f0.data.min()) < 0.0:
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
class HolderReport:
    """sup_x,t |B(t, x+h) - B(t, x)| and the h^{1/2} quotients, both axes."""

    space_offsets: np.ndarray
    space_sup: np.ndarray
    space_quotient: np.ndarray
    time_offsets: np.ndarray
    time_sup: np.ndarray
    time_quotient: np.ndarray


def _offset_cells(offsets, spacing: float, limit: int):
    cells = []
    for h in offsets:
        m = h / spacing
        m_int = round(m)
        if m_int < 1 or abs(m - m_int) > 1e-6 * max(1.0, abs(m)):
            raise ValueError(
                f"space offset {h} is not a positive multiple of the "
                f"space spacing {spacing}")
        if m_int > limit:
            raise ValueError(f"space offset {h} exceeds half the space extent")
        cells.append(m_int)
    return cells


def holder_quotient(b_levels: Sequence[TransportField], dt: float,
                    space_offsets=None) -> HolderReport:
    """Square-root modulus table for a stack of field levels.

    Space offsets must be positive multiples of dx and at most half the
    axis; by default, and always in time, the offsets are the dyadic cell
    counts 1, 2, 4, ... up to half the extent.  The sup for each offset
    runs jointly over all levels and all valid positions.
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
        space_cells = _offset_cells(space_offsets, grid.dx, x_limit)
    t_limit = (n_levels - 1) // 2
    time_cells = dyadic(t_limit) if t_limit >= 1 else []

    hs = np.array([m * grid.dx for m in space_cells])
    h_sup = np.array([float(np.max(np.abs(stack[:, m:] - stack[:, :-m])))
                      for m in space_cells])
    taus = np.array([m * dt for m in time_cells])
    t_sup = np.array([float(np.max(np.abs(stack[m:] - stack[:-m])))
                      for m in time_cells])
    return HolderReport(hs, h_sup, h_sup / np.sqrt(hs),
                        taus, t_sup,
                        t_sup / np.sqrt(taus) if taus.size else t_sup)
