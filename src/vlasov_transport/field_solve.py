"""Force-field updates driven by velocity moments of the density.

The field obeys a unit-speed transport equation with the density's zeroth
velocity moment as source.  Integrating along the incoming line gives the
representation

    B(t, x) = B0(x - t) + int_0^t rho(s, x - t + s) ds,

and differentiating it in x gives the same quadrature applied to the
spatial derivative of the density.  All time integrals here use the
composite trapezoid rule on the uniform level spacing; spatial evaluation
between nodes uses the cubic lattice interpolation from phase_space.
Moment profiles read as zero outside their axis (they inherit the
density's compact support); the initial field is a closed-form callable,
defined everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .phase_space import (DensityField, PhaseGrid, TransportField,
                          _cubic_table, _freeze, interp_profile)

__all__ = [
    "MomentProfile",
    "BoundReport",
    "density_moment",
    "field_from_history",
    "advance_field",
    "conservative_data_constant",
    "field_sup_bound_check",
    "field_derivative_bound_check",
    "trapezoid_uniform",
    "cumtrapz_uniform",
]


def trapezoid_uniform(y: np.ndarray, h: float, axis: int = -1) -> np.ndarray:
    """Composite trapezoid with uniform spacing h along one axis."""
    y = np.asarray(y, dtype=float)
    if y.shape[axis] < 2:
        raise ValueError("trapezoid needs at least two samples")
    first = np.take(y, 0, axis=axis)
    last = np.take(y, -1, axis=axis)
    return h * (y.sum(axis=axis) - 0.5 * (first + last))


def cumtrapz_uniform(y: np.ndarray, h: float) -> np.ndarray:
    """Cumulative trapezoid along a 1D sample array, starting at 0."""
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum(0.5 * h * (y[1:] + y[:-1]), out=out[1:])
    return out


@dataclass(frozen=True)
class MomentProfile:
    """Velocity moment of a density on the spatial axis at a fixed time."""

    grid: PhaseGrid
    values: np.ndarray
    time: float

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        if self.values.shape != (self.grid.nx,):
            raise ValueError("moment profile shape does not match grid x-axis")

    @cached_property
    def _table(self) -> np.ndarray:
        # Built on the first lookup and kept: a moment level is read by
        # every later field rebuild of a Picard sweep.
        return _cubic_table(self.values)

    def at(self, x, monotone: bool = False):
        # Zero outside the axis: the moment inherits compact support.
        return interp_profile(self.grid.x_min, self.grid.dx, None, x,
                              out_of_range="zero", monotone=monotone,
                              table=self._table)


def density_moment(f: DensityField) -> MomentProfile:
    """Zeroth velocity moment rho(x) = int f(x, v) dv (trapezoid in v).

    Rows off the block are +0.0, and so is their trapezoid.  The block's
    rows are widened to the whole v axis first, so that numpy's pairwise
    sum groups the terms of each row as it does over the full lattice.
    """
    grid = f.grid
    values = np.zeros(grid.nx)
    if f.block.size:
        rows, cols = f.slices
        full_rows = np.zeros((f.block.shape[0], grid.nv))
        full_rows[:, cols] = f.block
        values[rows] = trapezoid_uniform(full_rows, grid.dv, axis=1)
    return MomentProfile(grid, values, f.time)


def _eval_initial_field(b0: Callable, x):
    return np.asarray(b0(np.asarray(x, dtype=float)), dtype=float)


def field_from_history(b0, moments: Sequence[MomentProfile], t: float,
                       monotone: bool = False) -> TransportField:
    """Rebuild B(t) from the initial field and the moment levels on [0, t].

    moments must be uniformly spaced in time from 0 to t.  With a single
    level, t must be 0 and the result is B0 sampled on the grid.
    """
    if not moments:
        raise ValueError("need at least the level at time 0")
    grid = moments[0].grid
    x = grid.x_nodes
    n = len(moments)
    if n == 1:
        if abs(t) > 1e-12:
            raise ValueError("a single moment level only reconstructs t = 0")
        return TransportField(grid, _eval_initial_field(b0, x), 0.0)
    dt = t / (n - 1)
    for k, m in enumerate(moments):
        if abs(m.time - k * dt) > 1e-9 * max(1.0, abs(t)):
            raise ValueError("moment levels must be uniformly spaced on [0, t]")
    samples = np.stack([m.at(x - t + k * dt, monotone=monotone)
                        for k, m in enumerate(moments)])
    values = _eval_initial_field(b0, x - t) + trapezoid_uniform(samples, dt,
                                                                axis=0)
    return TransportField(grid, values, t)


def advance_field(b_t: TransportField, rho_t: MomentProfile,
                  rho_next: MomentProfile, dt: float,
                  inflow: Callable | None = None,
                  monotone: bool = False) -> TransportField:
    """One transport step of the field:

        B(t+dt, x) = B(t, x-dt) + dt/2 * (rho(t, x-dt) + rho(t+dt, x)).

    Composing steps from t = 0 reproduces field_from_history exactly when
    dt is a whole number of cells (the shifted points then land on nodes).
    x - dt drops off the left edge of the axis for the first few nodes;
    inflow(y) must supply B(t, y) there.  In a properly truncated domain
    the moment vanishes near the edge, so inflow is the transported
    initial field B0(y - t).  Without inflow such queries raise.
    """
    shift = _field_shift(b_t, rho_t, dt, inflow=inflow, monotone=monotone)
    return _finish_field(b_t, shift, rho_next, dt)


def _field_shift(b_t: TransportField, rho_t: MomentProfile, dt: float,
                 inflow: Callable | None = None, monotone: bool = False):
    """(B(t, x-dt), rho(t, x-dt)) on the nodes: the part of advance_field
    that does not read rho(t+dt), for callers that finish it twice."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = b_t.grid
    shifted = grid.x_nodes - dt
    if inflow is None:
        b_shift = interp_profile(grid.x_min, grid.dx, b_t.values, shifted,
                                 out_of_range="error", monotone=monotone)
    else:
        inside = shifted >= grid.x_min - 1e-12 * max(1.0, grid.dx)
        b_shift = np.empty_like(shifted)
        if np.any(inside):
            b_shift[inside] = interp_profile(
                grid.x_min, grid.dx, b_t.values,
                np.clip(shifted[inside], grid.x_min, None),
                out_of_range="error", monotone=monotone)
        if np.any(~inside):
            b_shift[~inside] = np.asarray(inflow(shifted[~inside]), dtype=float)
    return b_shift, rho_t.at(shifted, monotone=monotone)


def _finish_field(b_t: TransportField, shift, rho_next: MomentProfile,
                  dt: float) -> TransportField:
    """B(t+dt) from _field_shift's pair and the moment at t + dt."""
    b_shift, rho_shift = shift
    return TransportField(b_t.grid,
                          b_shift + 0.5 * dt * (rho_shift + rho_next.values),
                          b_t.time + dt)


@dataclass(frozen=True)
class BoundReport:
    """Outcome of an a priori bound check over the stored levels."""

    satisfied: bool
    max_ratio: float
    worst_level: int

    def __bool__(self):
        return self.satisfied


def conservative_data_constant(f0_sup: float, b0_sup: float) -> float:
    """Data constant C = max(|B0|_inf, 1) * max(2 |f0|_inf, 1).

    C dominates both |B0|_inf and the moment growth factor 2 |f0|_inf, so
    |B(t)|_inf <= C (1 + int_0^t P(s) ds) with P the velocity support
    radius.  Deliberately conservative: both factors are floored at 1.
    """
    return max(abs(b0_sup), 1.0) * max(2.0 * abs(f0_sup), 1.0)


def field_sup_bound_check(b_sups: np.ndarray, p_series: np.ndarray, dt: float,
                          c: float, dv: float = 0.0) -> BoundReport:
    """Check |B(t_k)|_inf <= C (1 + int_0^{t_k} P) on measured level data.

    The integral is the trapezoid of the measured support radii; the slack
    per level covers the quadrature error of a monotone integrand plus the
    dv quantisation of the measured support.
    """
    b_sups = np.asarray(b_sups, dtype=float)
    p_series = np.asarray(p_series, dtype=float)
    integral = cumtrapz_uniform(p_series, dt)
    times = dt * np.arange(b_sups.size)
    slack = c * (times * dv + 0.5 * dt * np.abs(p_series - p_series[0])
                 + 1e-12)
    bound = c * (1.0 + integral) + slack
    ratios = b_sups / bound
    worst = int(np.argmax(ratios))
    return BoundReport(bool(np.all(b_sups <= bound)), float(ratios[worst]),
                       worst)


def field_derivative_bound_check(dxb_sups: np.ndarray, dxf_sups: np.ndarray,
                                 dt: float, c_t: float) -> BoundReport:
    """Check |dxB(t_k)|_inf <= C_T (1 + int_0^{t_k} |dxf|_inf) on level data.

    C_T follows the same convention as conservative_data_constant with the
    initial field's derivative sup and the largest support radius in place
    of the two data sups.
    """
    dxb_sups = np.asarray(dxb_sups, dtype=float)
    dxf_sups = np.asarray(dxf_sups, dtype=float)
    integral = cumtrapz_uniform(dxf_sups, dt)
    bound = c_t * (1.0 + integral) + 1e-12
    ratios = dxb_sups / bound
    worst = int(np.argmax(ratios))
    return BoundReport(bool(np.all(dxb_sups <= bound)), float(ratios[worst]),
                       worst)
