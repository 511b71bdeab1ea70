"""Force-field updates driven by velocity moments of the density.

The field obeys a unit-speed transport equation with the density's zeroth
velocity moment as source.  Integrating along the incoming line gives the
representation

    B(t, x) = B0(x - t) + int_0^t rho(s, x - t + s) ds,

and differentiating it in x gives the same quadrature applied to the
spatial derivative of the density.  Picard rebuilds each level from the
whole moment history (field_from_history), Direct takes one step at a time
(advance_field).  All time integrals here use the composite trapezoid rule
on the uniform level spacing; spatial evaluation between nodes uses the
cubic lattice interpolation from phase_space.  Moment profiles read as
zero outside their axis (they inherit the density's compact support); the
initial field is closed-form and defined everywhere, so it is also the
field's inflow at the left edge of the axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .phase_space import (DensityField, TransportField, _Profile,
                          interp_profile)

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


class MomentProfile(_Profile):
    """Velocity moment of a density on the spatial axis at a fixed time."""

    _name = "moment"

    def at(self, x, monotone: bool = False):
        # Zero outside the axis: the moment inherits compact support.
        return interp_profile(self.grid.x_min, self.grid.dx, self._table, x,
                              out_of_range="zero", monotone=monotone)


def density_moment(f: DensityField) -> MomentProfile:
    """Zeroth velocity moment rho(x) = int f(x, v) dv (trapezoid in v).

    Rows off the block are +0.0, and so is their trapezoid.  The level is
    placed into its block's rows widened to the whole v axis first, so
    that numpy's pairwise sum groups the terms of each row as it does
    over the full lattice.
    """
    grid = f.grid
    values = np.zeros(grid.nx)
    rows = f.slices[0]
    full_rows = f.place(np.zeros((f.block_shape[0], grid.nv)), (rows.start, 0))
    values[rows] = trapezoid_uniform(full_rows, grid.dv, axis=1)
    return MomentProfile(grid, values, f.time)


def field_from_history(b0, moments: Sequence[MomentProfile], t: float,
                       monotone: bool = False) -> TransportField:
    """Rebuild B(t) from the initial field and the moment levels on [0, t].

    moments must be uniformly spaced in time from 0 to t (a single level
    gives B0 on the grid at t = 0).  The trapezoid is a running sum of the
    reads in the trapezoid's row order, bitwise, with O(nx) scratch.
    """
    if not moments:
        raise ValueError("need at least the level at time 0")
    grid = moments[0].grid
    x = grid.x_nodes
    n = len(moments)
    if n == 1:
        if abs(t) > 1e-12:
            raise ValueError("a single moment level only reconstructs t = 0")
        return TransportField(grid, b0(x), 0.0)
    dt = t / (n - 1)
    for k, m in enumerate(moments):
        if abs(m.time - k * dt) > 1e-9 * max(1.0, abs(t)):
            raise ValueError("moment levels must be uniformly spaced on [0, t]")
    reads = (m.at(x - t + k * dt, monotone=monotone)
             for k, m in enumerate(moments))
    total = (first := next(reads)).copy()
    for last in reads:
        total += last
    values = b0(x - t) + dt * (total - 0.5 * (first + last))
    return TransportField(grid, values, t)


def advance_field(b_t: TransportField, rho_t: MomentProfile, dt: float, b0,
                  monotone: bool = False):
    """One transport step of the field from t = b_t.time:

        B(t+dt, x) = B(t, x-dt) + dt/2 * (rho(t, x-dt) + rho(t+dt, x)).

    Reads B(t, x-dt) and rho(t, x-dt) once and returns finish(rho_end,
    time): the level at the caller's time, with rho_end for rho(t+dt).
    Steps composed from t = 0 reproduce field_from_history exactly when dt
    is a whole number of cells.  Where x - dt leaves the axis the moment
    vanishes, so B(t, y) = B0(y - t) is the only inflow: those nodes read
    b0.value(x - dt - t).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = b_t.grid
    shifted = grid.x_nodes - dt
    # The shifted nodes increase: those that read the inflow come first.
    split = np.searchsorted(shifted, grid.x_min - 1e-12 * max(1.0, grid.dx))
    b_shift = np.empty_like(shifted)
    b_shift[:split] = b0.value(shifted[:split] - b_t.time)
    b_shift[split:] = b_t.at(np.clip(shifted[split:], grid.x_min, None),
                             monotone=monotone)
    rho_shift = rho_t.at(shifted, monotone=monotone)

    def finish(rho_end: MomentProfile, time: float) -> TransportField:
        return TransportField(
            grid, b_shift + 0.5 * dt * (rho_shift + rho_end.values), time)

    return finish


@dataclass(frozen=True)
class BoundReport:
    """Outcome of an a priori bound check over the stored levels."""

    satisfied: bool
    max_ratio: float
    worst_level: int

    def __bool__(self):
        return self.satisfied


def _bound_report(measured: np.ndarray, bound: np.ndarray) -> BoundReport:
    ratios = measured / bound
    worst = int(np.argmax(ratios))
    return BoundReport(bool(np.all(measured <= bound)), float(ratios[worst]),
                       worst)


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
    return _bound_report(b_sups, c * (1.0 + integral) + slack)


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
    return _bound_report(dxb_sups, c_t * (1.0 + integral) + 1e-12)
