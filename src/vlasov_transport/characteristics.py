"""Backward characteristic tracing for the kinetic transport equation.

A phase-space trajectory through (x, v) at time t solves

    dX/ds = V,    dV/ds = B(s, X),    X(t) = x,  V(t) = v,

integrated backward to s = 0 with classical RK4 in uniform substeps.  The
density at (t, x, v) is then the initial density evaluated at the foot
point (X(0), V(0)).  The force field along the way comes from a field
history: either a closed-form function of (s, x) or a stack of lattice
profiles at uniform time levels, interpolated linearly in time and
cubically in space.  Tracing is data parallel: bundles of trajectories are
advanced as whole arrays, one RK4 update per substep, with no interaction
between trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .phase_space import (DomainExitError, PhaseGrid, _cubic_table,
                          interp_profile)

__all__ = [
    "CharacteristicBundle",
    "AnalyticFieldHistory",
    "LatticeFieldHistory",
    "trace_states",
    "trace_backward",
    "trace_backward_sampled",
    "constant_field_oracle",
]

_TIME_SNAP = 1e-9


@dataclass(frozen=True)
class CharacteristicBundle:
    """Foot points at s = 0 for every grid node at departure time t."""

    grid: PhaseGrid
    t: float
    x0: np.ndarray
    v0: np.ndarray

    def __post_init__(self):
        shape = (self.grid.nx, self.grid.nv)
        if self.x0.shape != shape or self.v0.shape != shape:
            raise ValueError("bundle arrays must have shape (nx, nv)")


class AnalyticFieldHistory:
    """Field history from a closed-form B(s, x), defined on all of R."""

    def __init__(self, fn: Callable, sup_bound: float):
        self._fn = fn
        self._sup = sup_bound

    @classmethod
    def constant(cls, b: float) -> "AnalyticFieldHistory":
        value = float(b)
        return cls(lambda s, x: np.full(np.shape(np.asarray(x, float)), value),
                   sup_bound=abs(value))

    def eval(self, s: float, x):
        return np.asarray(self._fn(s, np.asarray(x, dtype=float)), dtype=float)

    def range_bound(self):
        """(lo, hi) bounding every value eval returns: +-sup_bound."""
        return -self._sup, self._sup


class LatticeFieldHistory:
    """Field levels on a shared spatial axis at uniform time spacing.

    eval(s, x) blends the two bracketing levels linearly in time and
    interpolates the blended profile cubically along x.  The history keeps
    a read-only copy of its levels and builds the power-form tables of
    every level and of every halfway blend once, at construction.  A time
    on a level or halfway between two reads its table; any other time
    builds the table of its blend.  range_bound() bounds every value eval
    can return, overshoot of the cubic between nodes included; sup_bound()
    is the largest node value only.  Queries outside the spatial axis
    raise DomainExitError, with the time appended: a trajectory that
    leaves the truncated domain cannot be integrated further, the domain
    was sized too small.
    """

    def __init__(self, grid: PhaseGrid, values: np.ndarray, dt: float,
                 t0: float = 0.0):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != grid.nx:
            raise ValueError("history stack must have shape (levels, nx)")
        if values.shape[0] < 1:
            raise ValueError("history needs at least one level")
        if dt <= 0:
            raise ValueError("level spacing must be positive")
        # Column a0 of a power-form table is the node values, so the
        # tables double as the history's own read-only copy of its levels.
        self._tables = _cubic_table(values)
        self._tables.setflags(write=False)
        self.grid = grid
        self.values = self._tables[..., 0]
        self.dt = float(dt)
        self.t0 = float(t0)
        # The blends at theta = 1/2, where the two middle stages of an RK4
        # step of one level spacing land.
        self._half_tables = _cubic_table(0.5 * self.values[:-1]
                                         + 0.5 * self.values[1:])
        self._range = None

    @property
    def t_max(self) -> float:
        return self.t0 + (self.values.shape[0] - 1) * self.dt

    def sup_bound(self) -> float:
        return float(np.max(np.abs(self.values)))

    def range_bound(self):
        """(lo, hi) bounding every value eval returns, up to rounding.

        On a cell row, |p(t) - a0| <= |a1| + |a2| + |a3| for t in [0, 1].
        A blend at any other theta is a pointwise convex combination of
        two level interpolants, so the rows of the tables bound it too.
        Worked out on the first call, from the tables built already.
        """
        if self._range is None:
            rows = np.concatenate([self._tables.reshape(-1, 4),
                                   self._half_tables.reshape(-1, 4)])
            wobble = np.abs(rows[:, 1:]).sum(axis=1)
            self._range = (float(np.min(rows[:, 0] - wobble)),
                           float(np.max(rows[:, 0] + wobble)))
        return self._range

    def eval(self, s: float, x):
        levels = self.values.shape[0]
        pos = (s - self.t0) / self.dt
        nearest = round(pos)
        if abs(pos - nearest) <= _TIME_SNAP:
            pos = float(nearest)
        if pos < -_TIME_SNAP or pos > (levels - 1) + _TIME_SNAP:
            raise ValueError(
                f"time {s} outside history range [{self.t0}, {self.t_max}]")
        pos = min(max(pos, 0.0), float(levels - 1))
        # int floors, so theta < 1; the last level reads its own table.
        k = int(pos)
        theta = pos - k
        # The interpolant is linear in the node values, so blending the
        # two levels first costs one lookup instead of two.
        if theta == 0.0:
            table = self._tables[k]
        elif theta == 0.5:
            table = self._half_tables[k]
        else:
            table = _cubic_table((1.0 - theta) * self.values[k]
                                 + theta * self.values[k + 1])
        try:
            return interp_profile(self.grid.x_min, self.grid.dx, None, x,
                                  table=table)
        except DomainExitError as exc:
            raise DomainExitError(f"{exc} at t = {s:.6g}") from exc


def _rk4_step(x, v, s, ds, field):
    """One RK4 update of dX/ds = V, dV/ds = B(s, X) on whole arrays."""
    k1x = v
    k1v = field.eval(s, x)
    k2x = v + 0.5 * ds * k1v
    k2v = field.eval(s + 0.5 * ds, x + 0.5 * ds * k1x)
    k3x = v + 0.5 * ds * k2v
    k3v = field.eval(s + 0.5 * ds, x + 0.5 * ds * k2x)
    k4x = v + ds * k3v
    k4v = field.eval(s + ds, x + ds * k3x)
    x_new = x + (ds / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    v_new = v + (ds / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return x_new, v_new


def trace_states(x, v, t: float, s_end: float, field, substeps: int):
    """Integrate arrays of states from time t to s_end in uniform substeps."""
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    x = np.array(x, dtype=float, copy=True)
    v = np.array(v, dtype=float, copy=True)
    if t == s_end:
        return x, v
    ds = (s_end - t) / substeps
    s = t
    for k in range(substeps):
        x, v = _rk4_step(x, v, s, ds, field)
        s = t + (k + 1) * ds
    return x, v


def trace_backward(grid: PhaseGrid, field, t: float,
                   substeps: int) -> CharacteristicBundle:
    """Foot points at s = 0 of the trajectories through every grid node."""
    if t < 0:
        raise ValueError("departure time must be nonnegative")
    xg = np.broadcast_to(grid.x_nodes[:, None], (grid.nx, grid.nv))
    vg = np.broadcast_to(grid.v_nodes[None, :], (grid.nx, grid.nv))
    if t == 0:
        return CharacteristicBundle(grid, 0.0, xg.copy(), vg.copy())
    x0, v0 = trace_states(xg, vg, t, 0.0, field, substeps)
    return CharacteristicBundle(grid, t, x0, v0)


def trace_backward_sampled(x, v, t: float, sample_times: Sequence[float],
                           field):
    """Backward trace with states recorded at given descending times.

    sample_times must start at t and decrease; one RK4 step spans each
    interval between them.  Returns two arrays with a leading axis over
    sample times.  Used for path integrals along the characteristics, for
    instance in derivative representations.
    """
    times = np.asarray(sample_times, dtype=float)
    if times.size == 0 or abs(times[0] - t) > _TIME_SNAP:
        raise ValueError("sample times must start at the departure time")
    if np.any(np.diff(times) >= 0):
        raise ValueError("sample times must strictly decrease")
    x = np.array(x, dtype=float, copy=True)
    v = np.array(v, dtype=float, copy=True)
    xs = [x.copy()]
    vs = [v.copy()]
    for k in range(times.size - 1):
        x, v = trace_states(x, v, times[k], times[k + 1], field, 1)
        xs.append(x.copy())
        vs.append(v.copy())
    return np.stack(xs), np.stack(vs)


def constant_field_oracle(x, v, t: float, s: float, b: float):
    """Closed-form trajectory for a constant field B = b:

        X(s) = x + v (s - t) + b (s - t)^2 / 2,   V(s) = v + b (s - t).
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    h = s - t
    return x + v * h + 0.5 * b * h * h, v + b * h
