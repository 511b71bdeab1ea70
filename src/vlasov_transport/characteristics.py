"""Backward characteristic tracing for the kinetic transport equation.

A phase-space trajectory through (x, v) at time t solves

    dX/ds = V,    dV/ds = B(s, X),    X(t) = x,  V(t) = v,

integrated backward to s = 0 with classical RK4 in uniform substeps.  The
density at (t, x, v) is then the initial density evaluated at the foot
point (X(0), V(0)).  The force field along the way comes from a field
history: a stack of lattice profiles at uniform time levels, interpolated
linearly in time and cubically in space.  Tracing is data parallel:
bundles of trajectories are advanced as whole arrays, one RK4 update per
substep, with no interaction between trajectories.
"""

from __future__ import annotations

import numpy as np

from .phase_space import (DomainExitError, PhaseGrid, _cubic_table,
                          interp_profile)

__all__ = ["LatticeFieldHistory", "trace_states"]

_TIME_SNAP = 1e-9


class LatticeFieldHistory:
    """Field levels on a shared spatial axis at uniform time spacing.

    eval(s, x) blends the two bracketing levels linearly in time and
    interpolates the blended profile cubically along x.  The history keeps
    a read-only copy of its levels and builds the power-form tables of
    every level and of every halfway blend once, at construction.  A time
    within _TIME_SNAP level spacings of a level or of a half-level reads
    its table, so the middle stages of an RK4 step land on a cached table
    even when dt is not dyadic; any other time builds the table of its
    blend.  range_bound() bounds every value eval can return, overshoot of
    the cubic between nodes included; sup_bound() is the largest node
    value only.  Queries outside the spatial axis raise DomainExitError,
    with the time appended: a trajectory that leaves the truncated domain
    cannot be integrated further, the domain was sized too small.
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
        elif abs(theta - 0.5) <= _TIME_SNAP:
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
    """Integrate arrays of states from time t to s_end in uniform substeps.

    Returns new arrays: with t == s_end, copies of x and v.
    """
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
