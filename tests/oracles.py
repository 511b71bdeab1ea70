"""References that the tests check the package against.

AnalyticFieldHistory is a field history from a formula B(s, x), and
constant_field_oracle the exact trajectory under a constant field; the
tracer is checked against both.  full_lattice_diagnostics and
full_lattice_pde_residual read every density level as its full lattice,
and the windowed diagnostics must match them bitwise.
characteristic_accumulator rebuilds every field level of a history from
one read per moment, and must match field_from_history bitwise.
stacked_field_rebuild is field_from_history's trapezoid over the stack
of its moment reads, which the running sum must match bitwise.
concatenated_range_bound is LatticeFieldHistory.range_bound's row-sum
formula over one copy of both tables, which the in-place bound must
match bitwise.  No program path uses them.
"""

from typing import Callable

import numpy as np

from vlasov_transport.analysis import (_DENSITY_FLOOR, DiagnosticsTrace,
                                       _lowest, _occupied_velocities,
                                       _radius, _threshold_for)
from vlasov_transport.field_solve import density_moment, trapezoid_uniform


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


def constant_field_oracle(x, v, t: float, s: float, b: float):
    """Closed-form trajectory for a constant field B = b:

        X(s) = x + v (s - t) + b (s - t)^2 / 2,   V(s) = v + b (s - t).
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    h = s - t
    return x + v * h + 0.5 * b * h * h, v + b * h


def concatenated_range_bound(history):
    """(lo, hi) of a LatticeFieldHistory from its tables' rows in one copy.

    Each row (a0, a1, a2, a3) of the level and half-level tables gives
    a0 -+ (|a1| + |a2| + |a3|), summed along the row; lo and hi are the
    smallest and largest over every row of both tables.
    """
    rows = np.concatenate([history._tables.reshape(-1, 4),
                           history._half_tables.reshape(-1, 4)])
    wobble = np.abs(rows[:, 1:]).sum(axis=1)
    return (float(np.min(rows[:, 0] - wobble)),
            float(np.max(rows[:, 0] + wobble)))


def characteristic_accumulator(b0: Callable, moments, dt: float):
    """The node values of B at every level t_k = k dt, k < len(moments).

    p = dx / dt must be a whole number.  Node i at level k lies on the
    field characteristic with label m = p i - k, on which
    field_from_history reads moment j at x_min + (m + j) dt.  Each moment
    is read once at every label, and the reads go into a running sum S
    in j order, as numpy's axis-0 sum adds the rows.  Level k is then
    trapezoid_uniform's formula on S, the first read and the k-th.
    """
    grid = moments[0].grid
    p = round(grid.dx / dt)
    if p < 1 or p * dt != grid.dx:
        raise ValueError(f"dx / dt = {grid.dx / dt} is not a whole number")
    m_lo = -(len(moments) - 1)
    labels = np.arange(m_lo, p * (grid.nx - 1) + 1)
    x = grid.x_nodes
    levels = [b0(x)]
    for j, moment in enumerate(moments):
        read = moment.at(grid.x_min + (labels + j) * dt)
        if j == 0:
            first, total = read, read.copy()
            continue
        total += read
        ii = p * np.arange(grid.nx) - j - m_lo
        levels.append(b0(x - j * dt)
                      + dt * (total[ii] - 0.5 * (first[ii] + read[ii])))
    return levels


def stacked_field_rebuild(b0: Callable, moments, t: float,
                          monotone: bool = False) -> np.ndarray:
    """The node values of B(t) from b0 and the moment levels on [0, t].

    Moment k is read at x - t + k dt, the reads are stacked into a
    (k + 1) x nx array, and trapezoid_uniform sums it along axis 0.
    """
    x = moments[0].grid.x_nodes
    dt = t / (len(moments) - 1)
    samples = np.stack([m.at(x - t + k * dt, monotone=monotone)
                        for k, m in enumerate(moments)])
    return b0(x - t) + trapezoid_uniform(samples, dt, axis=0)


def full_lattice_diagnostics(solution) -> DiagnosticsTrace:
    """compute_diagnostics with every level read as its full lattice."""
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
        occupied = _occupied_velocities(f, thr)
        running = max(running, _radius(occupied))
        out["support_radius"][k] = running
        out["support_inf"][k] = _lowest(occupied)
        out["dxf_sup"][k] = float(np.max(np.abs(
            np.gradient(values, grid.dx, axis=0, edge_order=2))))
        out["dvf_sup"][k] = float(np.max(np.abs(
            np.gradient(values, grid.dv, axis=1, edge_order=2))))
        out["dxb_sup"][k] = float(np.max(np.abs(
            np.gradient(b.values, grid.dx, edge_order=2))))
    return DiagnosticsTrace(times=solution.times, **out)


def full_lattice_pde_residual(solution):
    """pde_residual with every level read as its full lattice."""
    grid = solution.grid
    dt = solution.dt
    b = np.stack([lv.values for lv in solution.b_levels])
    rho = np.stack([density_moment(lv).values for lv in solution.f_levels])
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
