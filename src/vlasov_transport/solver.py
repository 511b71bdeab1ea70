"""Solution engines for the coupled density/field transport system.

The system couples a kinetic equation for the density f

    df/dt + v df/dx + B df/dv = 0,      f(0) = f0,

to a unit-speed transport equation for the force field B whose source is
the velocity moment of f.  Two engines build discrete solution histories
on a shared grid and uniform time levels:

* solve_picard runs successive approximation.  Each iterate solves the
  linear kinetic equation against the previous field history by backward
  characteristics (the density is the initial family evaluated at the foot
  points, with no lattice interpolation of f at all), then rebuilds the
  field levels from the new moments via the line-integral representation.
  Iteration stops when the sup norm over all levels of both successive
  differences drops below a tolerance.  Against the frozen history the
  levels of a sweep do not depend on each other, so a sweep of at least
  _FORK_LEVELS levels is split with a forked child (_sweep_levels): each
  process takes the next unclaimed level from a shared counter whenever
  it is free, and the child streams the levels it claims back through a
  pipe.  The solving process traces the levels it claims and does
  everything else in level order, so every level is bitwise the
  one-process result.

* solve_direct marches level to level.  Each step predicts the next field
  with the current moment used twice, advects the density one step against
  the predicted field (one semi-Lagrangian lattice interpolation per
  step), then applies one trapezoid corrector with the new moment.

Both engines build a density level the same way (_traced_level): pick
nodes, trace them back with trace_states, read a value at their feet
and store the block round them.  Each engine owns only its selection
and its read.  Picard's level 0 goes through the builder too: traced
from t = 0 to 0, its nodes are their own feet.  Outside the selection
the density is exactly zero: a trajectory whose velocity stays too far
from the support velocity band, or whose position cannot reach the
support spatially in the time available, cannot carry mass.  Picard
bounds the reach by a signed range that every value of the interpolated
field history lies in (LatticeFieldHistory.range_bound) and reads f0.
Direct grows its support box by the field's largest node value per step,
keeps the box's nodes whose stencil can read a nonzero under the step
field's signed range, and interpolates the lattice.

A level is stored as a DensityField, which keeps only its nonzero
entries, so a sheared support costs its entries, not its box; this
module reads a level through place_window, place, slices and reductions
on data.  Neither engine builds a full lattice of a stored level: Direct
keeps the previous level in one scratch lattice that each step clears
block by block and refills by placing the new level, and Picard places
each new level and the previous iterate's into zeros over the union of
their blocks (place_window), compares them and drops the old one, so
one iterate and one level are alive at a time; in a split sweep, two
new levels, since the level the solving process claimed waits while the
child's earlier ones go in.

majorant_existence_time integrates the scalar comparison ODE

    F'(t) = C (1 + t F)^2,    F(0) = C,

whose finite blow-up time caps the interval on which the a priori
estimates above are known to close.  C = 0 never blows up.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import pickle
import select
import signal
import sys
import threading
from dataclasses import dataclass, field as dataclass_field
from typing import Sequence

import numpy as np

from .characteristics import LatticeFieldHistory, trace_states
from .field_solve import (MomentProfile, _field_shift, _finish_field,
                          density_moment, field_from_history)
from .phase_space import (DensityField, InitialDataSpec, PhaseGrid,
                          _bounding_slices, _read_range, _reads_nonzero,
                          interp_lattice, place_window, sample_initial_data)

__all__ = [
    "SolutionHistory",
    "PicardTrace",
    "MajorantResult",
    "advect_density",
    "solve_picard",
    "solve_direct",
    "majorant_existence_time",
]


@dataclass(frozen=True)
class SolutionHistory:
    """Density and field levels at uniform time spacing dt from t = 0."""

    grid: PhaseGrid
    dt: float
    f_levels: tuple
    b_levels: tuple
    initial_data: InitialDataSpec | None = None

    def __post_init__(self):
        if len(self.f_levels) != len(self.b_levels) or not self.f_levels:
            raise ValueError("history needs matching nonempty level lists")

    @property
    def n_levels(self) -> int:
        return len(self.f_levels)

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_levels)

    @property
    def t_final(self) -> float:
        return self.dt * (self.n_levels - 1)

    def field_history(self) -> LatticeFieldHistory:
        return LatticeFieldHistory(
            self.grid, np.stack([b.values for b in self.b_levels]), self.dt)


@dataclass(frozen=True)
class PicardTrace:
    """Successive-difference record of a Picard run."""

    field_diffs: tuple
    density_diffs: tuple
    iterations: int
    converged: bool


@dataclass(frozen=True)
class MajorantResult:
    c: float
    cap: float
    blowup_time: float
    times: np.ndarray
    values: np.ndarray

    @property
    def blew_up(self) -> bool:
        return math.isfinite(self.blowup_time)


def _levels_for(t_total: float, dt: float) -> int:
    if dt <= 0 or t_total <= 0:
        raise ValueError("T and dt must be positive")
    steps = t_total / dt
    k = round(steps) if math.isfinite(steps) else 0
    if k < 1 or abs(steps - k) > 1e-12 * max(1.0, steps):
        raise ValueError(f"dt = {dt} does not divide T = {t_total}")
    return k + 1


# Cells of slack on a foot window, in both engines: a foot's coordinate
# carries float error of about 1e-13 cells, and in a direct step _stencil
# snaps a query within 1e-8 cells onto a node, which can move it into the
# next cell.
_ROUNDING_SLACK = 1e-6


def _node_run(nodes: np.ndarray, lo: float, hi: float):
    """Slice of the (increasing) nodes in [lo, hi], or None if empty."""
    run = np.flatnonzero((nodes >= lo) & (nodes <= hi))
    if not run.size:
        return None
    return slice(run[0], run[-1] + 1)


def _support_mask(grid: PhaseGrid, box, t: float, lo: float, hi: float):
    """Selection of the nodes whose backward foot point can land in the box.

    lo <= B <= hi wherever the trace reads the field.  One RK4 step of
    size h maps (X, V) to

        V' = V + h (k1v + 2 k2v + 2 k3v + k4v) / 6,
        X' = X + h V + h^2 (k1v + k2v + k3v) / 6,

    and every stage value kiv lies in [lo, hi].  So V' - V lies in
    h [lo, hi] and X' - X - h V in (h^2 / 2) [lo, hi].  Composing k steps
    with k h = -t, the foot of node (x, v) lies in

        V(0) in v - t [lo, hi],    X(0) in x - t v + (t^2 / 2) [lo, hi],

    for the discrete trace as for the ODE.  A node is kept if both ranges
    meet the box.  The reach terms t [lo, hi] and (t^2 / 2) [lo, hi] are
    widened by 1e-9 of their size and by 1e-12, and the box by
    _ROUNDING_SLACK cells, for rounding.  For a sign-definite field the
    velocity moves one way only, and so does the window.  Returns the
    selection (rows, cols, mask) whose window rows x cols is the bounding
    box of the kept nodes, or None if no node is kept.
    """
    (x_lo, x_hi), (v_lo, v_hi) = box
    size = max(abs(lo), abs(hi))

    def reach(c):
        slack = c * size * 1e-9 + 1e-12
        return c * lo - slack, c * hi + slack

    reach_lo, reach_hi = reach(t)
    pad_v = _ROUNDING_SLACK * grid.dv
    band = _node_run(grid.v_nodes, v_lo + reach_lo - pad_v,
                     v_hi + reach_hi + pad_v)
    if band is None:
        return None
    reach_lo, reach_hi = reach(0.5 * t * t)
    pad_x = _ROUNDING_SLACK * grid.dx
    foot = grid.x_nodes[:, None] - t * grid.v_nodes[None, band]
    mask = ((foot + reach_hi + pad_x >= x_lo)
            & (foot + reach_lo - pad_x <= x_hi))
    window = _bounding_slices(mask)
    if window is None:
        return None
    rs, cs = window
    return (rs, slice(band.start + cs.start, band.start + cs.stop),
            mask[window])


def _selected_nodes(grid: PhaseGrid, selection):
    """Coordinates (x, v) of the nodes of selection = (rows, cols, mask),
    in the mask's row-major order."""
    rs, cs, mask = selection
    return (np.broadcast_to(grid.x_nodes[rs, None], mask.shape)[mask],
            np.broadcast_to(grid.v_nodes[None, cs], mask.shape)[mask])


def _traced_level(grid: PhaseGrid, selection, t: float, s_end: float,
                  field, substeps: int, read) -> DensityField:
    """The level at time t that holds read(x0, v0) at the selected nodes.

    selection is (rows, cols, mask), the nodes of the window rows x cols
    where mask is True, or None.  Each selected node is traced back from
    t to s_end in substeps RK4 steps against field, to its foot (x0, v0).
    Every other node is +0.0, and with no node selected nothing is traced.
    """
    block, origin = np.zeros((0, 0)), (0, 0)
    if selection is not None:
        rs, cs, mask = selection
        xg, vg = _selected_nodes(grid, selection)
        block, origin = np.zeros(mask.shape), (rs.start, cs.start)
        # The feet stay bound until the level is stored: freed sooner, malloc
        # returns pages that the next direct step faults in again.
        x0, v0 = trace_states(xg, vg, t, s_end, field, substeps)
        block[mask] = read(x0, v0)
    return DensityField._from_block(grid, block, origin, t)


def advect_density(f0, grid: PhaseGrid, field, t: float,
                   substeps: int) -> DensityField:
    """Solve the linear kinetic equation at time t for a given field.

    f0 is an initial-data family (value callable, support box, sup norm);
    the result evaluates f0 at the backward foot points, so the sup norm
    of the output never exceeds the sup norm of f0.  Only nodes whose foot
    can land in f0's support box are traced (_support_mask, on the
    field's range_bound); every other node, whose foot provably misses
    the box, and every node of a family without a box, is +0.0.  At t = 0
    the kept nodes are their own feet, and the field is never evaluated.
    """
    selection = None
    if f0.support is not None:
        selection = _support_mask(grid, f0.support, t, *field.range_bound())
    return _traced_level(grid, selection, t, 0.0, field, substeps, f0.value)


def _sup_distance(a: DensityField, b: DensityField) -> float:
    """max |a.values - b.values|, taken over the union of the two blocks.

    Both levels are +0.0 off their stored entries, so the number is the
    same, NaN included: subtracting +0.0 changes no bits.
    """
    window = place_window((a, b))
    if window is None:
        return 0.0
    (diff, other), _ = window
    diff -= other
    return float(np.max(np.abs(diff, out=diff)))


# A Picard sweep of at least this many levels splits its levels with a
# forked process.  A fork costs each sweep a few milliseconds of copied
# pages, and a sweep makes about 2 L^2 field lookups.  Fresh-process
# solves on a 2-CPU VM (default data, dt = dx/6, tol = 1e-8; medians of
# alternating pairs, one process -> split) set it.  At L = 21 the split
# was lower in 10 of 10 pairs on 33^2, 65^2 and 129^2 (106 -> 82,
# 111 -> 78, 103 -> 73 ms), and at L = 25 in 5 of 6 on 33^2 and 6 of 6 on
# 65^2 (178 -> 155, 196 -> 134 ms).  At L = 17 it won on 65^2, 129^2 and
# 257^2 (10/10, 10/10, 8/8) but not on 33^2 (69 -> 58 ms, 6/10; 129 ->
# 136 ms, 2/6), and at L = 13 and 9 it lost or tied (33^2 45 -> 53 ms,
# 3/8; 257^2 29 -> 29 ms, 2/8).
_FORK_LEVELS = 21


def _forks(n_levels: int) -> bool:
    """Whether a sweep of n_levels splits its levels between two
    processes: one of at least _FORK_LEVELS levels, in a process that
    runs no other Python thread (a fork copies only the calling one), on
    a platform with os.fork and at least two usable CPUs.  From CPython
    3.12 on, os.fork warns in a multi-threaded process, and numpy's BLAS
    keeps a thread, so there every sweep stays in one process."""
    return (n_levels >= _FORK_LEVELS and sys.version_info < (3, 12)
            and threading.active_count() == 1
            and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def _claim(token, end: int) -> int:
    """Claims the next level of a split sweep: reads its number from the
    token pipe (read_fd, write_fd), whose nonblocking read end holds one
    8-byte number, and writes the one after it back.  Waits on the token
    together with end, this process's end of the level pipe, whose POLLHUP
    or POLLERR says that the other process has gone.  Gone with the token
    still not back, it died holding it, and this raises EOFError.
    """
    watch = select.poll()
    watch.register(token[0], select.POLLIN)
    watch.register(end, 0)
    while True:
        try:
            n = int.from_bytes(os.read(token[0], 8), "little")
        except BlockingIOError:
            if (token[0] not in dict(watch.poll())
                    and token[0] not in dict(watch.poll(0))):
                raise EOFError("the token is lost") from None
            continue
        os.write(token[1], (n + 1).to_bytes(8, "little"))
        return n


def _stream_levels(make, n_levels: int, token, read_fd: int, write_fd: int):
    """In a forked child: claim levels until none is left below n_levels,
    and send make(k) for each claimed k down the pipe (read_fd, write_fd),
    in claim order, as a pickled DensityField._entries.  Leaves through
    os._exit, so none of the parent's buffers or exit handlers run twice.
    An exception from make is sent in the level's place and ends the
    stream; a write to a closed pipe, whose reader has gone, ends it too.
    """
    try:
        os.close(read_fd)
        with os.fdopen(write_fd, "wb") as stream:
            while (k := _claim(token, write_fd)) < n_levels:
                try:
                    message = make(k)._entries()
                except Exception as exc:
                    message = exc
                stream.write(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
                stream.flush()
                if isinstance(message, Exception):
                    break
    finally:
        os._exit(0)


@contextlib.contextmanager
def _sweep_levels(make, grid: PhaseGrid, n_levels: int):
    """Yields level(k), which returns make(k) for k = 0, 1, ... in turn.

    If _forks, the caller and a forked child, which makes its levels
    against the state it inherits, each claim the next unclaimed level
    (_claim) whenever free.  The child streams the levels it claims back
    in claim order.  When the caller needs a level, it claims one, makes
    it, and returns the child's levels below it, then its own.  level(k)
    raises the exception that making level k met, whoever made it, so the
    first failing level in level order raises; it raises RuntimeError if
    the child has died before level k.  The child is killed, if it still
    runs, and reaped on every way out.  make(k) must not depend on what
    the caller does between levels.
    """
    if not _forks(n_levels):
        yield make
        return
    token = os.pipe()
    os.set_blocking(token[0], False)
    os.write(token[1], (0).to_bytes(8, "little"))
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if not pid:
        _stream_levels(make, n_levels, token, read_fd, write_fd)
    try:
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as stream:
            mine = (-1, None)       # the caller's last claim and its make()

            def level(k):
                nonlocal mine
                try:
                    if k > mine[0]:
                        j = _claim(token, read_fd)
                        try:
                            mine = (j, make(j) if j < n_levels else None)
                        except Exception as exc:
                            mine = (j, exc)
                    j, made = mine
                    if k < j:
                        made = pickle.load(stream)
                        if not isinstance(made, Exception):
                            made = DensityField._from_entries(grid, made)
                except (EOFError, pickle.UnpicklingError):
                    raise RuntimeError(
                        f"the forked process of the sweep ended before "
                        f"level {k}") from None
                if isinstance(made, Exception):
                    raise made
                return made
            yield level
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        for fd in token:
            os.close(fd)


def picard_step(prev_history: LatticeFieldHistory, f0, b0, prev_f: list,
                monotone: bool = False):
    """One successive-approximation sweep against a frozen field history.

    Makes one level per level of prev_history, on its grid: level k, at
    k dt, advects over [0, k dt] with k RK4 steps, one per level spacing.
    Returns the new density levels, the field levels rebuilt from their
    moments, and the sup distance of the new density levels from prev_f,
    the previous iterate's.  Each entry of prev_f is cleared once
    compared, so only one previous level is alive next to the new iterate.
    The levels' traces do not depend on each other, so in a large sweep a
    second process traces the levels it claims (_sweep_levels); the rest
    runs here, in level order, and every level is bitwise the same.
    """
    grid, dt = prev_history.grid, prev_history.dt
    n_levels = prev_history.values.shape[0]
    f_levels = []
    b_levels = []
    moments: list[MomentProfile] = []
    # Per-level maxima, reduced once at the end: the same number as the
    # sup over the stacked difference, NaN included.
    diffs = []

    def make(k):
        return advect_density(f0, grid, prev_history, k * dt, max(1, k))

    with _sweep_levels(make, grid, n_levels) as level:
        for k in range(n_levels):
            f_k = level(k)
            diffs.append(_sup_distance(f_k, prev_f[k]))
            prev_f[k] = None
            f_levels.append(f_k)
            moments.append(density_moment(f_k))
            b_levels.append(field_from_history(b0.value, list(moments),
                                               k * dt, monotone=monotone))
    return f_levels, b_levels, float(np.max(diffs))


def solve_picard(spec: InitialDataSpec, grid: PhaseGrid, t_final: float,
                 dt: float, tol: float = 1e-8, max_iter: int = 25,
                 initial_iterate: str = "constant", monotone: bool = False):
    """Successive approximation until the iterates are tol-Cauchy.

    initial_iterate selects the zeroth field history: "constant" freezes
    B0 in time, "transported" uses the source-free shift B0(x - t).  Both
    must converge to the same history; the choice is a uniqueness probe.
    Returns (SolutionHistory, PicardTrace).
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    n_levels = _levels_for(t_final, dt)
    f0 = spec.density()
    b0 = spec.field()
    f0_field, b0_field = sample_initial_data(spec, grid)
    if initial_iterate == "constant":
        b_stack = np.tile(b0_field.values, (n_levels, 1))
    elif initial_iterate == "transported":
        b_stack = np.stack([b0.value(grid.x_nodes - k * dt)
                            for k in range(n_levels)])
    else:
        raise ValueError(f"unknown initial iterate {initial_iterate!r}")
    field_diffs = []
    density_diffs = []
    converged = False
    f_levels = [f0_field] * n_levels
    for _ in range(max_iter):
        # One history and one copy of each field level: the frozen history's
        # column a0 is the stack, so the stack and the last sweep's B levels
        # go before the sweep, and the history after it.  The sweep frees
        # the last iterate's f levels as it goes.
        frozen = LatticeFieldHistory(grid, b_stack, dt)
        b_stack = b_levels = None
        f_levels, b_levels, density_diff = picard_step(
            frozen, f0, b0, f_levels, monotone=monotone)
        b_stack = np.stack([b.values for b in b_levels])
        field_diffs.append(float(np.max(np.abs(b_stack - frozen.values))))
        frozen = None
        density_diffs.append(density_diff)
        if max(field_diffs[-1], density_diffs[-1]) < tol:
            converged = True
            break
    history = SolutionHistory(grid, dt, tuple(f_levels), tuple(b_levels),
                              initial_data=spec)
    trace = PicardTrace(tuple(field_diffs), tuple(density_diffs),
                        len(field_diffs), converged)
    return history, trace


def solve_direct(spec: InitialDataSpec, grid: PhaseGrid, t_final: float,
                 dt: float, monotone: bool = False) -> SolutionHistory:
    """March level to level with one predictor-corrector pass per step.

    Per step: predict B(t+dt) from the transport update with rho(t) used
    for both trapezoid ends, advect the density one semi-Lagrangian step
    against the predicted field, then correct B(t+dt) with the trapezoid
    of rho(t) and the new moment.  The predictor and the corrector share
    B(t, x-dt) and rho(t, x-dt), so those are interpolated once per step.
    The density advection interpolates the previous lattice once per step
    (cubic, or monotone-clipped).

    The engine carries a support box with the lattice: per step the box
    grows by the flow's reach under the largest node value of the step's
    field levels (velocity changes by at most dt * max|B| at the nodes),
    and nodes outside it are set to exact zero.  This is meant to remove
    interpolation tails only; without it the occupied region would spread by
    the stencil width every step regardless of the flow.  The box is not
    a certified reach: the RK4 stages read the cubic interpolant of the
    field, which can exceed its largest node value.  Inside the box, a
    node is traced only if its foot can read a nonzero value of the
    previous level; every other node is exactly +0.0 (see
    _advect_lattice_step).
    Such a node is not traced, so it cannot abort a run: a domain exit
    comes only from a node that can carry mass.
    """
    n_levels = _levels_for(t_final, dt)
    b0 = spec.field()
    f_k, b_k = sample_initial_data(spec, grid)
    f_levels = [f_k]
    b_levels = [b_k]
    rho_k = density_moment(f_k)
    box = spec.density().support
    # f_k as a full lattice, for the step to read: one scratch lattice,
    # which each step rewrites to hold the next level.
    lattice = f_k.place(np.zeros((grid.nx, grid.nv)))
    for k in range(n_levels - 1):
        # The loop owns the level times: t_k = k dt, never a running sum.
        t, t_next = k * dt, (k + 1) * dt
        shift = _field_shift(b_k, rho_k, dt, b0, monotone=monotone)
        b_pred = _finish_field(shift, rho_k, dt, t_next)
        step_hist = LatticeFieldHistory(
            grid, np.stack([b_k.values, b_pred.values]), dt, t0=t)
        f_next, box = _advect_lattice_step(f_k, lattice, box, step_hist, t,
                                           t_next, monotone)
        rho_next = density_moment(f_next)
        b_next = _finish_field(shift, rho_next, dt, t_next)
        f_levels.append(f_next)
        b_levels.append(b_next)
        f_k, b_k, rho_k = f_next, b_next, rho_next
    return SolutionHistory(grid, dt, tuple(f_levels), tuple(b_levels),
                           initial_data=spec)


def _grow_box(box, dt: float, b_max: float):
    """Support box after one step under a field bounded by b_max.

    Velocities drift by at most dt * b_max, so the v-range widens by that
    on both sides; each x edge then moves with its own signed velocity
    bound (one-sided data translates instead of inflating, which keeps
    the box on the grid for long one-directional runs).  Direct passes
    the largest node value of the step's field levels as b_max, which
    the cubic interpolant the step reads can exceed, so the box is a
    reach under the node values, not a certified one.
    """
    (x_lo, x_hi), (v_lo, v_hi) = box
    grow_v = dt * b_max * (1.0 + 1e-9) + 1e-12
    v_lo, v_hi = v_lo - grow_v, v_hi + grow_v
    slop = dt * max(abs(v_lo), abs(v_hi)) * 1e-9 + 1e-12
    return (x_lo + dt * v_lo - slop, x_hi + dt * v_hi + slop), (v_lo, v_hi)


def _reach_cells(lo, hi, n: int):
    """Offsets from its node, within +-n, of the cells a query lo to hi
    cells from its node can fall in, give or take _ROUNDING_SLACK."""
    return (np.floor(np.clip(lo - _ROUNDING_SLACK, -n, n)).astype(np.int64),
            np.floor(np.clip(hi + _ROUNDING_SLACK, -n, n)).astype(np.int64))


def _live_nodes(f_prev: np.ndarray, grid: PhaseGrid, rs: slice, cs: slice,
                dt: float, lo: float, hi: float, monotone: bool):
    """Selection of the nodes of the block (rs, cs) whose step can read a
    nonzero of f_prev: (rs, cs, mask), or None if there are none.

    lo <= B <= hi wherever the step reads the field, so one backward RK4
    step of size dt puts the foot of node (x, v) in v - dt [lo, hi] and
    x - dt v + (dt^2 / 2) [lo, hi] (_support_mask).  What a foot reads
    and sees as nonzero is phase_space's (_read_range, _reads_nonzero).
    Node (i, j) sits at coordinates (i, j), so its column window is j
    plus a fixed offset and its row window i plus an offset of its
    column's.  The window counts are differences of prefix sums over the
    rows and columns the block can reach: one count per row and column
    window, then one per node and row window.
    """
    rows = np.arange(rs.start, rs.stop)
    cols = np.arange(cs.start, cs.stop)
    c_lo, c_hi = _reach_cells(-dt * hi / grid.dv, -dt * lo / grid.dv,
                              grid.nv)
    c_lo, c_hi = _read_range(cols + c_lo, cols + c_hi, grid.nv, monotone)
    drift = -dt * grid.v_nodes[cs] / grid.dx
    ex = 0.5 * dt * dt / grid.dx
    o_lo, o_hi = _reach_cells(drift + ex * lo, drift + ex * hi, grid.nx)
    r0, r1 = _read_range(rows[0] + o_lo.min(), rows[-1] + o_hi.max(),
                         grid.nx, monotone)
    c0 = c_lo[0]
    block = f_prev[r0:r1 + 1, c0:c_hi[-1] + 1]
    nonzero = _reads_nonzero(block, monotone)
    # Counts stay below nx * nv, so int32 holds them.
    prefix = np.zeros((block.shape[0], block.shape[1] + 1), dtype=np.int32)
    np.cumsum(nonzero, axis=1, out=prefix[:, 1:])
    in_cols = np.zeros((block.shape[0] + 1, cols.size), dtype=np.int32)
    np.cumsum(prefix[:, c_hi - c0 + 1] - prefix[:, c_lo - c0], axis=0,
              out=in_cols[1:])
    # The row offset moves by about dt (v_max - v_min) / dx cells across
    # the box: one row gather per run of columns that share it.
    live = np.empty((rows.size, cols.size), dtype=bool)
    runs = np.flatnonzero(np.diff(o_lo) | np.diff(o_hi)) + 1
    for a, b in zip([0, *runs], [*runs, cols.size]):
        first, last = _read_range(rows + o_lo[a], rows + o_hi[a], grid.nx,
                                  monotone)
        np.greater(in_cols[last - r0 + 1, a:b], in_cols[first - r0, a:b],
                   out=live[:, a:b])
    return (rs, cs, live) if live.any() else None


def _advect_lattice_step(f_k: DensityField, lattice: np.ndarray, box,
                         step_hist: LatticeFieldHistory, t: float,
                         t_next: float, monotone: bool):
    """One backward semi-Lagrangian step of the density lattice, from
    f_k at level time t to the next level at t_next.

    lattice holds f_k.values on entry; the step clears f_k's block in it
    and places the next level there, so it holds the next level's values
    on return.  box is f_k's support box.  step_hist spans [t, t_next],
    and its level spacing is the step's dt.  Returns (next level,
    grown box).  Nodes outside the grown box are set to exactly zero; the
    box grows by the field's largest node value (_grow_box), which the
    cubic interpolant can exceed, so this is not a certified reach.
    Inside it, only the nodes whose foot can read a nonzero value of f_k
    are traced (_live_nodes).  Every other node reads only entries a
    read sees as zero (_reads_nonzero), so it reads +0.0; it is left
    +0.0, and the level is bitwise the one a trace of the whole box gives.
    """
    grid, dt = f_k.grid, step_hist.dt
    new_box = None if box is None else _grow_box(box, dt,
                                                 step_hist.sup_bound())
    selection = None
    if new_box is not None:
        rs = _node_run(grid.x_nodes, *new_box[0])
        cs = _node_run(grid.v_nodes, *new_box[1])
        if rs is not None and cs is not None:
            selection = _live_nodes(lattice, grid, rs, cs, dt,
                                    *step_hist.range_bound(), monotone)
    read = functools.partial(interp_lattice, grid, lattice, monotone=monotone)
    f_next = _traced_level(grid, selection, t_next, t, step_hist, 1, read)
    lattice[f_k.slices] = 0.0
    f_next.place(lattice)
    return f_next, new_box


def majorant_existence_time(c: float, cap: float, ds: float = 1e-3,
                            horizon: float = 50.0) -> MajorantResult:
    """Integrate F' = C (1 + t F)^2, F(0) = C until the cap or the horizon.

    Returns the trajectory and the cap-crossing time (linear interpolation
    between the last sample below the cap and the first at or above it),
    or blowup_time = inf if the cap is never reached before the horizon.
    """
    if not all(map(math.isfinite, (c, cap, ds, horizon))):
        raise ValueError("majorant arguments must be finite")
    if c < 0:
        raise ValueError("majorant constant must be nonnegative")
    if cap <= c:
        raise ValueError("cap must exceed the initial value F(0) = C")
    if ds <= 0 or horizon <= 0:
        raise ValueError("step size and horizon must be positive")
    steps = horizon / ds
    if not math.isfinite(steps):
        raise ValueError(f"step count horizon / ds = {horizon} / {ds} "
                         "is not finite")

    def rhs(t, f):
        w = 1.0 + t * f
        return c * w * w

    times = [0.0]
    values = [c]
    t, f = 0.0, c
    blowup = math.inf
    for _ in range(math.ceil(steps)):
        h = min(ds, horizon - t)
        if h <= 0:
            break
        k1 = rhs(t, f)
        k2 = rhs(t + 0.5 * h, f + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, f + 0.5 * h * k2)
        k4 = rhs(t + h, f + h * k3)
        f_next = f + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t_next = t + h
        if not math.isfinite(f_next):
            # Blow-up inside the step overflowed the stages; the crossing
            # is somewhere in (t, t + h], report the step end.
            blowup = t_next
            break
        if f_next >= cap:
            times.append(t_next)
            values.append(f_next)
            blowup = t + h * (cap - f) / (f_next - f)
            break
        times.append(t_next)
        values.append(f_next)
        t, f = t_next, f_next
    return MajorantResult(c, cap, blowup, np.asarray(times),
                          np.asarray(values))
