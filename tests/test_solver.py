import math
import os
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import vlasov_transport
from vlasov_transport import solver
from vlasov_transport.characteristics import LatticeFieldHistory, trace_states
from vlasov_transport.field_solve import advance_field, density_moment
from vlasov_transport.phase_space import (_NODE_SNAP, DensityField,
                                          DomainExitError, InitialDataSpec,
                                          _read_range, _stencil,
                                          build_phase_grid, interp_lattice,
                                          sample_initial_data)
from vlasov_transport.solver import (MajorantResult, SolutionHistory,
                                     advect_density, majorant_existence_time,
                                     solve_direct, solve_picard)
from vlasov_transport.solver import (_ROUNDING_SLACK, _advect_lattice_step,
                                     _grow_box, _reach_cells, _sup_distance,
                                     _support_mask)

from lattices import grids, lattices, same_bits
from oracles import AnalyticFieldHistory

# Cap-crossing times of F' = C (1 + t F)^2, F(0) = C at cap 1e6, from an
# independent fixed-step integration at ds = 1e-5 (step-halving deltas
# below 1e-5).  For C = 1 the solution is F(t) = 1 / (1 - t) exactly.
BLOWUP_ORACLE = {0.5: 1.47573, 1.0: 1.0, 2.0: 0.67172, 4.0: 0.44723}


def _grid(nx=33, nv=33):
    return build_phase_grid(-3.0, 3.0, -2.5, 2.5, nx, nv)


def test_rejects_time_grids_that_do_not_divide():
    spec = InitialDataSpec()
    grid = _grid(nx=9, nv=9)
    with pytest.raises(ValueError):
        solve_direct(spec, grid, 0.5, 0.15)
    with pytest.raises(ValueError):
        solve_direct(spec, grid, 0.5, -0.1)
    with pytest.raises(ValueError):
        solve_picard(spec, grid, 0.0, 0.1)
    # the step count overflows to inf
    with pytest.raises(ValueError, match="does not divide"):
        solve_direct(spec, grid, 0.5, 1e-320)


def test_solve_picard_validates_options():
    spec = InitialDataSpec()
    grid = _grid(nx=9, nv=9)
    with pytest.raises(ValueError):
        solve_picard(spec, grid, 0.2, 0.1, tol=0.0)
    with pytest.raises(ValueError):
        solve_picard(spec, grid, 0.2, 0.1, max_iter=0)
    with pytest.raises(ValueError):
        solve_picard(spec, grid, 0.2, 0.1, initial_iterate="guess")


def test_zero_data_is_a_fixed_point():
    spec = InitialDataSpec(f0_family="zero", b0_family="zero")
    grid = _grid(nx=9, nv=9)
    history, trace = solve_picard(spec, grid, 0.2, 0.1)
    assert trace.converged and trace.iterations == 1
    assert trace.field_diffs == (0.0,)
    assert trace.density_diffs == (0.0,)
    for f, b in zip(history.f_levels, history.b_levels):
        assert not f.values.any()
        assert not b.values.any()


def test_zero_density_field_is_pure_transport():
    # no source: every Picard sweep reproduces B0(x - t) exactly
    spec = InitialDataSpec(f0_family="zero", b0_family="bump")
    grid = _grid(nx=17, nv=9)
    history, trace = solve_picard(spec, grid, 0.25, 0.0625)
    assert trace.converged
    fld = spec.field()
    for k, b in enumerate(history.b_levels):
        expected = fld.value(grid.x_nodes - k * 0.0625)
        np.testing.assert_allclose(b.values, expected, rtol=0, atol=1e-15)


def test_direct_zero_density_transport_error_is_cubic():
    # smooth field, one lattice interpolation per step: the accumulated
    # transport error stays a small multiple of dx^3 (measured ~0.11 dx^3)
    spec = InitialDataSpec(f0_family="zero", b0_family="gaussian",
                           b0_amplitude=0.5, b0_width=1.0)
    fld = spec.field()
    for nx in (33, 65):
        grid = build_phase_grid(-3.0, 3.0, -2.5, 2.5, nx, 9)
        dt = grid.dx / 6.0
        steps = round(0.25 / dt)
        history = solve_direct(spec, grid, steps * dt, dt)
        worst = max(np.max(np.abs(b.values - fld.value(grid.x_nodes - k * dt)))
                    for k, b in enumerate(history.b_levels))
        assert worst <= grid.dx ** 3


def test_picard_sup_norm_never_exceeds_initial():
    spec = InitialDataSpec()
    grid = _grid()
    history, trace = solve_picard(spec, grid, 0.25, 1.0 / 32.0)
    assert trace.converged
    sup0 = spec.density().sup_norm
    for f in history.f_levels:
        assert np.max(np.abs(f.values)) <= sup0


def test_picard_differences_contract():
    spec = InitialDataSpec()
    grid = _grid()
    _, trace = solve_picard(spec, grid, 0.25, 1.0 / 32.0)
    assert trace.converged
    assert trace.iterations <= 10
    diffs = [max(a, b) for a, b in zip(trace.field_diffs,
                                       trace.density_diffs)]
    for prev, nxt in zip(diffs, diffs[1:]):
        assert nxt < prev


@settings(max_examples=300, deadline=None)
@given(grids(), st.data())
def test_level_sup_distance_is_the_full_lattice_sup(grid, data):
    a = data.draw(lattices(grid))
    b = data.draw(lattices(grid))
    got = _sup_distance(DensityField(grid, a, 0.5), DensityField(grid, b, 0.5))
    assert same_bits(got, np.max(np.abs(a - b)))


@pytest.mark.parametrize("k", [2, 3])
def test_picard_density_diff_is_the_sup_over_levels(k):
    # the sweep compares level by level; the recorded number must be the
    # sup of |f^(k) - f^(k-1)| over all levels of the two iterates
    spec = InitialDataSpec()
    grid = _grid()
    last, trace = solve_picard(spec, grid, 0.25, 0.03125, max_iter=k)
    before, _ = solve_picard(spec, grid, 0.25, 0.03125, max_iter=k - 1)
    assert trace.iterations == k and not trace.converged
    expected = max(float(np.max(np.abs(new.values - old.values)))
                   for new, old in zip(last.f_levels, before.f_levels))
    assert expected > 0.0
    assert trace.density_diffs[-1] == expected


# Peak-RSS growth of a monotone direct solve on the criterion-9 data, as a
# share of the dense size of its density levels.
MEMORY_PROBE = """
import os
pid = os.fork()
if pid:
    # ru_maxrss carries over the peak of whatever process exec'd this
    # one (the test runner, here); a fork starts its own count
    os._exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
import resource, sys
from vlasov_transport.phase_space import InitialDataSpec, build_phase_grid
from vlasov_transport.solver import solve_direct
spec = InitialDataSpec(f0_center_v=2.0, f0_width=0.5)
grid = build_phase_grid(-2.5, 9.5, 0.25, 5.25, 129, 129)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
history = solve_direct(spec, grid, 2.0, 1.0 / 64.0, monotone=True)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
unit = 1 if sys.platform == "darwin" else 1024   # ru_maxrss in B or KiB
print((after - before) * unit / (history.n_levels * grid.nx * grid.nv * 8))
"""


# The same at the scale of the direct_global benchmark, with the scenario
# check that follows the solve there.
DESK_MEMORY_PROBE = """
import os
pid = os.fork()
if pid:
    os._exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
import resource, sys
from vlasov_transport.analysis import scenario_monotone_check
from vlasov_transport.phase_space import InitialDataSpec, build_phase_grid
from vlasov_transport.solver import solve_direct
spec = InitialDataSpec(f0_center_v=2.0, f0_width=0.5)
grid = build_phase_grid(-2.5, 9.5, 0.25, 5.25, 257, 257)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
history = solve_direct(spec, grid, 2.0, 1.0 / 256.0, monotone=True)
assert scenario_monotone_check(history).passed
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
unit = 1 if sys.platform == "darwin" else 1024   # ru_maxrss in B or KiB
print((after - before) * unit / (history.n_levels * grid.nx * grid.nv * 8))
"""


def _rss_share(probe: str) -> float:
    pytest.importorskip("resource")
    package_root = os.path.dirname(os.path.dirname(vlasov_transport.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return float(done.stdout)


def test_direct_levels_are_resident_only_on_their_support():
    # dense levels read about 1.1 here; support-only levels about 0.35
    assert _rss_share(MEMORY_PROBE) < 0.6


def test_direct_levels_keep_only_their_nonzero_blocks_at_desk_scale():
    # Full lattices resident on their support rows read about 0.25 here,
    # dense nonzero blocks about 0.12, and the blocks' nonzero entries
    # with a bit mask about 0.054; at 129 nodes they are too close to
    # tell apart.
    assert _rss_share(DESK_MEMORY_PROBE) < 0.09


def test_initial_iterate_choice_reaches_the_same_history():
    spec = InitialDataSpec()
    grid = _grid()
    tol = 1e-8
    ha, _ = solve_picard(spec, grid, 0.25, 1.0 / 32.0, tol=tol,
                         initial_iterate="constant")
    hb, _ = solve_picard(spec, grid, 0.25, 1.0 / 32.0, tol=tol,
                         initial_iterate="transported")
    ba = np.stack([b.values for b in ha.b_levels])
    bb = np.stack([b.values for b in hb.b_levels])
    assert np.max(np.abs(ba - bb)) <= 5 * tol


def test_direct_engine_tracks_picard():
    spec = InitialDataSpec()
    grid = _grid()
    dt = 1.0 / 32.0
    hp, _ = solve_picard(spec, grid, 0.25, dt)
    hd = solve_direct(spec, grid, 0.25, dt)
    bp = np.stack([b.values for b in hp.b_levels])
    bd = np.stack([b.values for b in hd.b_levels])
    assert np.max(np.abs(bp - bd)) <= 50.0 * (dt ** 2 + grid.dx ** 3)


def test_monotone_direct_respects_initial_range():
    spec = InitialDataSpec()
    grid = _grid()
    history = solve_direct(spec, grid, 0.25, 1.0 / 32.0, monotone=True)
    for f in history.f_levels:
        assert f.values.min() >= 0.0
        assert f.values.max() <= spec.density().sup_norm


def test_picard_sweep_starts_with_the_last_sweeps_fields_freed(monkeypatch):
    # One copy of each field level: the frozen history holds the last
    # sweep's field values, so that sweep's TransportField levels are dead
    # by the time the next sweep starts, and its history by the time the
    # next one is built.
    fields, histories = [], []
    alive_fields, alive_histories = [], []
    step, build = solver.picard_step, solver.LatticeFieldHistory

    def spy_step(*args, **kwargs):
        alive_fields.append(sum(ref() is not None for ref in fields))
        f_levels, b_levels, diff = step(*args, **kwargs)
        fields.extend(weakref.ref(b) for b in b_levels)
        return f_levels, b_levels, diff

    def spy_build(*args, **kwargs):
        alive_histories.append(sum(ref() is not None for ref in histories))
        history = build(*args, **kwargs)
        histories.append(weakref.ref(history))
        return history

    monkeypatch.setattr(solver, "picard_step", spy_step)
    monkeypatch.setattr(solver, "LatticeFieldHistory", spy_build)
    _, trace = solve_picard(InitialDataSpec(), _grid(), 0.25, 1.0 / 32.0)
    assert trace.iterations >= 3
    assert alive_fields == alive_histories == [0] * trace.iterations


FORKS = solver._forks(solver._FORK_LEVELS)
needs_fork = pytest.mark.skipif(not FORKS,
                                reason="sweeps stay in one process here")


def _counted_forks(monkeypatch) -> list:
    """The pids of the children that os.fork starts from now on."""
    pids, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return pids


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("shape, dt, monotone", [
    ((33, 33), 1.0 / 32.0, False),
    ((33, 33), 1.0 / 32.0, True),
    ((61, 51), 0.02, False),        # dx = 0.1: a non-dyadic step
])
def test_forked_sweeps_are_bitwise_the_in_process_ones(monkeypatch, shape,
                                                       dt, monotone):
    spec, grid = InitialDataSpec(), _grid(*shape)
    monkeypatch.setattr(solver, "_FORK_LEVELS", 10 ** 9)
    alone, alone_trace = solve_picard(spec, grid, 0.5, dt, monotone=monotone)
    monkeypatch.setattr(solver, "_FORK_LEVELS", 2)
    pids = _counted_forks(monkeypatch)
    split, split_trace = solve_picard(spec, grid, 0.5, dt, monotone=monotone)
    assert len(pids) == split_trace.iterations > 1
    _assert_no_child_left()
    assert split_trace == alone_trace
    assert split.n_levels == alone.n_levels
    for a, b in zip(split.f_levels, alone.f_levels):
        assert a.grid is grid
        assert (a.time, a.origin, a.block_shape) == (b.time, b.origin,
                                                     b.block_shape)
        assert a.data.dtype == b.data.dtype and a.mask.dtype == b.mask.dtype
        assert a.data.tobytes() == b.data.tobytes()
        assert a.mask.tobytes() == b.mask.tobytes()
        assert not (a.data.flags.writeable or a.mask.flags.writeable)
    for a, b in zip(split.b_levels, alone.b_levels):
        assert a.time == b.time
        assert a.values.tobytes() == b.values.tobytes()


@needs_fork
def test_a_forked_sweep_reaps_its_child_when_the_parent_raises(monkeypatch):
    # an interrupt in the parent's own part of the sweep, with the child
    # still tracing
    monkeypatch.setattr(solver, "_FORK_LEVELS", 2)
    pids = _counted_forks(monkeypatch)
    moments = []

    def interrupted(f):
        moments.append(f)
        if len(moments) == 3:
            raise KeyboardInterrupt
        return density_moment(f)

    monkeypatch.setattr(solver, "density_moment", interrupted)
    with pytest.raises(KeyboardInterrupt):
        solve_picard(InitialDataSpec(), _grid(), 0.5, 1.0 / 32.0)
    assert len(pids) == 1
    _assert_no_child_left()


def test_the_fork_rule_keeps_tiny_sweeps_in_one_process():
    # bench/tests' 17^2 configs (dt = dx/6 or 1/16, T = 0.25) make 5
    # levels; picard_coarse (65^2, dt = dx/6, T = 1) makes 65.
    assert not solver._forks(solver._levels_for(0.25, 0.0625))
    assert solver._forks(solver._levels_for(1.0, 6.0 / 64.0 / 6.0)) == FORKS
    if (sys.version_info < (3, 12) and threading.active_count() == 1
            and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2):
        assert FORKS


def test_monotone_picard_keeps_every_field_above_the_transported_b0():
    # With f0 >= 0 each clipped moment sample is >= 0, and so is its
    # trapezoid, so B_k >= b0(x - t_k) holds exactly.  The plain cubic's
    # moment samples dip below zero next to the support, so the clip is
    # what holds it: the flag reaches field_from_history.
    spec = InitialDataSpec()
    grid = _grid()
    b0 = spec.field()

    def least_excess(monotone):
        history, _ = solve_picard(spec, grid, 0.5, 1.0 / 32.0,
                                  monotone=monotone)
        return min(float(np.min(b.values - b0.value(grid.x_nodes - b.time)))
                   for b in history.b_levels)

    assert least_excess(True) >= 0.0
    assert least_excess(False) < 0.0


def test_advect_density_active_filter_changes_nothing():
    spec = InitialDataSpec()
    f0 = spec.density()
    grid = _grid()
    field = AnalyticFieldHistory(lambda s, x: 0.3 * np.cos(x), sup_bound=0.3)
    masked = advect_density(f0, grid, field, 0.25, 8)
    # every node traced, the mask left out
    xg = np.broadcast_to(grid.x_nodes[:, None], (grid.nx, grid.nv))
    vg = np.broadcast_to(grid.v_nodes[None, :], (grid.nx, grid.nv))
    full = f0.value(*trace_states(xg, vg, 0.25, 0.0, field, 8))
    assert np.array_equal(masked.values, full)
    assert masked.time == 0.25


def test_levels_of_negative_data_store_only_nonzero_values():
    # off the support the data are +0.0, which a level does not store
    spec = InitialDataSpec(f0_amplitude=-1.0)
    grid = _grid()
    histories = [solve_picard(spec, grid, 0.25, 1.0 / 32.0)[0]]
    histories += [solve_direct(spec, grid, 0.25, 1.0 / 32.0, monotone)
                  for monotone in (False, True)]
    for f in (f for h in histories for f in h.f_levels):
        assert np.count_nonzero(f.data) == f.data.size > 0


def test_advect_density_at_time_zero_samples_data():
    spec = InitialDataSpec()
    f0 = spec.density()
    grid = _grid(nx=9, nv=9)
    field = AnalyticFieldHistory(lambda s, x: np.zeros_like(x), sup_bound=0.0)
    out = advect_density(f0, grid, field, 0.0, 1)
    expected = f0.value(grid.x_nodes[:, None], grid.v_nodes[None, :])
    assert np.array_equal(out.values, expected)


def test_majorant_validates_arguments():
    with pytest.raises(ValueError):
        majorant_existence_time(-1.0, 10.0)
    with pytest.raises(ValueError):
        majorant_existence_time(2.0, 2.0)
    with pytest.raises(ValueError):
        majorant_existence_time(1.0, 10.0, ds=0.0)
    with pytest.raises(ValueError):
        majorant_existence_time(1.0, 10.0, horizon=-1.0)
    for args in [(math.nan, 10.0), (1.0, math.inf), (1.0, math.nan)]:
        with pytest.raises(ValueError, match="must be finite"):
            majorant_existence_time(*args)
    for kwargs in [{"ds": math.nan}, {"ds": math.inf},
                   {"horizon": math.inf}, {"horizon": math.nan}]:
        with pytest.raises(ValueError, match="must be finite"):
            majorant_existence_time(1.0, 10.0, **kwargs)
    # finite arguments whose step count horizon / ds overflows
    with pytest.raises(ValueError, match="is not finite"):
        majorant_existence_time(1.0, 10.0, ds=1e-320)


def test_majorant_zero_constant_never_blows_up():
    result = majorant_existence_time(0.0, 1.0, ds=0.1, horizon=5.0)
    assert not result.blew_up
    assert math.isinf(result.blowup_time)
    assert np.all(result.values == 0.0)
    assert result.times[-1] == pytest.approx(5.0)


def test_majorant_unit_constant_has_closed_form():
    # C = 1: F(t) = 1 / (1 - t), blow-up exactly at t = 1
    result = majorant_existence_time(1.0, 1e6, ds=1e-4)
    assert result.blew_up
    assert result.blowup_time == pytest.approx(1.0, abs=2e-6)
    half = int(np.argmin(np.abs(result.times - 0.5)))
    t_half = result.times[half]
    assert t_half == pytest.approx(0.5, abs=1e-3)
    assert result.values[half] == pytest.approx(1.0 / (1.0 - t_half),
                                                rel=1e-8)


def test_majorant_blowup_times_match_oracle_and_decrease():
    measured = {}
    for c, expected in BLOWUP_ORACLE.items():
        result = majorant_existence_time(c, 1e6, ds=1e-4)
        assert isinstance(result, MajorantResult)
        assert result.blew_up
        assert result.blowup_time == pytest.approx(expected, abs=5e-3)
        measured[c] = result.blowup_time
    ordered = [measured[c] for c in sorted(measured)]
    assert all(a > b for a, b in zip(ordered, ordered[1:]))


def test_solution_history_shape_and_times():
    spec = InitialDataSpec()
    grid = _grid(nx=17, nv=9)
    history = solve_direct(spec, grid, 0.2, 0.05)
    assert history.n_levels == 5
    np.testing.assert_allclose(history.times, 0.05 * np.arange(5), atol=0)
    assert history.t_final == pytest.approx(0.2)
    with pytest.raises(ValueError):
        SolutionHistory(grid, 0.05, history.f_levels, history.b_levels[:-1])
    with pytest.raises(ValueError):
        SolutionHistory(grid, 0.05, (), ())


@pytest.mark.parametrize("dt", [0.01, 1.0 / 64.0])
def test_every_level_is_stamped_k_dt(dt):
    # the engine loop owns a level's time: k * dt exactly, also where a
    # running sum of dt drifts off it (dt = 0.01 from level 6 on)
    spec = InitialDataSpec()
    grid = _grid()
    direct = solve_direct(spec, grid, 0.5, dt)
    picard, _ = solve_picard(spec, grid, 0.5, dt)
    for history in (direct, picard):
        want = [k * dt for k in range(history.n_levels)]
        assert [f.time for f in history.f_levels] == want
        assert [b.time for b in history.b_levels] == want
        assert list(history.times) == want


@pytest.mark.parametrize("spec, grid, t_final, dt, monotone", [
    (InitialDataSpec(), _grid(), 0.5, _grid().dx / 6.0, False),
    (InitialDataSpec(f0_center_v=2.0, f0_width=0.5),
     build_phase_grid(-2.5, 9.5, 0.25, 5.25, 65, 65), 1.0, 1.0 / 64.0,
     True),
])
def test_direct_field_levels_are_advance_field_steps(spec, grid, t_final, dt,
                                                     monotone):
    # Direct finishes each step's shift twice, but its stored level is the
    # public one-step update from the level before, bitwise
    history = solve_direct(spec, grid, t_final, dt, monotone=monotone)
    b0 = spec.field()
    for k in range(history.n_levels - 1):
        want = advance_field(history.b_levels[k],
                             density_moment(history.f_levels[k]),
                             density_moment(history.f_levels[k + 1]), dt, b0,
                             monotone)
        got = history.b_levels[k + 1]
        assert got.time == want.time
        assert got.values.tobytes() == want.values.tobytes(), k


def test_field_history_roundtrip_is_bitwise():
    spec = InitialDataSpec()
    grid = _grid(nx=17, nv=9)
    history = solve_direct(spec, grid, 0.2, 0.05)
    lattice = history.field_history()
    for k, b in enumerate(history.b_levels):
        got = lattice.eval(k * 0.05, grid.x_nodes)
        assert np.array_equal(got, b.values)


def _support_mask_full_grid(grid, box, t, lo, hi):
    # the signed window worked out on every node, then cut to the v-band
    (x_lo, x_hi), (v_lo, v_hi) = box
    size = max(abs(lo), abs(hi))
    slack_v = t * size * 1e-9 + 1e-12
    pad_v = solver._ROUNDING_SLACK * grid.dv
    v_ok = ((grid.v_nodes >= v_lo + (t * lo - slack_v) - pad_v)
            & (grid.v_nodes <= v_hi + (t * hi + slack_v) + pad_v))
    q = 0.5 * t * t
    slack_x = q * size * 1e-9 + 1e-12
    pad_x = solver._ROUNDING_SLACK * grid.dx
    foot = grid.x_nodes[:, None] - t * grid.v_nodes[None, :]
    x_ok = ((foot + (q * hi + slack_x) + pad_x >= x_lo)
            & (foot + (q * lo - slack_x) - pad_x <= x_hi))
    return x_ok & v_ok[None, :]


def _selected(grid, selection):
    # a selection as a mask over the whole grid; its window must be the
    # bounding box of the selected nodes
    full = np.zeros((grid.nx, grid.nv), dtype=bool)
    if selection is not None:
        rs, cs, mask = selection
        assert mask.shape == (rs.stop - rs.start, cs.stop - cs.start)
        assert mask[[0, -1]].any(axis=1).all()
        assert mask[:, [0, -1]].any(axis=0).all()
        full[rs, cs] = mask
    return full


@settings(max_examples=300, deadline=None)
@given(st.integers(4, 40), st.integers(4, 40),
       st.tuples(st.floats(-4.0, 4.0), st.floats(0.0, 3.0)),
       st.tuples(st.floats(-4.0, 4.0), st.floats(0.0, 3.0)),
       st.floats(0.0, 2.0), st.floats(-3.0, 3.0), st.floats(0.0, 3.0))
def test_support_mask_matches_the_full_grid_formula(nx, nv, bx, bv, t, lo,
                                                    span):
    grid = build_phase_grid(-3.0, 3.0, -2.5, 2.5, nx, nv)
    box = ((bx[0], bx[0] + bx[1]), (bv[0], bv[0] + bv[1]))
    hi = lo + span
    got = _selected(grid, _support_mask(grid, box, t, lo, hi))
    assert np.array_equal(got, _support_mask_full_grid(grid, box, t, lo, hi))


@settings(max_examples=500, deadline=None)
@given(st.integers(4, 40), st.booleans(), st.data())
def test_read_range_holds_every_node_the_stencil_reads(n, monotone, data):
    # Direct's read rule against the kernel's: node i's foot lies lo to hi
    # cells from it, and _stencil picks the nodes a query there reads
    reach = st.one_of(st.floats(-2.0 * n, 2.0 * n),
                      st.integers(-n - 2, n + 2).map(float),
                      st.sampled_from([-math.inf, math.inf]))
    lo, hi = sorted(data.draw(st.tuples(reach, reach)))
    i = data.draw(st.integers(0, n - 1))
    below, above = (0, 1) if monotone else (1, 2)
    c_lo, c_hi = _reach_cells(lo, hi, n)
    first, last = _read_range(i + c_lo, i + c_hi, n, monotone)

    def read(c):
        # interp_lattice clips a query into the lattice before _stencil
        coord = np.array([min(max(i + c, 0.0), n - 1.0)])
        cell, start, _ = _stencil(coord, n)
        node = int((cell if monotone else start)[0])
        return node, node + below + above

    drawn = data.draw(st.lists(st.floats(-n - 3.0, n + 3.0), max_size=8))
    for c in [lo, hi, *(min(max(d, lo), hi) for d in drawn)]:
        a, b = read(c)
        assert first <= a and b <= last
    # The ends are read at the reach widened by its rounding slack, unless
    # that lands just under a node, where _stencil snaps onto it.
    for end in (lo - _ROUNDING_SLACK, hi + _ROUNDING_SLACK):
        if math.isfinite(end):
            assume(math.ceil(end) - end > 2 * _NODE_SNAP or end == int(end))
    assert read(lo - _ROUNDING_SLACK)[0] == first
    assert read(hi + _ROUNDING_SLACK)[1] == last


# Node values of a field level: rough plateaus such as 0, 1, 1, 0, whose
# cubic overshoots the nodes (to 1.125 between the two ones), and noise.
_field_node = st.one_of(st.sampled_from([0.0, 1.0, 1.0, -1.0]),
                        st.floats(-2.0, 2.0))


@st.composite
def _field_histories(draw, levels):
    """A field history with |B| <= 2 * 1.64, and a time in its range: a
    lattice one has the given number of levels, spanning that time.

    Every axis is wide enough that no trajectory from the phase grid of
    the test below leaves it: |X - x| <= t |v| + t^2 |B| / 2 < 12.
    """
    t = draw(st.floats(0.05, 2.0))
    kind = draw(st.sampled_from(["analytic", "plateau", "lattice"]))
    if kind == "analytic":
        amp = draw(st.floats(-2.0, 2.0))
        w = draw(st.floats(0.0, 3.0))
        c = draw(st.floats(-1.0, 1.0))
        return AnalyticFieldHistory(
            lambda s, x: amp * np.sin(w * x + c * s), sup_bound=abs(amp)), t
    if kind == "plateau":
        # 0, 1, 1, 0 on [-60, 60]: the middle cell holds every trajectory,
        # and the field there is about 1.12 while its nodes are 1
        n = 4
        axis = build_phase_grid(-60.0, 60.0, 0.0, 1.0, n, 4)
        stack = np.tile([0.0, 1.0, 1.0, 0.0], levels)
    else:
        n = draw(st.integers(4, 12))
        axis = build_phase_grid(-20.0, 20.0, 0.0, 1.0, n, 4)
        stack = np.array(draw(st.lists(_field_node, min_size=levels * n,
                                       max_size=levels * n)))
        if draw(st.booleans()):
            stack = np.abs(stack)
    if draw(st.booleans()):
        stack = -stack
    return LatticeFieldHistory(axis, stack.reshape(levels, n),
                               t / (levels - 1)), t


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(4, 30), st.data())
def test_support_mask_keeps_every_node_whose_foot_lands_in_the_box(
        substeps, n, data):
    # one RK4 step per level spacing, as every trace in the package takes
    field, t = data.draw(_field_histories(substeps + 1))
    grid = build_phase_grid(-3.0, 3.0, -2.5, 2.5, n, n)
    xg = np.broadcast_to(grid.x_nodes[:, None], (n, n))
    vg = np.broadcast_to(grid.v_nodes[None, :], (n, n))
    x0, v0 = trace_states(xg, vg, t, 0.0, field, substeps)
    # a box round one node's foot, from a sliver to most of the grid, so
    # that a window a little too tight loses that node
    i = data.draw(st.integers(0, n * n - 1))
    radius = st.one_of(st.floats(1e-6, 1e-3), st.floats(1e-6, 3.0))
    r = data.draw(st.lists(radius, min_size=4, max_size=4))
    box = ((x0.flat[i] - r[0], x0.flat[i] + r[1]),
           (v0.flat[i] - r[2], v0.flat[i] + r[3]))
    mask = _selected(grid, _support_mask(grid, box, t, *field.range_bound()))
    inside = ((x0 > box[0][0]) & (x0 < box[0][1])
              & (v0 > box[1][0]) & (v0 < box[1][1]))
    assert not np.any(inside & ~mask)


@pytest.mark.parametrize("b, t", [(lambda s, x: 0.3 * np.cos(x), 0.25),
                                  (lambda s, x: 0.3 * np.cos(x), 1.0),
                                  (lambda s, x: np.full_like(x, 5.0), 1.0)])
def test_advect_density_traces_exactly_the_kept_nodes(monkeypatch, b, t):
    # the last field moves every foot's velocity off the box: none is kept
    f0 = InitialDataSpec().density()
    grid = _grid()
    field = AnalyticFieldHistory(b, sup_bound=5.0)
    traced = []

    def counting(x, v, *args):
        traced.append(np.size(x))
        return trace_states(x, v, *args)

    monkeypatch.setattr(solver, "trace_states", counting)
    advect_density(f0, grid, field, t, 8)
    kept = np.count_nonzero(_support_mask_full_grid(
        grid, f0.support, t, *field.range_bound()))
    assert traced == ([kept] if kept else [])


def _whole_box_step(f, box, step_hist, t, t_next, monotone):
    # the step with every node of the grown box traced
    grid = f.grid
    new_box = _grow_box(box, step_hist.dt, step_hist.sup_bound())
    (x_lo, x_hi), (v_lo, v_hi) = new_box
    mask = (((grid.x_nodes >= x_lo) & (grid.x_nodes <= x_hi))[:, None]
            & ((grid.v_nodes >= v_lo) & (grid.v_nodes <= v_hi))[None, :])
    values = np.zeros(mask.shape)
    if mask.any():
        xg = np.broadcast_to(grid.x_nodes[:, None], mask.shape)[mask]
        vg = np.broadcast_to(grid.v_nodes[None, :], mask.shape)[mask]
        xf, vf = trace_states(xg, vg, t_next, t, step_hist, 1)
        values[mask] = interp_lattice(grid, f.values, xf, vf,
                                      monotone=monotone)
    return values, new_box


@settings(max_examples=150, deadline=None)
@given(st.integers(12, 33), st.integers(12, 33), st.floats(0.05, 1.5),
       st.booleans(), st.floats(-2.0, 2.0),
       st.tuples(st.floats(-0.8, 0.8), st.floats(-0.7, 0.7)),
       st.floats(0.3, 0.8), st.sampled_from(("zero", "bump", "gaussian",
                                             "uniform")),
       st.floats(-2.0, 2.0), st.integers(1, 4))
def test_lattice_step_is_bitwise_a_trace_of_the_whole_box(
        nx, nv, cells, monotone, amplitude, center, width, family, b_amp,
        steps):
    grid = build_phase_grid(-3.0, 3.0, -2.5, 2.5, nx, nv)
    dt = cells * grid.dx
    spec = InitialDataSpec(f0_amplitude=amplitude, f0_center_x=center[0],
                           f0_center_v=center[1], f0_width=width,
                           b0_family=family, b0_amplitude=b_amp)
    b0 = spec.field()
    f, _ = sample_initial_data(spec, grid)
    box = spec.density().support
    lattice = np.array(f.values)
    for k in range(steps):
        t, t_next = k * dt, (k + 1) * dt
        step_hist = LatticeFieldHistory(
            grid, np.stack([b0.value(grid.x_nodes - t),
                            b0.value(grid.x_nodes - t - dt)]), dt, t0=t)
        try:
            want, want_box = _whole_box_step(f, box, step_hist, t, t_next,
                                             monotone)
        except DomainExitError:
            return   # the box left the axis; a pruned step need not abort
        f, box = _advect_lattice_step(f, lattice, box, step_hist, t, t_next,
                                      monotone)
        assert box == want_box
        assert f.values.tobytes() == want.tobytes()
        assert lattice.tobytes() == want.tobytes()


def test_direct_step_traces_only_nodes_that_can_carry_mass(monkeypatch):
    spec = InitialDataSpec(f0_center_v=2.0, f0_width=0.5)
    grid = build_phase_grid(-2.5, 9.5, 0.25, 5.25, 65, 65)
    traced = []

    def counting(x, v, *args):
        traced.append(np.size(x))
        return trace_states(x, v, *args)

    monkeypatch.setattr(solver, "trace_states", counting)
    pruned = solve_direct(spec, grid, 1.0, 1.0 / 64.0, monotone=True)
    pruned_count, traced[:] = sum(traced), []
    monkeypatch.setattr(solver, "_live_nodes", lambda f, g, rs, cs, *a: (
        rs, cs, np.ones((rs.stop - rs.start, cs.stop - cs.start),
                        dtype=bool)))
    whole = solve_direct(spec, grid, 1.0, 1.0 / 64.0, monotone=True)
    box_count = sum(traced)
    assert len(traced) == pruned.n_levels - 1
    assert pruned_count < box_count
    for a, b in zip(pruned.f_levels + pruned.b_levels,
                    whole.f_levels + whole.b_levels):
        assert a.values.tobytes() == b.values.tobytes()


@st.composite
def engine_cases(draw):
    """(spec, grid, dt, T) for the engine-level properties.

    f0 is a bump of amplitude A <= 1, centre |cx|, |cv| <= 0.5, half-width
    w <= 0.6 and power 2 to 4; B0 is a bump, gaussian, uniform or zero
    profile with |B0| <= 0.5; the grid is [-3, 3] x [-2.5, 2.5] at 17^2 or
    33^2 (dv <= 5/16), and T <= 0.5.

    No trajectory that can carry mass leaves the x-axis.  f is f0 at a
    foot, so 0 <= f <= A, and if every field met so far is bounded by M,
    mass at time s sits at velocities within w + s M of cv.  The trapezoid
    rule over those nodes gives rho(s) <= A (2 w + 2 s M + dv), and
    B(t, x) = B0(x - t) + int_0^t rho(s, x - t + s) ds, so

        M <= |B0| + A T (2 w + dv) + A T^2 M,
        M <= (0.5 + 0.5 (1.2 + 5/16)) / (1 - 0.25) < 1.7,

    for the solution and, by induction from M_0 = |B0|, for every Picard
    iterate.  A trajectory that carries mass then keeps
    |V| <= |cv| + w + T M < 1.1 + 0.85 < 2.5 and
    |X| <= |cx| + w + T |V| < 1.1 + 1 < 3, a cell and more inside both
    axes.  Direct's cubic reads may overshoot A; with f <= 1.5 A the same
    steps give M < 2.7 and |X| < 2.4.
    """
    spec = InitialDataSpec(
        f0_amplitude=draw(st.floats(0.1, 1.0)),
        f0_center_x=draw(st.floats(-0.5, 0.5)),
        f0_center_v=draw(st.floats(-0.5, 0.5)),
        f0_width=draw(st.floats(0.4, 0.6)),
        f0_power=draw(st.integers(2, 4)),
        b0_family=draw(st.sampled_from(["bump", "gaussian", "uniform",
                                        "zero"])),
        b0_amplitude=draw(st.floats(-0.5, 0.5)),
        b0_width=draw(st.floats(0.5, 1.5)))
    n = draw(st.sampled_from([17, 33]))
    return (spec, build_phase_grid(-3.0, 3.0, -2.5, 2.5, n, n),
            draw(st.sampled_from([1.0 / 16.0, 1.0 / 32.0])),
            draw(st.sampled_from([0.25, 0.5])))


@settings(max_examples=50, deadline=None)
@given(engine_cases(), st.booleans())
def test_direct_to_half_time_is_the_first_half_of_the_run(case, monotone):
    # Causality: a Direct level depends on earlier levels only.
    spec, grid, dt, t_final = case
    half = solve_direct(spec, grid, t_final / 2, dt, monotone=monotone)
    whole = solve_direct(spec, grid, t_final, dt, monotone=monotone)
    assert 2 * (half.n_levels - 1) == whole.n_levels - 1
    for a, b in zip(half.f_levels, whole.f_levels):
        assert (a.time, a.origin, a.block_shape) == (b.time, b.origin,
                                                     b.block_shape)
        assert a.data.tobytes() == b.data.tobytes()
        assert a.mask.tobytes() == b.mask.tobytes()
    for a, b in zip(half.b_levels, whole.b_levels):
        assert a.time == b.time
        assert a.values.tobytes() == b.values.tobytes()


@settings(max_examples=50, deadline=None)
@given(engine_cases())
def test_picard_density_stays_in_the_initial_range(case):
    # Picard reads f0 at the feet and never interpolates a level, so
    # 0 <= f <= sup f0 holds exactly on every stored entry.
    spec, grid, dt, t_final = case
    history, _ = solve_picard(spec, grid, t_final, dt)
    sup0 = spec.density().sup_norm
    for f in history.f_levels:
        assert np.all((f.data >= 0.0) & (f.data <= sup0))
