import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from vlasov_transport import characteristics
from vlasov_transport.characteristics import (_TIME_SNAP, LatticeFieldHistory,
                                              trace_states)
from vlasov_transport.phase_space import (DomainExitError, _cubic_table,
                                          build_phase_grid, interp_profile)

from oracles import AnalyticFieldHistory, constant_field_oracle


def test_constant_field_single_step():
    # B = 2, one unit step from rest: X = b s^2 / 2 = 1, V = b s = 2.
    field = AnalyticFieldHistory.constant(2.0)
    x, v = trace_states(np.zeros(1), np.zeros(1), 0.0, 1.0, field, 1)
    assert x.tolist() == [1.0]
    assert v.tolist() == [2.0]


def test_constant_field_oracle_formula():
    x, v = constant_field_oracle(1.0, -0.5, 2.0, 0.0, 0.25)
    # X(0) = x + v(0-t) + b(0-t)^2/2 = 1 + 1 + 0.5 = 2.5; V(0) = -1.0
    assert x == pytest.approx(2.5, abs=1e-15)
    assert v == pytest.approx(-1.0, abs=1e-15)


def _node_grid(grid):
    return (np.broadcast_to(grid.x_nodes[:, None], (grid.nx, grid.nv)),
            np.broadcast_to(grid.v_nodes[None, :], (grid.nx, grid.nv)))


def test_trace_states_matches_constant_field_oracle():
    grid = build_phase_grid(-2.0, 2.0, -1.0, 1.0, 17, 17)
    b = 0.35
    field = AnalyticFieldHistory.constant(b)
    xg, vg = _node_grid(grid)
    x0, v0 = trace_states(xg, vg, 0.8, 0.0, field, 4)
    ox, ov = constant_field_oracle(xg, vg, 0.8, 0.0, b)
    assert np.max(np.abs(x0 - ox)) <= 1e-12
    assert np.max(np.abs(v0 - ov)) <= 1e-12


def test_trace_states_to_its_own_time_returns_copies():
    # Picard's level 0 is traced from t = 0 to 0: its nodes are their own
    # feet, in new arrays, and no field is read
    grid = build_phase_grid(-1.0, 1.0, -1.0, 1.0, 9, 9)
    xg, vg = _node_grid(grid)
    field = AnalyticFieldHistory(lambda s, x: pytest.fail("field read"), 0.0)
    x0, v0 = trace_states(xg, vg, 0.0, 0.0, field, 1)
    assert np.array_equal(x0, xg) and np.array_equal(v0, vg)
    assert not np.shares_memory(x0, xg) and not np.shares_memory(v0, vg)
    assert x0.flags.writeable and v0.flags.writeable


def _smooth_field():
    return AnalyticFieldHistory(lambda s, x: np.sin(1.3 * s) * np.cos(0.7 * x),
                                sup_bound=1.0)


def test_trace_reversal_roundtrip():
    field = _smooth_field()
    x = np.array([0.3, -0.8, 1.2])
    v = np.array([-0.4, 0.9, 0.1])
    x0, v0 = trace_states(x, v, 1.0, 0.0, field, 256)
    x1, v1 = trace_states(x0, v0, 0.0, 1.0, field, 256)
    assert np.max(np.abs(x1 - x)) <= 1e-12
    assert np.max(np.abs(v1 - v)) <= 1e-12


def test_substep_partition_is_exactly_composable():
    # a trace split at a matching intermediate time reproduces the one-shot
    # trace bitwise: the same RK4 sequence runs either way
    field = _smooth_field()
    x = np.array([0.25, -1.0])
    v = np.array([0.5, -0.5])
    xa, va = trace_states(x, v, 1.0, 0.0, field, 8)
    xm, vm = trace_states(x, v, 1.0, 0.5, field, 4)
    xb, vb = trace_states(xm, vm, 0.5, 0.0, field, 4)
    assert np.array_equal(xa, xb) and np.array_equal(va, vb)


def test_rk4_self_convergence_order():
    field = _smooth_field()
    x = np.array([0.2])
    v = np.array([-0.3])
    ref_x, ref_v = trace_states(x, v, 1.0, 0.0, field, 1024)
    errors = []
    for n in (4, 8, 16, 32):
        xn, vn = trace_states(x, v, 1.0, 0.0, field, n)
        errors.append(max(abs(float(xn[0] - ref_x[0])),
                          abs(float(vn[0] - ref_v[0]))))
    orders = [math.log2(errors[k] / errors[k + 1]) for k in range(3)]
    assert min(orders) >= 3.9


def test_phase_flow_preserves_volume():
    # Liouville: the backward map has unit Jacobian; estimate it by
    # finite differences of the traced map under a smooth field.
    field = _smooth_field()
    h = 1e-5
    x = np.array([0.3, 0.3 + h, 0.3 - h, 0.3, 0.3])
    v = np.array([-0.2, -0.2, -0.2, -0.2 + h, -0.2 - h])
    xs, vs = trace_states(x, v, 0.9, 0.0, field, 32)
    dxdx = (xs[1] - xs[2]) / (2 * h)
    dvdx = (vs[1] - vs[2]) / (2 * h)
    dxdv = (xs[3] - xs[4]) / (2 * h)
    dvdv = (vs[3] - vs[4]) / (2 * h)
    jac = dxdx * dvdv - dvdx * dxdv
    assert jac == pytest.approx(1.0, abs=1e-6)


def test_trace_states_validation():
    field = AnalyticFieldHistory.constant(0.0)
    with pytest.raises(ValueError):
        trace_states(np.zeros(2), np.zeros(2), 1.0, 0.0, field, 0)
    x, v = trace_states(np.array([1.0]), np.array([2.0]), 0.5, 0.5, field, 3)
    assert x[0] == 1.0 and v[0] == 2.0


def test_trace_states_of_no_states_is_empty():
    grid = build_phase_grid(-1.0, 1.0, -1.0, 1.0, 9, 4)
    history = LatticeFieldHistory(
        grid, np.stack([np.linspace(0.0, 1.0, 9)] * 3), 0.25)
    for field in (history, AnalyticFieldHistory.constant(2.0)):
        x, v = trace_states(np.empty(0), np.empty(0), 0.5, 0.0, field, 2)
        assert x.shape == v.shape == (0,)


def test_lattice_history_time_interpolation():
    grid = build_phase_grid(0.0, 1.0, 0.0, 1.0, 9, 4)
    lower = np.linspace(0.0, 1.0, 9)
    upper = np.linspace(1.0, 3.0, 9)
    hist = LatticeFieldHistory(grid, np.stack([lower, upper]), 0.5, t0=1.0)
    assert hist.t_max == 1.5
    assert hist.sup_bound() == 3.0
    np.testing.assert_array_equal(hist.eval(1.0, grid.x_nodes), lower)
    np.testing.assert_array_equal(hist.eval(1.5, grid.x_nodes), upper)
    mid = hist.eval(1.25, grid.x_nodes)
    np.testing.assert_allclose(mid, 0.5 * (lower + upper), atol=1e-15)


# The spacing of float64 below the normal range: no two different doubles
# there lie closer, so no bound on a difference of them can be smaller.
SUBNORMAL_STEP = np.finfo(float).smallest_subnormal


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(2, 6), st.integers(4, 33)),
              elements=st.floats(-1e3, 1e3)),
       st.floats(1e-6, 1.0 - 1e-6), st.integers(0, 4),
       arrays(np.float64, st.integers(1, 40), elements=st.floats(-1.5, 2.0)))
# subnormal levels: 1e-14 of their size underflows below one step
@example(np.array([[2.2250738585e-313, 0.0, 0.0, 0.0], [0.0] * 4]), 0.75, 0,
         np.array([0.0]))
def test_lattice_history_blend_matches_two_level_form(values, theta, k, xq):
    levels, nx = values.shape
    k %= levels - 1
    grid = build_phase_grid(-1.5, 2.0, 0.0, 1.0, nx, 4)
    hist = LatticeFieldHistory(grid, values, 0.25)
    pos = k + theta
    got = hist.eval(0.25 * pos, xq)
    # one lookup of the blended row against the blend of two lookups
    lower, upper = (interp_profile(grid.x_min, grid.dx, values[j], xq)
                    for j in (k, k + 1))
    want = (1.0 - (pos - k)) * lower + (pos - k) * upper
    # relative rounding, floored at the resolution of the values: each
    # side rounds a few times, by up to half a step each, below 2^-1022
    scale = np.max(np.abs(values))
    bound = max(1e-14 * scale, 8 * SUBNORMAL_STEP)
    assert np.max(np.abs(got - want)) <= bound


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6), st.integers(4, 33), st.data())
def test_lattice_history_eval_in_any_order_is_one_blended_lookup(levels, nx,
                                                                  data):
    grid = build_phase_grid(-1.5, 2.0, 0.0, 1.0, nx, 4)
    values = data.draw(arrays(np.float64, (levels, nx),
                              elements=st.floats(-1e3, 1e3)))
    dt = 0.25
    on_level = st.integers(0, levels - 1).map(float)
    half_level = st.integers(0, levels - 2).map(lambda k: k + 0.5)
    # a few ulps to a little past _TIME_SNAP off a half-level
    near_half = st.tuples(st.integers(0, levels - 2),
                          st.floats(-2e-9, 2e-9)).map(lambda p: p[0] + 0.5
                                                      + p[1])
    anywhere = st.tuples(st.integers(0, levels - 2),
                         st.floats(1e-6, 1.0 - 1e-6)).map(sum)
    positions = data.draw(st.lists(st.one_of(on_level, half_level, near_half,
                                             anywhere),
                                   min_size=1, max_size=8))
    xq = data.draw(arrays(np.float64, st.integers(1, 20),
                          elements=st.floats(grid.x_min, grid.x_max)))
    hist = LatticeFieldHistory(grid, values, dt)
    # forwards, then backwards: every time is met again after others, so
    # a stale cached table would show
    for pos in positions + positions[::-1]:
        s = dt * pos
        got = hist.eval(s, xq)
        pos = s / dt
        k = min(int(pos), levels - 2)
        theta = pos - k
        if abs(theta - 0.5) <= _TIME_SNAP:
            theta = 0.5
        if theta in (0.0, 1.0):
            row = values[k + int(theta)]
        else:
            row = (1.0 - theta) * values[k] + theta * values[k + 1]
        want = interp_profile(grid.x_min, grid.dx, row, xq)
        assert got.tobytes() == want.tobytes()


def test_stage_times_of_a_non_dyadic_history_read_cached_tables(
        monkeypatch):
    # With dt = 0.01 the middle stages of an RK4 step land an ulp or so off
    # a half-level; each would build the table of its own blend.
    grid = build_phase_grid(-2.0, 2.0, 0.0, 1.0, 33, 4)
    dt, levels = 0.01, 31
    times = dt * np.arange(levels)
    hist = LatticeFieldHistory(
        grid, 0.5 * np.sin(grid.x_nodes[None, :] - times[:, None]), dt)
    built = []

    def cubic_table(values):
        built.append(values)
        return _cubic_table(values)

    monkeypatch.setattr(characteristics, "_cubic_table", cubic_table)
    x = np.linspace(-0.5, 0.5, 5)
    v = np.linspace(-0.3, 0.3, 5)
    # as Picard traces level k: k steps of one level spacing back to 0
    for k in range(1, levels):
        trace_states(x, v, k * dt, 0.0, hist, k)
    assert built == []


def test_analytic_history_range_is_the_symmetric_sup():
    assert AnalyticFieldHistory.constant(-0.5).range_bound() == (-0.5, 0.5)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(4, 12), st.booleans(), st.data())
def test_lattice_history_values_stay_in_the_range_bound(levels, nx,
                                                        plateau, data):
    grid = build_phase_grid(-1.0, 1.0, 0.0, 1.0, nx, 4)
    if plateau:
        # 0, 1, 1, 0, ...: the cubic reaches 1.125 between the two ones
        row = np.resize([0.0, 1.0, 1.0, 0.0], nx)
        values = data.draw(st.sampled_from([1.0, -1.0])) * np.tile(
            row, (levels, 1))
    else:
        values = data.draw(arrays(np.float64, (levels, nx),
                                  elements=st.floats(-3.0, 3.0)))
    hist = LatticeFieldHistory(grid, values, 0.5)
    lo, hi = hist.range_bound()
    times = [0.5 * k for k in range(levels)]              # on a level
    times += [0.5 * k + 0.25 for k in range(levels - 1)]  # halfway
    times += data.draw(st.lists(st.floats(0.0, hist.t_max), max_size=3))
    xq = np.concatenate([np.linspace(-1.0, 1.0, 257),
                         data.draw(arrays(np.float64, 16,
                                          elements=st.floats(-1.0, 1.0)))])
    # rounding of Horner's rule and of a blend's table, which the support
    # mask's relative slack covers
    tol = 1e-12 * max(1.0, abs(lo), abs(hi))
    for s in times:
        got = hist.eval(s, xq)
        assert np.all(got >= lo - tol) and np.all(got <= hi + tol)
    assert lo <= np.min(values) and hi >= np.max(values)
    if plateau:
        assert max(-lo, hi) > hist.sup_bound()


def test_lattice_history_reads_the_last_level_table():
    # The last level sits at theta = 1 of the last interval and reads that
    # level's table.  The blend 0 * lower + upper turns upper's -0.0 into
    # +0.0, and a lookup on the blend then differs in a zero's sign.
    grid = build_phase_grid(0.0, 1.0, 0.0, 1.0, 9, 4)
    upper = np.array([-0.0, -0.0, -1.0, -0.5, -0.0, 0.25, -0.0, -0.0, -0.0])
    hist = LatticeFieldHistory(grid, np.stack([np.ones(9), upper]), 0.5)
    xq = np.concatenate([grid.x_nodes, np.linspace(0.0, 1.0, 23)])
    want = interp_profile(grid.x_min, grid.dx, upper, xq)
    assert hist.eval(0.5, xq).tobytes() == want.tobytes()


def test_lattice_history_keeps_a_read_only_copy():
    grid = build_phase_grid(0.0, 1.0, 0.0, 1.0, 9, 4)
    levels = np.stack([np.linspace(0.0, 1.0, 9), np.linspace(1.0, 3.0, 9)])
    hist = LatticeFieldHistory(grid, levels, 0.5)
    before = hist.eval(0.25, grid.x_nodes)
    levels[:] = 7.0
    assert np.array_equal(hist.eval(0.25, grid.x_nodes), before)
    assert not hist.values.flags.writeable


def test_lattice_history_out_of_range():
    grid = build_phase_grid(0.0, 1.0, 0.0, 1.0, 9, 4)
    hist = LatticeFieldHistory(grid, np.zeros((3, 9)), 0.25)
    with pytest.raises(ValueError):
        hist.eval(0.8, np.array([0.5]))      # beyond the last level
    with pytest.raises(ValueError):
        hist.eval(-0.1, np.array([0.5]))
    with pytest.raises(DomainExitError):
        hist.eval(0.25, np.array([1.2]))     # off the spatial axis


def test_lattice_history_shape_validation():
    grid = build_phase_grid(0.0, 1.0, 0.0, 1.0, 9, 4)
    with pytest.raises(ValueError):
        LatticeFieldHistory(grid, np.zeros((3, 5)), 0.1)
    with pytest.raises(ValueError):
        LatticeFieldHistory(grid, np.zeros((3, 9)), 0.0)
    with pytest.raises(ValueError, match="at least one level"):
        LatticeFieldHistory(grid, np.zeros((0, 9)), 0.1)


def test_one_interval_at_a_time_is_bitwise_the_whole_trace():
    # derivative_rep_check steps the path back one interval at a time and
    # keeps each state: every state is the k-step trace, bitwise
    field = _smooth_field()
    x = np.array([0.1, -0.6])
    v = np.array([0.4, 0.2])
    xk, vk = x, v
    for k in range(1, 4):
        xk, vk = trace_states(xk, vk, 0.25 * (4 - k), 0.25 * (3 - k),
                              field, 1)
        xw, vw = trace_states(x, v, 0.75, 0.25 * (3 - k), field, k)
        assert np.array_equal(xk, xw) and np.array_equal(vk, vw)
