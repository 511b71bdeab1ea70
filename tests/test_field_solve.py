import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from vlasov_transport import phase_space
from vlasov_transport.field_solve import (BoundReport, MomentProfile,
                                          advance_field,
                                          conservative_data_constant,
                                          cumtrapz_uniform, density_moment,
                                          field_derivative_bound_check,
                                          field_from_history,
                                          field_sup_bound_check,
                                          trapezoid_uniform)
from vlasov_transport.phase_space import (BumpDensity, BumpField,
                                          DensityField, DomainExitError,
                                          InitialDataSpec, TransportField,
                                          UniformField, ZeroField,
                                          _cubic_table, build_phase_grid,
                                          interp_profile, sample_initial_data)

from vlasov_transport.solver import solve_picard

from lattices import grids, lattices, same_bits
from oracles import characteristic_accumulator, stacked_field_rebuild

# B^1 for a free-streamed default bump (B0 = 0), from an independent dense
# double quadrature of the line-integral representation.  Quadrature error
# of the oracle itself is below 2e-9.
B1_ORACLE = {
    -0.1875: 0.05039961560914377,
    0.0: 0.11204861097483156,
    0.28125: 0.10442880771184851,
}


def _grid(nx=65, nv=65):
    return build_phase_grid(-3.0, 3.0, -2.5, 2.5, nx, nv)


def test_trapezoid_uniform_matches_closed_form():
    y = np.array([1.0, 3.0, 2.0, 4.0])
    # h * (sum - (first + last)/2) with h = 0.5
    assert trapezoid_uniform(y, 0.5) == pytest.approx(0.5 * (10.0 - 2.5),
                                                      abs=1e-15)
    with pytest.raises(ValueError):
        trapezoid_uniform(np.array([1.0]), 0.5)


def test_cumtrapz_endpoint_matches_trapezoid():
    y = np.sin(np.linspace(0.0, 2.0, 41))
    cum = cumtrapz_uniform(y, 0.05)
    assert cum[0] == 0.0
    assert cum[-1] == pytest.approx(trapezoid_uniform(y, 0.05), abs=1e-14)


def test_density_moment_of_bump():
    # int bump(v/w) dv = 16/15 * w; at the bump center the x-factor is 1
    grid = _grid(nv=257)
    spec = InitialDataSpec()
    f, _ = sample_initial_data(spec, grid)
    rho = density_moment(f)
    center = np.argmin(np.abs(grid.x_nodes))
    assert grid.x_nodes[center] == 0.0
    assert rho.values[center] == pytest.approx(16.0 / 15.0 * 0.5, abs=5e-6)
    assert rho.time == 0.0


@settings(max_examples=300, deadline=None)
@given(grids(), st.data())
def test_density_moment_of_the_block_is_the_full_lattice_trapezoid(grid,
                                                                   data):
    values = data.draw(lattices(grid))
    rho = density_moment(DensityField(grid, values, 0.25))
    assert same_bits(rho.values, trapezoid_uniform(values, grid.dv, axis=1))
    assert rho.time == 0.25


def test_moment_profile_reads_zero_outside():
    grid = _grid(nx=9, nv=4)
    rho = MomentProfile(grid, np.ones(9), 0.0)
    got = rho.at(np.array([-5.0, 0.0, 5.0]))
    np.testing.assert_array_equal(got, [0.0, 1.0, 0.0])


@settings(max_examples=200, deadline=None)
@given(st.integers(4, 40), st.booleans(), st.data())
def test_profile_lookups_match_interp_profile(nx, monotone, data):
    grid = build_phase_grid(-2.0, 3.0, -1.0, 1.0, nx, 4)
    values = data.draw(arrays(np.float64, nx, elements=st.floats(-1e3, 1e3)))
    table = _cubic_table(values)
    rho = MomentProfile(grid, values, 0.5)
    b = TransportField(grid, values, 0.5)
    # queries on and off the axis: off it the moment reads zero and the
    # field is an error
    for _ in range(2):
        xq = data.draw(arrays(np.float64, st.integers(1, 30),
                              elements=st.floats(-3.0, 4.0)))
        got = rho.at(xq, monotone=monotone)
        want = interp_profile(grid.x_min, grid.dx, table, xq,
                              out_of_range="zero", monotone=monotone)
        assert got.tobytes() == want.tobytes()
        xq = np.clip(xq, grid.x_min, grid.x_max)
        got = b.at(xq, monotone=monotone)
        want = interp_profile(grid.x_min, grid.dx, table, xq,
                              monotone=monotone)
        assert got.tobytes() == want.tobytes()
    with pytest.raises(DomainExitError):
        b.at(grid.x_max + 0.5 * grid.dx)


# A moment level keeps its table, since a Picard sweep reads it again at
# every later level; a field level is looked up once, so it keeps none.
@pytest.mark.parametrize("family, name, tables",
                         [(TransportField, "field", 2),
                          (MomentProfile, "moment", 1)])
def test_profiles_freeze_check_and_build_their_tables(monkeypatch, family,
                                                      name, tables):
    builds = []

    def cubic_table(values):
        builds.append(values)
        return _cubic_table(values)

    monkeypatch.setattr(phase_space, "_cubic_table", cubic_table)
    grid = _grid(nx=9, nv=4)
    profile = family(grid, np.arange(9.0), 0.0)
    assert not profile.values.flags.writeable
    for xq in (np.array([0.3, -1.7]), 2.2):
        profile.at(xq)
    assert len(builds) == tables
    assert all(values is profile.values for values in builds)
    with pytest.raises(ValueError, match=f"^{name} profile shape"):
        family(grid, np.zeros(8), 0.0)


@pytest.mark.parametrize("family", [TransportField, MomentProfile])
def test_profiles_freeze_a_copy_of_the_callers_array(family):
    grid = _grid(nx=9, nv=4)
    values = np.zeros(9)
    profile = family(grid, values, 0.0)
    assert values.flags.writeable
    values[0] = 1.0
    assert profile.values[0] == 0.0


def test_field_from_history_zero_density_is_pure_transport():
    # no source: B(t) = B0(x - t) exactly, for any analytic B0
    grid = _grid(nx=33, nv=9)
    b0 = BumpField(0.5, 1.0)
    moments = [MomentProfile(grid, np.zeros(grid.nx), 0.125 * k)
               for k in range(5)]
    b = field_from_history(b0.value, moments, 0.5)
    np.testing.assert_allclose(b.values, b0.value(grid.x_nodes - 0.5),
                               rtol=0, atol=1e-15)
    assert b.time == 0.5


def test_field_from_history_constant_moment_adds_ct():
    # rho == c on a wide enough profile: B - B0(x-t) = c t to roundoff on
    # nodes whose sample rays stay on the axis
    grid = _grid(nx=65, nv=9)
    c = 0.375
    t = 0.25
    moments = [MomentProfile(grid, np.full(grid.nx, c), t / 4 * k)
               for k in range(5)]
    b0 = BumpField(0.5, 1.0)
    b = field_from_history(b0.value, moments, t)
    inside = grid.x_nodes >= grid.x_min + t
    expected = b0.value(grid.x_nodes - t) + c * t
    assert np.max(np.abs(b.values[inside] - expected[inside])) <= 1e-12


def test_field_from_history_validation():
    grid = _grid(nx=9, nv=4)
    with pytest.raises(ValueError):
        field_from_history(lambda x: x, [], 0.0)
    single = [MomentProfile(grid, np.zeros(9), 0.0)]
    with pytest.raises(ValueError):
        field_from_history(lambda x: x, single, 0.5)
    b = field_from_history(np.sin, single, 0.0)
    np.testing.assert_allclose(b.values, np.sin(grid.x_nodes), atol=1e-15)
    uneven = [MomentProfile(grid, np.zeros(9), t) for t in (0.0, 0.1, 0.5)]
    with pytest.raises(ValueError):
        field_from_history(np.sin, uneven, 0.5)


def test_field_from_history_is_linear_in_the_source():
    grid = _grid(nx=33, nv=9)
    rng = np.random.default_rng(5)
    base = rng.standard_normal(grid.nx)
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    def build(scale):
        moments = [MomentProfile(grid, scale * base * (1 + 0.2 * k),
                                 0.1 * k) for k in range(4)]
        return field_from_history(zero, moments, 0.3).values
    np.testing.assert_allclose(build(3.0), 3.0 * build(1.0), atol=1e-13)


# Moment entries of every kind a profile can hold: -0.0, subnormals, NaN
# and infinities included.
_MOMENT_ENTRY = st.one_of(
    st.floats(-3.0, 3.0),
    st.floats(-1e-307, 1e-307),                 # subnormals and zeros
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324]))


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(2, 40), st.integers(4, 17)).flatmap(
           lambda shape: arrays(np.float64, shape, elements=_MOMENT_ENTRY)),
       st.sampled_from([0.125, 0.1]),
       # the longer steps carry the later queries off the axis, where the
       # moments read zero
       st.sampled_from([0.02, 0.0625, 0.25, 0.75]),
       st.booleans())
# a non-dyadic step, dx = 0.1 and dt = 0.02, over 26 levels
@example(np.sin(np.arange(26 * 17.0)).reshape(26, 17), 0.1, 0.02, False)
def test_field_from_history_is_the_stacked_trapezoid(values, dx, dt,
                                                     monotone):
    # The running sum adds the reads in the order numpy's axis-0 sum adds
    # the stack's rows, so it is the stacked trapezoid bit for bit, from
    # one read of moment k at x - t + k dt.
    n_levels, nx = values.shape
    grid = build_phase_grid(0.0, dx * (nx - 1), -1.0, 1.0, nx, 4)
    t = (n_levels - 1) * dt
    b0 = BumpField(0.5, 1.0).value
    calls = []
    at = MomentProfile.at

    def spy(self, x, monotone=False):
        calls.append((self, np.array(x)))
        return at(self, x, monotone=monotone)

    # inf - inf in the tables and the sums warns
    with np.errstate(invalid="ignore", over="ignore"):
        moments = [MomentProfile(grid, row, k * dt)
                   for k, row in enumerate(values)]
        want = stacked_field_rebuild(b0, moments, t, monotone=monotone)
        with mock.patch.object(MomentProfile, "at", spy):
            got = field_from_history(b0, moments, t, monotone=monotone)
    assert got.values.tobytes() == want.tobytes()
    assert len(calls) == n_levels
    step = t / (n_levels - 1)
    for k, (moment, x) in enumerate(calls):
        assert moment is moments[k]
        assert x.tobytes() == (grid.x_nodes - t + k * step).tobytes()


def test_field_from_history_sums_its_reads_in_place():
    # 129 moment levels of 257 nodes, the last field level of a Picard
    # sweep at 257^2, T = 0.5.  Stacking the reads before summing them
    # takes 129 nx floats of scratch; the running sum keeps a few.
    grid = build_phase_grid(-3.0, 3.0, -2.5, 2.5, 257, 4)
    dt = 1.0 / 256
    rows = np.sin(np.linspace(0.0, 40.0, 129 * 257)).reshape(129, 257)
    moments = [MomentProfile(grid, row, k * dt) for k, row in enumerate(rows)]
    for m in moments:
        m._table    # built on the first lookup and kept, so build it now
    b0 = BumpField(0.5, 1.0).value
    tracemalloc.start()
    try:
        field_from_history(b0, moments, 128 * dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * grid.nx * 8


def test_free_streaming_field_matches_double_quadrature_oracle():
    # B0 = 0, f free-streams from the default bump; the field rebuilt from
    # lattice moments must match the dense-quadrature oracle at the frozen
    # points within the scheme's own quadrature error.
    grid = build_phase_grid(-3.0, 3.0, -2.5, 2.5, 129, 257)
    fam = InitialDataSpec().density()
    t = 0.25
    dt = 1.0 / 64.0
    levels = round(t / dt) + 1
    moments = []
    for k in range(levels):
        s = k * dt
        f_s = fam.value(grid.x_nodes[:, None] - grid.v_nodes[None, :] * s,
                        grid.v_nodes[None, :])
        moments.append(density_moment(DensityField(grid, f_s, s)))
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    b = field_from_history(zero, moments, t)
    for x, expected in B1_ORACLE.items():
        node = np.argmin(np.abs(grid.x_nodes - x))
        assert abs(grid.x_nodes[node] - x) < 1e-12
        assert b.values[node] == pytest.approx(expected, abs=5e-5)


@pytest.mark.parametrize("n, t_final, p", [(65, 1.0, 6), (257, 0.25, 6),
                                          (65, 0.5, 12)])
def test_characteristic_accumulator_is_bitwise_field_from_history(
        n, t_final, p):
    # one read per moment summed in j order gives every field level of a
    # converged Picard history, bit for bit, on these dyadic steps
    spec = InitialDataSpec()
    grid = build_phase_grid(-3.0, 3.0, -2.5, 2.5, n, n)
    dt = grid.dx / p
    history, trace = solve_picard(spec, grid, t_final, dt)
    assert trace.converged
    moments = [density_moment(f) for f in history.f_levels]
    b0 = spec.field().value
    levels = characteristic_accumulator(b0, moments, dt)
    assert len(levels) == len(moments) == 65
    for k, values in enumerate(levels):
        want = field_from_history(b0, moments[:k + 1], k * dt)
        assert values.tobytes() == want.values.tobytes(), k


def test_advance_field_composition_matches_representation():
    # dt equal to one cell: the shift lands on nodes, so composing one-step
    # updates reproduces the composite-trapezoid representation exactly
    grid = build_phase_grid(-3.0, 3.0, -2.5, 2.5, 49, 9)
    dt = grid.dx
    steps = 6
    b0 = BumpField(0.5, 1.0)
    fam = BumpDensity(1.0, 0.0, 0.0, 0.5)

    def moment_at(s):
        f_s = fam.value(grid.x_nodes[:, None] - grid.v_nodes[None, :] * s,
                        grid.v_nodes[None, :])
        return density_moment(DensityField(grid, f_s, s))

    moments = [moment_at(k * dt) for k in range(steps + 1)]
    b = TransportField(grid, b0.value(grid.x_nodes), 0.0)
    for k in range(steps):
        b = advance_field(b, moments[k], dt, b0)(moments[k + 1],
                                                 moments[k + 1].time)
    reference = field_from_history(b0.value, moments, steps * dt)
    assert np.max(np.abs(b.values - reference.values)) <= 1e-12
    assert b.time == pytest.approx(steps * dt)


def test_advance_field_reads_the_transported_b0_left_of_the_axis():
    # With zero moments a step is the shift alone: the nodes whose x - dt
    # leaves the axis read the inflow B0(x - dt - t), bitwise.
    grid = _grid(nx=17, nv=4)
    dt, t = 0.5, 0.75
    b0 = BumpField(0.5, 5.0)
    rho = MomentProfile(grid, np.zeros(grid.nx), t)
    rho_next = MomentProfile(grid, np.zeros(grid.nx), t + dt)
    b = TransportField(grid, b0.value(grid.x_nodes - t), t)
    stepped = advance_field(b, rho, dt, b0)(rho_next, rho_next.time)
    left = grid.x_nodes - dt < grid.x_min
    assert left.sum() == 2
    want = b0.value(grid.x_nodes[left] - dt - t)
    assert stepped.values[left].tobytes() == want.tobytes()
    rho = MomentProfile(grid, np.zeros(grid.nx), 0.0)
    b = TransportField(grid, np.ones(grid.nx), 0.0)
    stepped = advance_field(b, rho, 0.1, UniformField(1.0))(rho, 0.1)
    np.testing.assert_allclose(stepped.values, 1.0, atol=1e-14)


def test_advance_field_rejects_bad_dt():
    grid = _grid(nx=9, nv=4)
    rho = MomentProfile(grid, np.zeros(9), 0.0)
    b = TransportField(grid, np.zeros(9), 0.0)
    for dt in (0.0, -0.1):
        with pytest.raises(ValueError, match="dt must be positive"):
            advance_field(b, rho, dt, ZeroField())


def test_field_derivative_rep_zero_density():
    def dxb0(x):
        # x-derivative of BumpField(0.5, 1.0), 0.5 * (1 - x^2)^2_+
        return -2.0 * x * np.clip(1.0 - x * x, 0.0, None)

    grid = _grid(nx=33, nv=9)
    levels = [DensityField(grid, np.zeros((grid.nx, grid.nv)), 0.1 * k)
              for k in range(4)]
    dxb = field_from_history(dxb0, [density_moment(lv) for lv in levels], 0.3)
    np.testing.assert_allclose(dxb.values, dxb0(grid.x_nodes - 0.3),
                               atol=1e-15)


def test_conservative_data_constant():
    assert conservative_data_constant(1.0, 0.5) == 2.0
    assert conservative_data_constant(0.0, 0.0) == 1.0
    assert conservative_data_constant(3.0, 2.0) == 12.0


def test_field_sup_bound_check_passes_on_conforming_data():
    # synthetic run respecting |B| <= C(1 + int P): flat P, modest B
    dt = 0.1
    p = np.full(6, 0.5)
    c = 2.0
    b_sups = c * (1.0 + cumtrapz_uniform(p, dt)) * 0.8
    report = field_sup_bound_check(b_sups, p, dt, c)
    assert report
    assert report.satisfied and report.max_ratio <= 1.0


def test_field_sup_bound_check_flags_violations():
    dt = 0.1
    p = np.full(6, 0.5)
    b_sups = np.full(6, 100.0)
    report = field_sup_bound_check(b_sups, p, dt, 2.0)
    assert not report.satisfied
    assert report.max_ratio > 1.0
    assert isinstance(report, BoundReport)


def test_field_derivative_bound_check():
    dt = 0.1
    dxf = np.full(5, 1.0)
    c_t = 3.0
    good = c_t * (1.0 + cumtrapz_uniform(dxf, dt)) * 0.9
    assert field_derivative_bound_check(good, dxf, dt, c_t).satisfied
    bad = np.full(5, 50.0)
    report = field_derivative_bound_check(bad, dxf, dt, c_t)
    assert not report.satisfied
    assert report.worst_level == int(np.argmax(bad / (c_t * (
        1.0 + cumtrapz_uniform(dxf, dt)) + 1e-12)))
