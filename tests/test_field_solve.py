import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

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
                                          build_phase_grid, interp_profile,
                                          sample_initial_data)

from lattices import grids, lattices, same_bits

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
def test_moment_profile_cached_table_changes_nothing(nx, monotone, data):
    grid = build_phase_grid(-2.0, 3.0, -1.0, 1.0, nx, 4)
    values = data.draw(arrays(np.float64, nx, elements=st.floats(-1e3, 1e3)))
    rho = MomentProfile(grid, values, 0.5)
    # queries on and off the axis: off it the moment reads zero
    for _ in range(2):
        xq = data.draw(arrays(np.float64, st.integers(1, 30),
                              elements=st.floats(-3.0, 4.0)))
        got = rho.at(xq, monotone=monotone)
        want = interp_profile(grid.x_min, grid.dx, values, xq,
                              out_of_range="zero", monotone=monotone)
        assert got.tobytes() == want.tobytes()


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
        inflow = lambda y, _t=k * dt: b0.value(np.asarray(y) - _t)
        b = advance_field(b, moments[k], moments[k + 1], dt, inflow=inflow)
    reference = field_from_history(b0.value, moments, steps * dt)
    assert np.max(np.abs(b.values - reference.values)) <= 1e-12
    assert b.time == pytest.approx(steps * dt)


def test_advance_field_requires_inflow_at_the_left_edge():
    grid = _grid(nx=17, nv=4)
    rho = MomentProfile(grid, np.zeros(grid.nx), 0.0)
    b = TransportField(grid, np.ones(grid.nx), 0.0)
    with pytest.raises(DomainExitError):
        advance_field(b, rho, rho, 0.1)
    stepped = advance_field(b, rho, rho, 0.1, inflow=lambda y: np.ones_like(y))
    np.testing.assert_allclose(stepped.values, 1.0, atol=1e-14)


def test_advance_field_rejects_bad_dt():
    grid = _grid(nx=9, nv=4)
    rho = MomentProfile(grid, np.zeros(9), 0.0)
    b = TransportField(grid, np.zeros(9), 0.0)
    with pytest.raises(ValueError):
        advance_field(b, rho, rho, 0.0)


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
