import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from vlasov_transport.phase_space import (BumpDensity, BumpField,
                                          DensityField, DomainExitError,
                                          GaussianField, InitialDataSpec,
                                          PhaseGrid, TransportField,
                                          UniformField, ZeroDensity,
                                          ZeroField, build_phase_grid,
                                          interp_lattice, interp_profile,
                                          interpolate, sample_initial_data)
from vlasov_transport.phase_space import _NODE_SNAP, _stencil


def test_grid_spacing_and_nodes():
    grid = build_phase_grid(-3.0, 3.0, -2.5, 2.5, 65, 41)
    assert grid.dx == 6.0 / 64.0
    assert grid.dv == 5.0 / 40.0
    assert grid.x_nodes[0] == -3.0 and grid.x_nodes[-1] == 3.0
    assert grid.v_nodes[0] == -2.5 and grid.v_nodes[-1] == 2.5
    assert grid.x_nodes.shape == (65,)


def test_grid_validation():
    with pytest.raises(ValueError):
        PhaseGrid(1.0, -1.0, 0.0, 1.0, 8, 8)
    with pytest.raises(ValueError):
        PhaseGrid(0.0, 1.0, 0.0, 1.0, 3, 8)


def test_grid_nodes_are_read_only():
    grid = build_phase_grid(0.0, 1.0, 0.0, 1.0, 5, 5)
    with pytest.raises(ValueError):
        grid.x_nodes[0] = 2.0


def test_density_field_shape_check():
    grid = build_phase_grid(0.0, 1.0, 0.0, 1.0, 5, 7)
    with pytest.raises(ValueError):
        DensityField(grid, np.zeros((7, 5)), 0.0)
    f = DensityField(grid, np.zeros((5, 7)), 0.0)
    assert f.sup_norm() == 0.0


def test_bump_density_values_and_support():
    fam = BumpDensity(2.0, 0.5, -0.25, 0.5)
    assert fam.value(0.5, -0.25) == 2.0
    assert fam.value(1.1, -0.25) == 0.0
    assert fam.value(0.5, 0.3) == 0.0
    assert fam.sup_norm == 2.0
    assert fam.support == ((0.0, 1.0), (-0.75, 0.25))
    # C^1 decay: value and derivative vanish at the support edge
    assert fam.value(1.0, -0.25) == 0.0
    assert fam.dx(1.0, -0.25) == 0.0


@pytest.mark.parametrize("point", [(0.1, -0.3), (0.62, 0.05), (0.9, 0.2)])
def test_bump_density_derivatives_match_finite_differences(point):
    fam = BumpDensity(1.5, 0.5, -0.1, 0.6)
    x, v = point
    h = 1e-6
    fd_x = (fam.value(x + h, v) - fam.value(x - h, v)) / (2 * h)
    fd_v = (fam.value(x, v + h) - fam.value(x, v - h)) / (2 * h)
    assert abs(fam.dx(x, v) - fd_x) < 1e-7
    assert abs(fam.dv(x, v) - fd_v) < 1e-7


def test_bump_density_power_raises_smoothness():
    base = BumpDensity(1.3, 0.1, -0.2, 0.7)
    # the default power is the quartic profile, bitwise
    lattice = np.linspace(-1.6, 1.6, 201)
    quartic = BumpDensity(1.3, 0.1, -0.2, 0.7, 2)
    assert np.array_equal(base.value(lattice[:, None], lattice[None, :]),
                          quartic.value(lattice[:, None], lattice[None, :]))
    # higher power keeps amplitude, support, and the derivative identity
    p4 = BumpDensity(1.5, 0.5, -0.1, 0.6, 4)
    assert p4.value(0.5, -0.1) == 1.5
    assert p4.support == BumpDensity(1.5, 0.5, -0.1, 0.6).support
    h = 1e-6
    fd_x = (p4.value(0.62 + h, 0.05) - p4.value(0.62 - h, 0.05)) / (2 * h)
    assert abs(p4.dx(0.62, 0.05) - fd_x) < 1e-7
    # second derivative now vanishes at the edge too
    assert abs(p4.dx(1.1 - 1e-4, -0.1)) < 1e-8
    assert p4.scaled(-2.0).power == 4
    with pytest.raises(ValueError):
        BumpDensity(1.0, 0.0, 0.0, 0.5, 1)
    with pytest.raises(ValueError):
        InitialDataSpec(f0_power=0)
    assert InitialDataSpec(f0_power=3).density().power == 3


def test_field_families():
    bump = BumpField(0.5, 1.0)
    assert bump.value(0.0) == 0.5
    assert bump.value(1.0) == 0.0 and bump.value(2.0) == 0.0
    assert bump.sup_norm == 0.5

    gauss = GaussianField(2.0, 0.7)
    assert gauss.value(0.0) == 2.0
    assert gauss.value(0.7) == pytest.approx(2.0 / math.e, rel=1e-15)

    uni = UniformField(-1.5)
    assert np.all(uni.value(np.linspace(-4, 4, 7)) == -1.5)
    assert uni.derivative_sup == 0.0

    zero = ZeroField()
    assert zero.sup_norm == 0.0 and zero.value(3.0) == 0.0


@pytest.mark.parametrize("fam", [BumpField(0.5, 1.0), GaussianField(2.0, 0.7)])
def test_field_derivative_sup_matches_dense_scan(fam):
    x = np.linspace(-5.0, 5.0, 200001)
    assert fam.derivative_sup == pytest.approx(
        np.max(np.abs(fam.derivative(x))), rel=1e-6)


def test_zero_density_conventions():
    fam = ZeroDensity()
    assert fam.support is None
    assert fam.sup_norm == 0.0
    assert fam.scaled(3.0) is fam
    assert np.all(fam.value(np.zeros(3), np.zeros(3)) == 0.0)


def test_initial_data_spec_validation():
    with pytest.raises(ValueError):
        InitialDataSpec(f0_family="sine")
    with pytest.raises(ValueError):
        InitialDataSpec(f0_width=0.0)
    with pytest.raises(ValueError):
        InitialDataSpec(b0_family="step")


def test_scaled_data_change_of_frame():
    spec = InitialDataSpec()
    # u = 0 is the identity on the data
    assert spec.scaled(0.0) == spec
    # u = -2 sends (x, v) -> (-x, 2 - v) and negates density and field;
    # the sample points sit inside the mirrored support around v = 2
    mirrored = spec.scaled(-2.0)
    x = np.array([-0.3, 0.0, 0.2])
    v = np.array([1.9, 2.4, 1.75])
    source = spec.density().value(-x, 2.0 - v)
    assert np.all(source > 0.0)
    np.testing.assert_allclose(mirrored.density().value(x, v), -source,
                               atol=1e-15)
    np.testing.assert_allclose(mirrored.field().value(x),
                               -spec.field().value(-x), atol=1e-15)
    # applying u = -2 twice recovers the original data
    assert mirrored.scaled(-2.0) == spec
    with pytest.raises(ValueError):
        spec.scaled(-1.0)


def test_sample_initial_data_margin():
    spec = InitialDataSpec()    # f0 support is [-0.5, 0.5]^2
    grid = build_phase_grid(-3.0, 3.0, -2.5, 2.5, 33, 33)
    f, b = sample_initial_data(spec, grid)
    assert f.values.shape == (33, 33)
    # two-node zero collar on every side
    assert np.all(f.values[:2] == 0.0) and np.all(f.values[-2:] == 0.0)
    assert np.all(f.values[:, :2] == 0.0) and np.all(f.values[:, -2:] == 0.0)
    # support touching the margin is rejected
    tight = build_phase_grid(-0.6, 0.6, -2.5, 2.5, 17, 17)
    with pytest.raises(ValueError):
        sample_initial_data(spec, tight)


def test_cubic_reproduction_on_profile():
    # 4-point stencils must reproduce any cubic exactly; frozen oracle value
    # p(3.37) computed from the closed form.
    p = lambda x: 2 * x**3 - x**2 + 0.5 * x - 3.0
    values = p(np.arange(9.0))
    got = interp_profile(0.0, 1.0, values, 3.37)
    assert got == pytest.approx(63.87360600000001, abs=1e-12)
    queries = np.array([0.123, 1.77, 4.5, 6.999, 7.3])
    np.testing.assert_allclose(interp_profile(0.0, 1.0, values, queries),
                               p(queries), rtol=0, atol=1e-11)


def test_node_queries_are_bitwise():
    rng = np.random.default_rng(7)
    values = rng.standard_normal(12)
    nodes = 0.25 * np.arange(12.0) - 1.0
    got = interp_profile(-1.0, 0.25, values, nodes)
    assert np.array_equal(got, values)
    # and through float noise smaller than the snap width
    noisy = nodes + 1e-11
    assert np.array_equal(interp_profile(-1.0, 0.25, values, noisy), values)


def test_profile_out_of_range_conventions():
    values = np.ones(8)
    with pytest.raises(DomainExitError):
        interp_profile(0.0, 1.0, values, 7.5)
    with pytest.raises(DomainExitError):
        interp_profile(0.0, 1.0, values, -0.2)
    got = interp_profile(0.0, 1.0, values, np.array([-0.5, 3.0, 9.0]),
                         out_of_range="zero")
    np.testing.assert_array_equal(got, [0.0, 1.0, 0.0])


def test_profile_interp_order():
    # smooth target: error should drop ~16x per spacing halving (order 4)
    f = np.sin
    errors = []
    for n in (33, 65, 129):
        x = np.linspace(0.0, 2.0, n)
        q = np.linspace(0.05, 1.95, 1001)
        err = np.max(np.abs(interp_profile(0.0, x[1] - x[0], f(x), q) - f(q)))
        errors.append(err)
    orders = [math.log2(errors[k] / errors[k + 1]) for k in range(2)]
    assert min(orders) >= 3.9


def test_lattice_interp_matches_separable_product():
    grid = build_phase_grid(0.0, 1.0, 0.0, 1.0, 9, 9)
    gx = grid.x_nodes[:, None] ** 3
    gv = 1.0 + grid.v_nodes[None, :] ** 2
    values = gx * gv
    xq = np.array([0.13, 0.52, 0.88])
    vq = np.array([0.21, 0.47, 0.93])
    got = interp_lattice(grid, values, xq, vq)
    np.testing.assert_allclose(got, xq**3 * (1.0 + vq**2), rtol=0, atol=1e-13)
    # outside the rectangle the density reads zero
    assert interp_lattice(grid, values, -0.5, 0.5) == 0.0
    assert interp_lattice(grid, values, 0.5, 1.5) == 0.0


def test_lattice_node_queries_are_bitwise():
    grid = build_phase_grid(-1.0, 1.0, -1.0, 1.0, 7, 7)
    rng = np.random.default_rng(3)
    values = rng.standard_normal((7, 7))
    got = interp_lattice(grid, values, grid.x_nodes[:, None],
                         grid.v_nodes[None, :])
    assert np.array_equal(got, values)


def test_monotone_clip_profile():
    # overshooting data: a sharp step makes plain cubics ring
    values = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    q = np.linspace(0.0, 5.0, 101)
    plain = interp_profile(0.0, 1.0, values, q)
    clipped = interp_profile(0.0, 1.0, values, q, monotone=True)
    assert plain.min() < -1e-3 and plain.max() > 1.0 + 1e-3
    assert clipped.min() >= 0.0 and clipped.max() <= 1.0
    # clip keeps node queries bitwise
    assert np.array_equal(
        interp_profile(0.0, 1.0, values, np.arange(6.0), monotone=True),
        values)


def test_monotone_clip_lattice_preserves_sign_and_sup():
    grid = build_phase_grid(0.0, 5.0, 0.0, 5.0, 6, 6)
    values = np.zeros((6, 6))
    values[3:, 3:] = 1.0
    rng = np.random.default_rng(11)
    xq = rng.uniform(0.0, 5.0, 400)
    vq = rng.uniform(0.0, 5.0, 400)
    clipped = interp_lattice(grid, values, xq, vq, monotone=True)
    assert clipped.min() >= 0.0 and clipped.max() <= 1.0


def test_interpolate_dispatch():
    grid = build_phase_grid(0.0, 1.0, 0.0, 1.0, 5, 5)
    f = DensityField(grid, np.ones((5, 5)), 0.0)
    b = TransportField(grid, np.arange(5.0), 0.0)
    assert interpolate(f, 0.5, 0.5) == pytest.approx(1.0)
    assert interpolate(b, 0.25) == pytest.approx(1.0)
    with pytest.raises(TypeError):
        interpolate(f, 0.5)
    with pytest.raises(TypeError):
        interpolate(b, 0.5, 0.5)
    with pytest.raises(DomainExitError):
        interpolate(b, 1.5)


# ---------------------------------------------------------------------------
# properties of the per-cell power-form kernel behind interp_profile

node_values = st.integers(4, 40).flatmap(lambda n: arrays(
    np.float64, n, elements=st.floats(-1e3, 1e3, allow_subnormal=False)))
origins = st.floats(-10.0, 10.0)
spacings = st.floats(1e-3, 10.0)
cell_fractions = arrays(np.float64, st.integers(1, 50),
                        elements=st.floats(0.0, 1.0))


def _lagrange_profile(x0, dx, values, xq):
    # the 4-point Lagrange form the kernel's coefficient table stands for
    n = values.shape[0]
    coord = np.clip((xq - x0) / dx, 0.0, float(n - 1))
    _, start, weights = _stencil(coord, n)
    return sum(w * values[start + k] for k, w in enumerate(weights))


@settings(max_examples=300, deadline=None)
@given(node_values, origins, spacings, cell_fractions)
def test_profile_kernel_matches_lagrange_form(values, x0, dx, fractions):
    xq = x0 + dx * (fractions * (values.size - 1))
    got = interp_profile(x0, dx, values, xq)
    want = _lagrange_profile(x0, dx, values, xq)
    scale = np.max(np.abs(values))
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


@settings(max_examples=200, deadline=None)
@given(st.integers(4, 30), arrays(np.float64, 4, elements=st.floats(-10, 10)),
       cell_fractions)
def test_profile_kernel_reproduces_cubics(n, coeffs, fractions):
    def p(x):
        return ((coeffs[3] * x + coeffs[2]) * x + coeffs[1]) * x + coeffs[0]

    values = p(np.arange(float(n)))
    xq = fractions * (n - 1)
    # queries within the snap width of a node read the node
    nearest = np.rint(xq)
    snapped = np.where(np.abs(xq - nearest) <= _NODE_SNAP, nearest, xq)
    tol = 1e-12 * (1.0 + np.max(np.abs(values)))
    got = interp_profile(0.0, 1.0, values, xq)
    assert np.max(np.abs(got - p(snapped))) <= tol


@settings(max_examples=200, deadline=None)
@given(node_values, origins, spacings, st.data())
def test_profile_kernel_node_queries_are_bitwise(values, x0, dx, data):
    n = values.size
    # float noise below the snap width, pointing inward at the two ends so
    # the queries stay on the axis
    noise = data.draw(arrays(np.float64, n, elements=st.floats(
        -0.5 * _NODE_SNAP, 0.5 * _NODE_SNAP)))
    noise[0], noise[-1] = abs(noise[0]), -abs(noise[-1])
    nodes = x0 + dx * np.arange(float(n))
    assert np.array_equal(interp_profile(x0, dx, values, nodes), values)
    noisy = x0 + dx * (np.arange(float(n)) + noise)
    assert np.array_equal(interp_profile(x0, dx, values, noisy), values)
    last = x0 + dx * (n - 1)
    assert interp_profile(x0, dx, values, last) == values[-1]
    assert interp_profile(x0, dx, values, last, monotone=True) == values[-1]


@settings(max_examples=200, deadline=None)
@given(node_values, origins, spacings, cell_fractions)
def test_profile_kernel_monotone_stays_in_cell_range(values, x0, dx,
                                                     fractions):
    n = values.size
    xq = x0 + dx * (fractions * (n - 1))
    got = interp_profile(x0, dx, values, xq, monotone=True)
    cell = np.clip(np.floor((xq - x0) / dx), 0, n - 2).astype(int)
    lo = np.minimum(values[cell], values[cell + 1])
    hi = np.maximum(values[cell], values[cell + 1])
    assert np.all((lo <= got) & (got <= hi))
    # and it is the plain cubic clipped, nothing more
    plain = interp_profile(x0, dx, values, xq)
    assert np.array_equal(got, np.clip(plain, lo, hi))
