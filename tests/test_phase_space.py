import dataclasses
import math
import sys

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
                                          place_window, sample_initial_data)
from vlasov_transport.phase_space import (_DENSITY_FAMILIES, _FIELD_FAMILIES,
                                          _NODE_SNAP, _bump, _bump_prime,
                                          _cubic_table, _frame, _stencil)

from lattices import NONZERO_ENTRY, grids, lattices, same_bits


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
    for bounds in [(0.0, math.inf, 0.0, 1.0), (-math.inf, 1.0, 0.0, 1.0),
                   (0.0, 1.0, math.nan, 1.0), (0.0, 1.0, 0.0, math.nan)]:
        with pytest.raises(ValueError, match="grid bounds must be finite"):
            PhaseGrid(*bounds, 8, 8)
    # finite bounds whose span overflows to an infinite spacing
    for bounds in [(-1e308, 1e308, 0.0, 1.0), (0.0, 1.0, -1e308, 1e308)]:
        with pytest.raises(ValueError, match="grid spacing must be finite"):
            PhaseGrid(*bounds, 65, 65)


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


def test_density_field_on_a_zero_lattice_is_read_only():
    grid = build_phase_grid(0.0, 1.0, 0.0, 1.0, 5, 7)
    f = DensityField(grid, np.zeros((5, 7)), 0.0)
    with pytest.raises(ValueError):
        f.values[2, 3] = 1.0
    assert f.sup_norm() == 0.0


@settings(max_examples=300, deadline=None)
@given(grids(), st.data())
def test_density_field_stores_the_bounding_block_of_nonzero_bits(grid,
                                                                 data):
    values = data.draw(lattices(grid))
    f = DensityField(grid, values, 0.5)
    assert not f.values.flags.writeable
    nonzero = values.view(np.int64) != 0
    rows = np.flatnonzero(nonzero.any(axis=1))
    cols = np.flatnonzero(nonzero.any(axis=0))
    if rows.size:
        window = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
        assert f.slices == window
    else:
        assert f.block_shape == (0, 0) and f.data.size == 0
    # a level built from any window that holds the block is the same level
    i = data.draw(st.integers(0, rows[0] if rows.size else grid.nx - 1))
    j = data.draw(st.integers(0, cols[0] if cols.size else grid.nv - 1))
    block = values[i:, j:].copy()
    g = DensityField._from_block(grid, block, (i, j), 0.5)
    assert g.slices == f.slices and same_bits(g.data, f.data)
    assert same_bits(g.values, values)


@settings(max_examples=300, deadline=None)
@given(grids(), st.data())
def test_density_field_places_exactly_its_stored_entries(grid, data):
    values = data.draw(lattices(grid))
    f = DensityField(grid, values, 0.5)
    (rs, cs), empty = f.slices, f.data.size == 0
    # a window [i0, i1) x [j0, j1) of the lattice that covers the block
    i0 = data.draw(st.integers(0, grid.nx if empty else rs.start))
    i1 = data.draw(st.integers(i0 if empty else rs.stop, grid.nx))
    j0 = data.draw(st.integers(0, grid.nv if empty else cs.start))
    j1 = data.draw(st.integers(j0 if empty else cs.stop, grid.nv))
    window = values[i0:i1, j0:j1]
    out = np.zeros(window.shape)
    assert f.place(out, (i0, j0)) is out
    assert same_bits(out, window)
    # over a sentinel it writes the nonzero-bit entries and nothing else
    sentinel = data.draw(NONZERO_ENTRY)
    placed = f.place(np.full(window.shape, sentinel), (i0, j0))
    nonzero = window.view(np.int64) != 0
    assert same_bits(placed, np.where(nonzero, window, sentinel))
    if not empty:
        m, n = f.block_shape
        with pytest.raises(ValueError, match="does not cover"):
            f.place(np.zeros((m - 1, n)), f.origin)
        with pytest.raises(ValueError, match="does not cover"):
            f.place(np.zeros((m, n)), (rs.start, cs.start + 1))


@settings(max_examples=300, deadline=None)
@given(grids(), st.data())
def test_place_window_is_the_padded_union_of_the_blocks(grid, data):
    lattices_ = data.draw(st.lists(lattices(grid), min_size=1, max_size=3))
    pad = data.draw(st.integers(0, 4))
    levels = [DensityField(grid, values, 0.5) for values in lattices_]
    window = place_window(levels, pad)
    nonzero = np.logical_or.reduce([v.view(np.int64) != 0 for v in lattices_])
    rows = np.flatnonzero(nonzero.any(axis=1))
    if not rows.size:
        assert window is None
        return
    cols = np.flatnonzero(nonzero.any(axis=0))
    rs = slice(max(rows[0] - pad, 0), min(rows[-1] + 1 + pad, grid.nx))
    cs = slice(max(cols[0] - pad, 0), min(cols[-1] + 1 + pad, grid.nv))
    arrays_, at = window
    assert at == (rs.start, cs.start)
    assert len(arrays_) == len(levels)
    for placed, values in zip(arrays_, lattices_):
        assert same_bits(placed, values[rs, cs])


# Bytes a level may hold beyond its entries and its mask: the two array
# headers.
STORAGE_OVERHEAD = 512


@settings(max_examples=300, deadline=None)
@given(grids(), st.data())
def test_density_field_stores_exactly_its_nonzero_entries(grid, data):
    values = data.draw(lattices(grid))
    f = DensityField(grid, values, 0.5)
    assert same_bits(f.values, values)
    assert same_bits(f.sup_norm(), np.max(np.abs(values)))
    # data: the nonzero-bit entries, in C order, in arrays of their own
    nonzero = values.view(np.int64) != 0
    assert same_bits(f.data, values[nonzero])
    assert f.data.base is None and f.mask.base is None
    m, n = f.block_shape
    stored = sys.getsizeof(f.data) + sys.getsizeof(f.mask)
    assert stored <= (8 * np.count_nonzero(nonzero) + math.ceil(m * n / 8)
                      + STORAGE_OVERHEAD)


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


def test_quartic_bump_is_bitwise_the_product_form():
    # numpy squares core ** 2 and copies core ** 1, so the general power
    # form is bitwise the quartic's product form
    for z in (np.linspace(-1.5, 1.5, 100_001), np.asarray(0.3)):
        core = np.clip(1.0 - z * z, 0.0, None)
        assert same_bits(_bump(z), core * core)
        assert same_bits(_bump_prime(z), -4.0 * z * core)


@pytest.mark.parametrize("power", [2, 3])
def test_negative_bump_density_is_positive_zero_off_its_support(power):
    # a level stores every entry with nonzero bits, -0.0 included
    grid = build_phase_grid(-3.0, 3.0, -2.5, 2.5, 65, 65)
    x, v = grid.x_nodes[:, None], grid.v_nodes[None, :]
    values = BumpDensity(-1.0, 0.1, -0.2, 0.7, power).value(x, v)
    positive = BumpDensity(1.0, 0.1, -0.2, 0.7, power).value(x, v)
    assert not np.signbit(values[values == 0.0]).any()
    assert np.array_equal(values != 0.0, positive != 0.0)
    assert same_bits(values[values != 0.0], -positive[positive != 0.0])
    level = DensityField(grid, values, 0.0)
    assert level.data.size == np.count_nonzero(values) > 0


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

    for fam, name in ((BumpField, "bump"), (GaussianField, "gaussian")):
        with pytest.raises(ValueError, match=f"^{name} width must be "
                                             "positive$"):
            fam(1.0, 0.0)
        assert type(fam(1.0, 2.0).scaled(-3.0)) is fam


@pytest.mark.parametrize("fam", [BumpField(0.5, 1.0), GaussianField(2.0, 0.7)])
def test_field_derivative_sup_matches_dense_scan(fam):
    x = np.linspace(-5.0, 5.0, 200001)
    assert fam.derivative_sup == pytest.approx(
        np.max(np.abs(np.gradient(fam.value(x), x))), rel=1e-6)


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


def test_family_registries_build_their_classes():
    for name, cls in _DENSITY_FAMILIES.items():
        assert type(InitialDataSpec(f0_family=name).density()) is cls
    for name, cls in _FIELD_FAMILIES.items():
        assert type(InitialDataSpec(b0_family=name).field()) is cls


# frame factors a = u + 1 of either sign, kept away from 0 and overflow
frame_factors = st.builds(lambda sign, a: sign * a, st.sampled_from([-1, 1]),
                          st.floats(0.1, 10.0))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_DENSITY_FAMILIES)),
       st.sampled_from(sorted(_FIELD_FAMILIES)),
       st.floats(-5.0, 5.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
       st.floats(0.1, 3.0), st.integers(2, 6), st.floats(0.1, 3.0),
       frame_factors, frame_factors)
def test_spec_frame_map_composes(f0, b0, amplitude, cx, cv, width, power,
                                 b0_width, a1, a2):
    spec = InitialDataSpec(f0_family=f0, f0_amplitude=amplitude,
                           f0_center_x=cx, f0_center_v=cv, f0_width=width,
                           f0_power=power, b0_family=b0,
                           b0_amplitude=-amplitude, b0_width=b0_width)
    assert spec.scaled(0.0) == spec
    u1, u2 = a1 - 1.0, a2 - 1.0
    twice = spec.scaled(u1).scaled(u2)
    once = spec.scaled((u1 + 1.0) * (u2 + 1.0) - 1.0)
    for f in dataclasses.fields(InitialDataSpec):
        got, want = getattr(twice, f.name), getattr(once, f.name)
        if isinstance(want, float):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12), f.name
        else:
            assert got == want, f.name
    if (f0, b0) != ("zero", "zero"):
        with pytest.raises(ValueError) as frame_error:
            _frame(-1.0)
        with pytest.raises(ValueError) as spec_error:
            spec.scaled(-1.0)
        assert str(spec_error.value) == str(frame_error.value)


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
    table = _cubic_table(p(np.arange(9.0)))
    got = interp_profile(0.0, 1.0, table, 3.37)
    assert got == pytest.approx(63.87360600000001, abs=1e-12)
    queries = np.array([0.123, 1.77, 4.5, 6.999, 7.3])
    np.testing.assert_allclose(interp_profile(0.0, 1.0, table, queries),
                               p(queries), rtol=0, atol=1e-11)


def test_node_queries_are_bitwise():
    rng = np.random.default_rng(7)
    values = rng.standard_normal(12)
    table = _cubic_table(values)
    nodes = 0.25 * np.arange(12.0) - 1.0
    got = interp_profile(-1.0, 0.25, table, nodes)
    assert np.array_equal(got, values)
    # and through float noise smaller than the snap width
    noisy = nodes + 1e-11
    assert np.array_equal(interp_profile(-1.0, 0.25, table, noisy), values)


def test_profile_out_of_range_conventions():
    table = _cubic_table(np.ones(8))
    with pytest.raises(DomainExitError):
        interp_profile(0.0, 1.0, table, 7.5)
    with pytest.raises(DomainExitError):
        interp_profile(0.0, 1.0, table, -0.2)
    got = interp_profile(0.0, 1.0, table, np.array([-0.5, 3.0, 9.0]),
                         out_of_range="zero")
    np.testing.assert_array_equal(got, [0.0, 1.0, 0.0])


def test_profile_interp_order():
    # smooth target: error should drop ~16x per spacing halving (order 4)
    f = np.sin
    errors = []
    for n in (33, 65, 129):
        x = np.linspace(0.0, 2.0, n)
        q = np.linspace(0.05, 1.95, 1001)
        got = interp_profile(0.0, x[1] - x[0], _cubic_table(f(x)), q)
        err = np.max(np.abs(got - f(q)))
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
    table = _cubic_table(values)
    q = np.linspace(0.0, 5.0, 101)
    plain = interp_profile(0.0, 1.0, table, q)
    clipped = interp_profile(0.0, 1.0, table, q, monotone=True)
    assert plain.min() < -1e-3 and plain.max() > 1.0 + 1e-3
    assert clipped.min() >= 0.0 and clipped.max() <= 1.0
    # clip keeps node queries bitwise
    assert np.array_equal(
        interp_profile(0.0, 1.0, table, np.arange(6.0), monotone=True),
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
    got = interp_profile(x0, dx, _cubic_table(values), xq)
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
    got = interp_profile(0.0, 1.0, _cubic_table(values), xq)
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
    table = _cubic_table(values)
    nodes = x0 + dx * np.arange(float(n))
    assert np.array_equal(interp_profile(x0, dx, table, nodes), values)
    noisy = x0 + dx * (np.arange(float(n)) + noise)
    assert np.array_equal(interp_profile(x0, dx, table, noisy), values)
    last = x0 + dx * (n - 1)
    assert interp_profile(x0, dx, table, last) == values[-1]
    assert interp_profile(x0, dx, table, last, monotone=True) == values[-1]


@settings(max_examples=200, deadline=None)
@given(node_values, origins, spacings, cell_fractions)
def test_profile_kernel_monotone_stays_in_cell_range(values, x0, dx,
                                                     fractions):
    n = values.size
    table = _cubic_table(values)
    xq = x0 + dx * (fractions * (n - 1))
    got = interp_profile(x0, dx, table, xq, monotone=True)
    cell = np.clip(np.floor((xq - x0) / dx), 0, n - 2).astype(int)
    lo = np.minimum(values[cell], values[cell + 1])
    hi = np.maximum(values[cell], values[cell + 1])
    assert np.all((lo <= got) & (got <= hi))
    # and it is the plain cubic clipped, nothing more
    plain = interp_profile(x0, dx, table, xq)
    assert np.array_equal(got, np.clip(plain, lo, hi))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(4, 30), st.data())
def test_cubic_table_of_a_stack_is_the_stack_of_tables(levels, n, data):
    values = data.draw(arrays(np.float64, (levels, n),
                              elements=st.floats(-1e3, 1e3)))
    tables = _cubic_table(values)
    assert tables.shape == (levels, n, 4)
    for k in range(levels):
        assert tables[k].tobytes() == _cubic_table(values[k]).tobytes()


def test_interp_profile_reads_node_values_from_a_given_table():
    # The node values a lookup reads (a query on a node, the corners of
    # the monotone clip) are the table's column a0, bitwise.
    values = np.array([0.0, 1.0, -2.0, 0.5, 3.0])
    xq = np.array([0.3, 1.0, 2.7, 3.0])
    table = _cubic_table(values)
    plain = interp_profile(0.0, 1.0, table, xq)
    assert plain[[1, 3]].tobytes() == values[[1, 3]].tobytes()
    cell = np.floor(xq).astype(int)
    lo = np.minimum(values[cell], values[cell + 1])
    hi = np.maximum(values[cell], values[cell + 1])
    got = interp_profile(0.0, 1.0, table, xq, monotone=True)
    assert got.tobytes() == np.clip(plain, lo, hi).tobytes()


@pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0)])
def test_interp_profile_reads_an_empty_query_as_an_empty_result(shape):
    table = _cubic_table(np.array([0.0, 1.0, -2.0, 0.5, 3.0]))
    xq = np.empty(shape)
    for out_of_range in ("error", "zero"):
        for monotone in (False, True):
            got = interp_profile(0.0, 1.0, table, xq,
                                 out_of_range=out_of_range, monotone=monotone)
            assert got.shape == shape and got.dtype == np.float64


# A NaN query reads NaN, in both kernels, and every other query of the
# call reads bitwise what it reads without the NaN.
@pytest.mark.parametrize("monotone", [False, True])
def test_a_nan_query_reads_nan_and_leaves_the_others_as_they_are(monotone):
    nan = math.nan
    table = _cubic_table(np.array([0.0, 1.0, -2.0, 0.5, 3.0, 1.0]))
    for out_of_range, xq in (("error", [0.3, nan, 1.0, 4.7, nan, 5.0]),
                             ("zero", [-1.0, nan, 2.5, 7.0, 0.0])):
        xq = np.array(xq)
        known = ~np.isnan(xq)
        got = interp_profile(0.0, 1.0, table, xq, out_of_range=out_of_range,
                             monotone=monotone)
        want = interp_profile(0.0, 1.0, table, xq[known],
                              out_of_range=out_of_range, monotone=monotone)
        assert np.isnan(got[~known]).all()
        assert got[known].tobytes() == want.tobytes()
    grid = build_phase_grid(0.0, 5.0, 0.0, 4.0, 6, 5)
    lattice = np.arange(30.0).reshape(6, 5) % 7.0 - 3.0
    xq = np.array([0.3, nan, 2.0, 4.6, nan, -1.0, 2.5])
    vq = np.array([1.7, 2.0, nan, 3.9, nan, 1.0, 9.0])
    known = ~(np.isnan(xq) | np.isnan(vq))
    got = interp_lattice(grid, lattice, xq, vq, monotone=monotone)
    want = interp_lattice(grid, lattice, xq[known], vq[known],
                          monotone=monotone)
    assert np.isnan(got[~known]).all()
    assert got[known].tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# properties of the tensor-product lattice interpolator

lattice_sizes = st.tuples(st.integers(4, 12), st.integers(4, 12))
lattice_fractions = arrays(np.float64, st.integers(1, 40),
                           elements=st.floats(0.0, 1.0))


def _lattice(data, nx, nv):
    return data.draw(arrays(np.float64, (nx, nv), elements=st.floats(
        -1e3, 1e3, allow_subnormal=False)))


def _snap(coord):
    nearest = np.rint(coord)
    return np.where(np.abs(coord - nearest) <= _NODE_SNAP, nearest, coord)


@settings(max_examples=200, deadline=None)
@given(lattice_sizes, arrays(np.float64, (4, 4), elements=st.floats(-1, 1)),
       lattice_fractions, lattice_fractions)
def test_lattice_reproduces_bicubics(sizes, coeffs, fx, fv):
    nx, nv = sizes
    # integer nodes, so the grid coordinate is the query itself
    grid = build_phase_grid(0.0, nx - 1.0, 0.0, nv - 1.0, nx, nv)

    def p(x, v):
        powers_x = np.stack([x ** i for i in range(4)])
        powers_v = np.stack([v ** j for j in range(4)])
        return np.einsum("ij,i...,j...->...", coeffs, powers_x, powers_v)

    values = p(grid.x_nodes[:, None], grid.v_nodes[None, :])
    m = min(fx.size, fv.size)
    xq, vq = fx[:m] * (nx - 1), fv[:m] * (nv - 1)
    got = interp_lattice(grid, values, xq, vq)
    tol = 1e-12 * (1.0 + np.max(np.abs(values)))
    assert np.max(np.abs(got - p(_snap(xq), _snap(vq)))) <= tol


@settings(max_examples=200, deadline=None)
@given(lattice_sizes, origins, spacings, origins, spacings, st.data())
def test_lattice_node_queries_are_bitwise_through_noise(sizes, x0, dx, v0,
                                                       dv, data):
    nx, nv = sizes
    grid = build_phase_grid(x0, x0 + dx * (nx - 1), v0, v0 + dv * (nv - 1),
                            nx, nv)
    values = _lattice(data, nx, nv)
    assert np.array_equal(interp_lattice(grid, values, grid.x_nodes[:, None],
                                         grid.v_nodes[None, :]), values)
    # noise below the snap width, inward at the ends to stay on the axes
    noise = [data.draw(arrays(np.float64, n, elements=st.floats(
        -0.4 * _NODE_SNAP, 0.4 * _NODE_SNAP))) for n in (nx, nv)]
    for eps in noise:
        eps[0], eps[-1] = abs(eps[0]), -abs(eps[-1])
    xq = grid.x_min + grid.dx * (np.arange(float(nx)) + noise[0])
    vq = grid.v_min + grid.dv * (np.arange(float(nv)) + noise[1])
    for monotone in (False, True):
        got = interp_lattice(grid, values, xq[:, None], vq[None, :],
                             monotone=monotone)
        assert np.array_equal(got, values)


@settings(max_examples=200, deadline=None)
@given(lattice_sizes, st.data())
def test_lattice_reads_zero_outside_the_rectangle(sizes, data):
    nx, nv = sizes
    grid = build_phase_grid(-1.0, 2.0, 0.5, 3.0, nx, nv)
    values = _lattice(data, nx, nv)
    # one coordinate beyond an edge by more than the range slack, the
    # other anywhere
    beyond = st.floats(1e-6, 5.0)
    side = data.draw(st.sampled_from(("x_lo", "x_hi", "v_lo", "v_hi")))
    m = data.draw(st.integers(1, 20))
    gap = data.draw(arrays(np.float64, m, elements=beyond))
    free = data.draw(arrays(np.float64, m, elements=st.floats(-1.0, 2.0)))
    if side.startswith("x"):
        xq = grid.x_min - gap * grid.dx if side == "x_lo" \
            else grid.x_max + gap * grid.dx
        vq = grid.v_min + free * (grid.v_max - grid.v_min)
    else:
        vq = grid.v_min - gap * grid.dv if side == "v_lo" \
            else grid.v_max + gap * grid.dv
        xq = grid.x_min + free * (grid.x_max - grid.x_min)
    for monotone in (False, True):
        got = interp_lattice(grid, values, xq, vq, monotone=monotone)
        assert np.array_equal(got, np.zeros(m))


@pytest.mark.parametrize("shape", [(8, 9), (10, 8)])
def test_lattice_rejects_a_lattice_of_the_wrong_shape(shape):
    # a flat gather with mode="clip" would read such a lattice silently
    grid = build_phase_grid(0.0, 8.0, 0.0, 8.0, 9, 9)
    values = np.arange(float(np.prod(shape))).reshape(shape)
    with pytest.raises(ValueError, match="lattice shape does not match"):
        interp_lattice(grid, values, 1.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(lattice_sizes, lattice_fractions, lattice_fractions, st.data())
def test_lattice_monotone_stays_in_cell_corner_range(sizes, fx, fv, data):
    nx, nv = sizes
    grid = build_phase_grid(-2.0, 1.0, 0.0, 4.0, nx, nv)
    values = _lattice(data, nx, nv)
    m = min(fx.size, fv.size)
    cx, cv = fx[:m] * (nx - 1), fv[:m] * (nv - 1)
    xq = grid.x_min + grid.dx * cx
    vq = grid.v_min + grid.dv * cv
    got = interp_lattice(grid, values, xq, vq, monotone=True)
    # the enclosing cell of each query, after the node snap
    i, _, _ = _stencil((xq - grid.x_min) / grid.dx, nx)
    j, _, _ = _stencil((vq - grid.v_min) / grid.dv, nv)
    corners = np.stack([values[i, j], values[i + 1, j], values[i, j + 1],
                        values[i + 1, j + 1]])
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    assert np.all((lo <= got) & (got <= hi))
    # and it is the plain bicubic clipped, nothing more
    plain = interp_lattice(grid, values, xq, vq)
    assert np.array_equal(got, np.clip(plain, lo, hi))
