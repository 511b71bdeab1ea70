import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from vlasov_transport.analysis import (DiagnosticsTrace, HolderReport,
                                       ScenarioHypothesisError,
                                       compute_diagnostics,
                                       derivative_rep_check, holder_quotient,
                                       pde_residual, scaling_transform,
                                       scenario_monotone_check,
                                       support_infimum,
                                       transform_density_level,
                                       transform_field_level,
                                       transform_rectangle)
from vlasov_transport.phase_space import (DensityField, InitialDataSpec,
                                          PhaseGrid, TransportField,
                                          build_phase_grid)
from vlasov_transport.solver import SolutionHistory, solve_direct, solve_picard

from lattices import grids, lattices, same_bits
from oracles import full_lattice_diagnostics, full_lattice_pde_residual


def _grid(nx=33, nv=33):
    return build_phase_grid(-3.0, 3.0, -2.5, 2.5, nx, nv)


def _small_history(values_by_level, grid, dt=0.1, b_values=None):
    f_levels = tuple(DensityField(grid, v, k * dt)
                     for k, v in enumerate(values_by_level))
    if b_values is None:
        b_values = [np.zeros(grid.nx)] * len(values_by_level)
    b_levels = tuple(TransportField(grid, b, k * dt)
                     for k, b in enumerate(b_values))
    return SolutionHistory(grid, dt, f_levels, b_levels)


def _support_radius(values, grid):
    # the radius at the default threshold, as compute_diagnostics reports it
    diag = compute_diagnostics(_small_history([values], grid))
    return diag.support_radius[0]


def test_velocity_support_conventions():
    grid = build_phase_grid(-1.0, 1.0, -2.0, 2.0, 5, 5)
    values = np.zeros((5, 5))
    values[2, 1] = 0.5        # v = -1
    values[0, 3] = 1e-3       # v = +1
    f = DensityField(grid, values, 0.0)
    assert _support_radius(values, grid) == 1.0
    assert support_infimum(f) == -1.0
    # threshold above the small entry drops it
    assert support_infimum(f, threshold=1e-2) == -1.0
    values2 = np.zeros((5, 5))
    values2[1, 0] = 2.0       # v = -2 only
    f2 = DensityField(grid, values2, 0.0)
    assert _support_radius(values2, grid) == 2.0
    assert support_infimum(f2) == -2.0


def _occupied(values, grid, threshold):
    # the full-lattice formula
    return grid.v_nodes[np.any(np.abs(values) > threshold, axis=0)]


@settings(max_examples=300, deadline=None)
@given(grids(), st.data())
def test_block_readers_equal_the_full_lattice_formulas(grid, data):
    values = data.draw(lattices(grid))
    f = DensityField(grid, values, 0.0)
    sup = np.max(np.abs(values))
    assert same_bits(f.sup_norm(), sup)
    occupied = _occupied(values, grid, 1e-12 * sup)
    assert same_bits(_support_radius(values, grid),
                     np.max(np.abs(occupied)) if occupied.size else 0.0)
    for threshold in (None, 0.0, data.draw(st.floats(0.0, 2.0))):
        occupied = _occupied(values, grid, 1e-12 * sup if threshold is None
                             else threshold)
        assert same_bits(support_infimum(f, threshold),
                         np.min(occupied) if occupied.size else math.inf)


def test_velocity_support_empty_lattice():
    grid = build_phase_grid(-1.0, 1.0, -2.0, 2.0, 5, 5)
    values = np.zeros((5, 5))
    f = DensityField(grid, values, 0.0)
    assert _support_radius(values, grid) == 0.0
    assert math.isinf(support_infimum(f))
    with pytest.raises(ValueError):
        support_infimum(f, threshold=-1.0)


def test_compute_diagnostics_on_hand_lattices():
    grid = build_phase_grid(-1.0, 1.0, -1.0, 1.0, 5, 5)
    flat = np.full((5, 5), 2.0)
    ramp = 3.0 * grid.x_nodes          # exact gradient for edge_order=2
    hist = _small_history([flat, flat, flat], grid,
                          b_values=[ramp, ramp, ramp])
    diag = compute_diagnostics(hist)
    assert diag.times.tolist() == [0.0, 0.1, 0.2]
    np.testing.assert_allclose(diag.density_sup, 2.0)
    np.testing.assert_allclose(diag.mass, 8.0, atol=1e-14)
    np.testing.assert_allclose(diag.support_radius, 1.0)
    np.testing.assert_allclose(diag.support_inf, -1.0)
    np.testing.assert_allclose(diag.dxf_sup, 0.0, atol=1e-14)
    np.testing.assert_allclose(diag.dvf_sup, 0.0, atol=1e-14)
    np.testing.assert_allclose(diag.dxb_sup, 3.0, atol=1e-12)
    np.testing.assert_allclose(diag.field_sup, 3.0)
    np.testing.assert_allclose(diag.field_min, -3.0)
    np.testing.assert_allclose(diag.field_max, 3.0)
    rows = list(diag.rows())
    assert len(rows) == 3 and len(rows[0]) == len(DiagnosticsTrace.COLUMNS)


def _assert_diagnostics_match_the_full_lattice(hist):
    got = compute_diagnostics(hist)
    want = full_lattice_diagnostics(hist)
    for name in DiagnosticsTrace.COLUMNS[1:]:
        assert same_bits(getattr(got, name), getattr(want, name)), name
    assert same_bits(pde_residual(hist), full_lattice_pde_residual(hist))


@settings(max_examples=200, deadline=None)
@given(grids(), st.data())
def test_windowed_diagnostics_equal_the_full_lattice_oracles(grid, data):
    n = data.draw(st.integers(3, 5))
    f_values = [data.draw(lattices(grid)) for _ in range(n)]
    b_values = [data.draw(arrays(np.float64, grid.nx,
                                 elements=st.floats(-1e3, 1e3)))
                for _ in range(n)]
    _assert_diagnostics_match_the_full_lattice(
        _small_history(f_values, grid, b_values=b_values))


def test_gradient_sups_read_three_zero_nodes_round_the_block():
    # One interior entry.  The centred difference next to it is
    # f / (2 dv); a one-sided edge formula that read it would give
    # (0.5 / dv) f, which rounds one bit higher for this f and dv.
    grid = _grid()
    values = np.zeros((33, 33))
    values[16, 16] = 0.23855880705094323
    assert (0.5 / grid.dv) * values[16, 16] > values[16, 16] / (2 * grid.dv)
    _assert_diagnostics_match_the_full_lattice(
        _small_history([values] * 3, grid))


def test_windowed_diagnostics_on_solved_histories():
    grid = _grid()
    picard, _ = solve_picard(InitialDataSpec(), grid, 0.25, 1.0 / 32.0)
    negative, _ = solve_picard(InitialDataSpec(f0_amplitude=-1.0), grid, 0.25,
                               1.0 / 32.0)
    empty, _ = solve_picard(InitialDataSpec(f0_family="zero"), grid, 0.25,
                            1.0 / 32.0)
    assert all(f.data.size == 0 for f in empty.f_levels)
    # mass leaves through the x_min edge, so the support reaches row 0
    edge = solve_direct(InitialDataSpec(f0_center_x=-0.4, f0_center_v=-1.5,
                                        f0_width=0.4, b0_family="zero"),
                        build_phase_grid(-1.0, 1.0, -2.5, 2.5, 33, 33), 0.5,
                        1.0 / 32.0)
    assert edge.f_levels[-1].origin[0] == 0
    for hist in (picard, negative, empty, edge):
        _assert_diagnostics_match_the_full_lattice(hist)


def test_derivative_rep_check_validation():
    grid = _grid(nx=17, nv=17)
    hist = _small_history([np.zeros((17, 17))] * 3, grid)
    with pytest.raises(ValueError):
        derivative_rep_check(hist, 0.1)          # no initial data attached
    spec = InitialDataSpec()
    solved, _ = solve_picard(spec, _grid(), 0.25, 1.0 / 32.0)
    with pytest.raises(ValueError):
        derivative_rep_check(solved, 0.0)
    with pytest.raises(ValueError):
        derivative_rep_check(solved, 0.017)      # between levels
    with pytest.raises(ValueError):
        derivative_rep_check(solved, 0.5)        # past the horizon


def test_derivative_rep_zero_density_is_exact():
    spec = InitialDataSpec(f0_family="zero")
    hist, _ = solve_picard(spec, _grid(nx=17, nv=17), 0.2, 0.1)
    assert derivative_rep_check(hist, 0.2) == (0.0, 0.0)


def test_derivative_rep_returns_finite_residuals():
    spec = InitialDataSpec()
    hist, _ = solve_picard(spec, _grid(), 0.25, 1.0 / 32.0)
    res_dv, res_dx = derivative_rep_check(hist, 0.25)
    assert 0.0 <= res_dv < 2.0
    assert 0.0 <= res_dx < 2.0


def test_transform_rectangle_geometry():
    grid = _grid(nx=17, nv=17)
    same = transform_rectangle(grid, 0.0, (0.0, 1.0))
    assert (same.x_min, same.x_max) == (grid.x_min, grid.x_max)
    assert (same.v_min, same.v_max) == (grid.v_min, grid.v_max)
    shrunk = transform_rectangle(grid, 1.0, (0.0, 0.5))
    assert shrunk.nx == grid.nx and shrunk.nv == grid.nv
    assert shrunk.x_min >= grid.x_min / 2 - 1e-12
    with pytest.raises(ValueError):
        transform_rectangle(grid, -1.0, (0.0, 1.0))
    with pytest.raises(ValueError):
        transform_rectangle(grid, 1000.0, (0.0, 1.0))


def test_transform_levels_refuse_u_minus_one():
    # u = -1 sends every node to one point; a level map must refuse it
    # as transform_rectangle does, not return a collapsed lattice
    grid = _grid(nx=9, nv=9)
    f = DensityField(grid, np.ones((9, 9)), 0.0)
    b = TransportField(grid, np.ones(9), 0.0)
    for transform, level in ((transform_density_level, f),
                             (transform_field_level, b)):
        with pytest.raises(ValueError, match="u = -1 is not invertible"):
            transform(level, grid, -1.0)


@pytest.mark.parametrize("u", [-2.0, -3.5])
def test_transform_below_minus_one_stores_no_negative_zeros(u):
    # the map negates the density, and a level stores every entry with
    # nonzero bits: a -0.0 from a +0.0 node would be stored
    grid = _grid(nx=65, nv=65)
    f = solve_direct(InitialDataSpec(), grid, 0.25, 1.0 / 32.0).f_levels[-1]
    new_grid = transform_rectangle(grid, u, (0.0, f.time))
    out = transform_density_level(f, new_grid, u)
    assert 0 < out.data.size == np.count_nonzero(out.data)


def test_scaling_transform_identity_is_bitwise():
    spec = InitialDataSpec()
    grid = _grid(nx=17, nv=17)
    hist = solve_direct(spec, grid, 0.2, 0.05)
    same = scaling_transform(hist, 0.0)
    assert same.grid == grid
    for a, b in zip(hist.f_levels, same.f_levels):
        assert np.array_equal(a.values, b.values)
    for a, b in zip(hist.b_levels, same.b_levels):
        assert np.array_equal(a.values, b.values)
    assert same.initial_data == spec


def test_scaling_transform_matches_scaled_data_at_time_zero():
    # level 0 of the transformed history must reproduce the analytically
    # rescaled initial data up to lattice interpolation error
    spec = InitialDataSpec()
    grid = _grid(nx=65, nv=65)
    hist, _ = solve_picard(spec, grid, 0.25, 1.0 / 64.0)
    for u in (-2.0, 1.0):
        moved = scaling_transform(hist, u)
        scaled = spec.scaled(u)
        assert moved.initial_data == scaled
        g2 = moved.grid
        f_exp = scaled.density().value(g2.x_nodes[:, None],
                                       g2.v_nodes[None, :])
        b_exp = scaled.field().value(g2.x_nodes)
        assert np.max(np.abs(moved.f_levels[0].values - f_exp)) <= 1e-2
        assert np.max(np.abs(moved.b_levels[0].values - b_exp)) <= 2e-3


def test_pde_residual_needs_three_levels():
    grid = _grid(nx=17, nv=17)
    hist = _small_history([np.zeros((17, 17))] * 2, grid)
    with pytest.raises(ValueError):
        pde_residual(hist)


def test_pde_residual_small_on_solutions_large_on_corruptions():
    spec = InitialDataSpec(b0_family="zero")
    grid = _grid()
    hist, _ = solve_picard(spec, grid, 0.25, 1.0 / 32.0)
    res_f, res_b = pde_residual(hist)
    # finite-difference truncation at this resolution (measured 0.10, 0.07)
    assert res_f <= 0.2
    assert res_b <= 0.12
    bad_b = tuple(TransportField(b.grid, b.values * (1.0 + 0.3 * k), b.time)
                  for k, b in enumerate(hist.b_levels))
    corrupted = SolutionHistory(grid, hist.dt, hist.f_levels, bad_b,
                                initial_data=hist.initial_data)
    bad_f, bad_field = pde_residual(corrupted)
    assert bad_field >= 3.0 * res_b
    assert bad_f >= 3.0 * res_f


def test_scenario_hypothesis_violations_raise():
    grid = build_phase_grid(-1.0, 1.0, 0.0, 4.0, 5, 9)
    ok_f = np.zeros((5, 9))
    ok_f[2, 5] = 1.0                      # v = 2.5 > 1
    negative_f = ok_f - 0.5
    low_f = np.zeros((5, 9))
    low_f[2, 2] = 1.0                     # v = 1.0, not strictly above 1
    ok_b = np.ones(5)
    bad_b = -np.ones(5)

    def history(f, b):
        return _small_history([f, f], grid, b_values=[b, b])

    with pytest.raises(ScenarioHypothesisError):
        scenario_monotone_check(history(negative_f, ok_b))
    with pytest.raises(ScenarioHypothesisError):
        scenario_monotone_check(history(low_f, ok_b))
    with pytest.raises(ScenarioHypothesisError):
        scenario_monotone_check(history(ok_f, bad_b))


def test_scenario_check_passes_on_sign_definite_run():
    spec = InitialDataSpec(f0_center_v=2.0, f0_width=0.5,
                           b0_amplitude=0.5, b0_width=1.0)
    grid = build_phase_grid(-2.0, 4.0, 0.5, 4.0, 33, 33)
    hist = solve_direct(spec, grid, 0.5, 1.0 / 32.0, monotone=True)
    report = scenario_monotone_check(hist)
    assert report
    assert report.passed
    assert report.field_min >= 0.0
    assert report.max_support_drop <= report.support_drop_tol
    assert all(v > 1.0 for v in report.support_infima)


def test_holder_quotient_sin_identity():
    # sup_x |sin(x+h) - sin(x)| = 2 sin(h/2) for h <= pi
    grid = build_phase_grid(0.0, 4.0 * math.pi, -1.0, 1.0, 513, 4)
    b = TransportField(grid, np.sin(grid.x_nodes), 0.0)
    offsets = [m * grid.dx for m in (1, 4, 16, 64)]
    report = holder_quotient([b], 1.0, space_offsets=offsets)
    assert isinstance(report, HolderReport)
    expected = 2.0 * np.sin(np.asarray(offsets) / 2.0)
    np.testing.assert_allclose(report.space_sup, expected, atol=5e-6)
    np.testing.assert_allclose(report.space_quotient,
                               expected / np.sqrt(offsets), atol=2e-5)
    # smooth field: the quotient shrinks with the offset
    assert np.all(np.diff(report.space_quotient) > 0)
    assert report.time_offsets.size == 0 and report.time_sup.size == 0


def test_holder_quotient_time_axis():
    grid = build_phase_grid(-1.0, 1.0, -1.0, 1.0, 5, 4)
    dt = 0.1
    levels = [TransportField(grid, np.full(5, k * dt), k * dt)
              for k in range(5)]
    report = holder_quotient(levels, dt)
    np.testing.assert_allclose(report.time_offsets, [0.1, 0.2], atol=1e-15)
    np.testing.assert_allclose(report.time_sup, [0.1, 0.2], atol=1e-15)
    np.testing.assert_allclose(report.time_quotient,
                               np.sqrt([0.1, 0.2]), atol=1e-12)


def test_holder_quotient_offset_validation():
    grid = build_phase_grid(0.0, 1.0, -1.0, 1.0, 9, 4)
    b = TransportField(grid, np.zeros(9), 0.0)
    with pytest.raises(ValueError):
        holder_quotient([], 0.1)
    with pytest.raises(ValueError):
        holder_quotient([b], 0.1, space_offsets=[1.5 * grid.dx])
    with pytest.raises(ValueError):
        holder_quotient([b], 0.1, space_offsets=[0.0])
    with pytest.raises(ValueError):
        holder_quotient([b], 0.1, space_offsets=[grid.dx * 8])
