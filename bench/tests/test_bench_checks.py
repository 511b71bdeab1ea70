"""Each benchmark check accepts a right output and rejects a wrong one."""

import math

import numpy as np
import pytest

import checks as ck
from vlasov_transport.phase_space import (InitialDataSpec, build_phase_grid,
                                          sample_initial_data)
from vlasov_transport.snapshot import write_snapshot

# picard_trace.csv of the picard_desk workload
DESK_TRACE = [(0.19148049997105365, 0.3897469881643653),
              (0.0002451682809403444, 0.055010394355745895),
              (6.683636144533267e-08, 3.8315334160932135e-05),
              (8.17335088498794e-12, 6.269556651616881e-09)]


def _nodes(grid):
    return (np.linspace(grid.x_min, grid.x_max, grid.nx),
            np.linspace(grid.v_min, grid.v_max, grid.nv))


def test_quartic_bump_closed_form():
    z = np.array([-1.5, -1.0, 0.0, 0.5, 0.999, 1.0, 2.0])
    expected = [0.0, 0.0, 1.0, 0.5625, (1 - 0.999 ** 2) ** 2, 0.0, 0.0]
    assert np.allclose(ck.quartic_bump(z), expected, rtol=0, atol=1e-16)


def test_initial_snapshots_match_and_perturbed_snapshot_fails(tmp_path):
    grid = build_phase_grid(-3.0, 3.0, -2.5, 2.5, 33, 33)
    f0, b0 = sample_initial_data(InitialDataSpec(), grid)
    write_snapshot(tmp_path / "f.snap", f0.values, 0.0)
    write_snapshot(tmp_path / "b.snap", b0.values, 0.0)
    f, _ = ck.read_snapshot(tmp_path / "f.snap")
    b, _ = ck.read_snapshot(tmp_path / "b.snap")
    x, v = _nodes(grid)
    assert all(c.passed for c in ck.check_initial_snapshots(f, b, x, v))

    f_bad = f.copy()
    f_bad[16, 16] += 1e-12
    verdicts = {c.name: c.passed
                for c in ck.check_initial_snapshots(f_bad, b, x, v)}
    assert verdicts == {"level0_f_equals_bump": False,
                        "level0_b_equals_bump": True}
    b_bad = b.copy()
    b_bad[3] -= 1e-12
    assert not all(c.passed for c in ck.check_initial_snapshots(f, b_bad, x,
                                                                v))


def test_read_snapshot_rejects_truncated_and_foreign_files(tmp_path):
    path = tmp_path / "f.snap"
    write_snapshot(path, np.ones((4, 5)), 0.5)
    values, time = ck.read_snapshot(path)
    assert values.shape == (4, 5) and time == 0.5
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(ValueError, match="payload"):
        ck.read_snapshot(path)
    path.write_bytes(b"NOTASNAP" * 8)
    with pytest.raises(ValueError, match="magic"):
        ck.read_snapshot(path)


def test_density_sup_limit():
    levels = [np.zeros((3, 3)), np.full((3, 3), 0.5)]
    levels[1][1, 1] = 1.0
    assert ck.check_density_sups(levels).passed
    levels[1][1, 1] = 1.0 + 1e-11
    assert not ck.check_density_sups(levels).passed
    assert not ck.check_density_sups(levels, limit=1.0).passed


def test_mass_drift():
    grid = build_phase_grid(-3.0, 3.0, -2.5, 2.5, 33, 33)
    f0, _ = sample_initial_data(InitialDataSpec(), grid)
    closed_form = (0.5 * 16.0 / 15.0) ** 2
    mass = ck.trapezoid_mass(f0.values, grid.dx, grid.dv)
    assert abs(mass - closed_form) < 0.02 * closed_form
    same = [f0.values, f0.values[::-1, :]]
    assert ck.check_mass_drift(same, grid.dx, grid.dv).passed
    drifted = [f0.values, f0.values * (1.0 + 1.01e-4)]
    assert not ck.check_mass_drift(drifted, grid.dx, grid.dv).passed


def test_picard_trace_converged_and_decreasing():
    assert all(c.passed for c in ck.check_picard_trace(DESK_TRACE, 1e-8))

    not_converged = DESK_TRACE[:-1]
    verdicts = {c.name: c.passed
                for c in ck.check_picard_trace(not_converged, 1e-8)}
    assert verdicts["picard_trace_converged"] is False

    rising = list(DESK_TRACE)
    rising[2] = (rising[1][0] * 1.5, rising[2][1])
    verdicts = {c.name: c.passed for c in ck.check_picard_trace(rising, 1e-8)}
    assert verdicts == {"picard_trace_converged": True,
                        "picard_trace_decreasing": False}

    # the first difference may sit below the second
    first_small = [(1e-6, 1e-6)] + DESK_TRACE[1:]
    assert all(c.passed for c in ck.check_picard_trace(first_small, 1e-8))


def test_majorant_closed_form():
    assert ck.majorant_crossing_time(1e6) == pytest.approx(1.0 - 1e-6)
    assert ck.check_majorant(1.0000000000096039, 1e6).passed
    assert not ck.check_majorant(1.0 - 1e-6 + 5.05e-3, 1e6).passed
    assert not ck.check_majorant(None, 1e6).passed


def test_picard_convergence_limits():
    assert all(c.passed for c in ck.check_picard_convergence(True, 15))
    assert not all(c.passed for c in ck.check_picard_convergence(True, 16))
    assert not all(c.passed for c in ck.check_picard_convergence(False, 6))


def test_cross_engine_bound():
    dt, dx = 1.0 / 64.0, 6.0 / 64.0
    limit = 50.0 * (dt * dt + dx ** 3)
    base = [np.zeros(5), np.ones(5)]
    near = [np.zeros(5), np.ones(5) + 0.99 * limit]
    over = [np.zeros(5), np.ones(5) + 1.01 * limit]
    assert ck.check_cross_engine(base, near, dt, dx).passed
    assert not ck.check_cross_engine(base, over, dt, dx).passed


def _bound_levels(radius_last, b_sup, n_levels=5):
    """Density levels occupying v = 0.5, then v = radius_last at the end;
    a field of constant sup b_sup."""
    v_nodes = np.array([0.0, 0.5, radius_last])
    f_levels = []
    for k in range(n_levels):
        f = np.zeros((2, 3))
        f[0, 2 if k == n_levels - 1 else 1] = 1.0
        f_levels.append(f)
    b_levels = [np.array([b_sup, -0.5 * b_sup])] * n_levels
    return f_levels, b_levels, v_nodes


@pytest.mark.parametrize("factor, passed", [(0.99, True), (1.01, False)])
def test_support_bound_exceeded_by_one_percent(factor, passed):
    dt, dv, beta, n = 0.1, 0.05, 0.2, 5
    bound = 0.5 + beta * (n - 1) * dt + dv + dt * beta
    f_levels, b_levels, v_nodes = _bound_levels(factor * bound, beta, n)
    verdicts = {c.name: c for c in ck.check_a_priori_bounds(
        f_levels, b_levels, v_nodes, dt, dv, f0_sup=1.0, b0_sup=beta)}
    assert verdicts["support_bound_ratio"].passed is passed
    assert verdicts["support_bound_ratio"].measured == pytest.approx(factor)
    assert verdicts["field_bound_ratio"].passed


@pytest.mark.parametrize("factor, passed", [(0.99, True), (1.01, False)])
def test_field_bound_exceeded_by_one_percent(factor, passed):
    # constant radius 0.5 and C = max(|B0|, 1) max(2|f0|, 1) = 2; the last
    # level's field sits at factor * C (1 + 0.5 t)
    dt, n = 0.1, 5
    f_levels, _, v_nodes = _bound_levels(0.5, 0.0, n)
    b_levels = [np.array([0.1, 0.0])] * (n - 1) \
        + [np.array([0.0, -factor * 2.0 * (1.0 + 0.5 * (n - 1) * dt)])]
    verdicts = {c.name: c for c in ck.check_a_priori_bounds(
        f_levels, b_levels, v_nodes, dt, 0.05, f0_sup=1.0, b0_sup=0.1)}
    assert verdicts["field_bound_ratio"].passed is passed
    assert verdicts["field_bound_ratio"].measured == pytest.approx(factor)


def _scenario_levels():
    v_nodes = np.linspace(0.25, 5.25, 21)
    dv = v_nodes[1] - v_nodes[0]
    f_levels = []
    for lowest in (8, 8, 7, 7, 6):
        f = np.zeros((4, 21))
        f[1, lowest:lowest + 4] = 1.0
        f_levels.append(f)
    b_levels = [np.linspace(0.0, 1.0, 4)] * 5
    return f_levels, b_levels, v_nodes, dv


def test_scenario_scan_accepts_monotone_data():
    f_levels, b_levels, v_nodes, dv = _scenario_levels()
    assert all(c.passed for c in ck.check_scenario_scan(f_levels, b_levels,
                                                        v_nodes, dv))


def test_scenario_scan_rejects_negative_field():
    f_levels, b_levels, v_nodes, dv = _scenario_levels()
    b_levels = list(b_levels)
    b_levels[3] = np.array([0.0, -2e-8, 0.5, 1.0])
    verdicts = {c.name: c.passed for c in ck.check_scenario_scan(
        f_levels, b_levels, v_nodes, dv)}
    assert verdicts == {"scenario_field_min": False,
                        "scenario_support_drop": True}


def test_scenario_scan_rejects_support_drop_of_two_cells():
    f_levels, b_levels, v_nodes, dv = _scenario_levels()
    f_levels[4] = np.roll(f_levels[3], -2, axis=1)
    verdicts = {c.name: c.passed for c in ck.check_scenario_scan(
        f_levels, b_levels, v_nodes, dv)}
    assert verdicts == {"scenario_field_min": True,
                        "scenario_support_drop": False}


def test_failed_check_says_by_how_much():
    text = ck.at_most("mass_drift", 3e-4, 1e-4).describe()
    assert "FAILED" in text and "off by 0.0002" in text
    text = ck.at_least("scenario_field_min", -3e-8, -1e-8).describe()
    assert "required >= -1e-08" in text and "off by 2e-08" in text
    assert ck.at_most("x", math.inf, 1.0).to_json() == {
        "name": "x", "passed": False,
        "text": "check x FAILED: measured inf, required <= 1, off by inf"}
