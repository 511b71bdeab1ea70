"""End-to-end acceptance checks at desk scale (257x257, dt = 1/256).

One test per numbered acceptance criterion, each printing a single
verdict line when it passes.  The shared fixtures run the full solver
at desk scale, so this module takes several minutes of wall time; the
rest of the suite stays fast.

Numeric constants below are either contract tolerances or constants
measured on this implementation and frozen (each is annotated).
"""

import numpy as np
import pytest

from vlasov_transport.analysis import (ScenarioHypothesisError,
                                       compute_diagnostics,
                                       derivative_rep_check, holder_quotient,
                                       pde_residual, scaling_transform,
                                       scenario_monotone_check)
from vlasov_transport.characteristics import (AnalyticFieldHistory,
                                              constant_field_oracle,
                                              trace_backward, trace_states)
from vlasov_transport.cli import parse_config, run_scenario
from vlasov_transport.field_solve import MomentProfile, field_from_history
from vlasov_transport.phase_space import (BumpField, DensityField,
                                          InitialDataSpec, TransportField,
                                          build_phase_grid,
                                          sample_initial_data)
from vlasov_transport.solver import (SolutionHistory, majorant_existence_time,
                                     solve_direct, solve_picard)

pytestmark = pytest.mark.slow

GRIDS = (65, 129, 257)
DESK = 257
PICARD_TOL = 1e-8

# measured ~0.111 * dx^3 on the zero-density transport runs; frozen with margin
TRANSPORT_INTERP_CONST = 1.0
# runtime cross-engine guard; the measured constant sits in 2.4 .. 4.4
CROSS_ENGINE_CONST = 50.0
# successive-refinement growth of that constant, measured 1.44 then 1.25
CROSS_ENGINE_GROWTH = 1.5
# frame-change residual slack, from the coarse-grid measurement (97.2)
FRAME_RESIDUAL_CONST = 110.0
# free-streaming derivative-representation envelope, measured ~32 * dx^2
REP_ENVELOPE_CONST = 45.0
# independent fixed-step integration at ds = 1e-5 (see test_solver)
BLOWUP_ORACLE = {0.5: 1.47573, 1.0: 1.0, 2.0: 0.67172, 4.0: 0.44723}


def _grid(n, bounds=(-3.0, 3.0, -2.5, 2.5)):
    return build_phase_grid(*bounds, n, n)


def _dt(n):
    # six steps per cell transit; at 257 nodes this is exactly 1/256
    return _grid(n).dx / 6.0


def _verdict(num, label):
    print(f"[acceptance] criterion {num:02d} ({label}): PASS")


def _cumtrapz(values, dt):
    inner = np.cumsum((values[1:] + values[:-1]) * (0.5 * dt))
    return np.concatenate([[0.0], inner])


def _reduce(history, trace=None):
    """Keep only what the criteria read; the density lattices are dropped."""
    diag = compute_diagnostics(history)
    return {
        "diag": diag,
        "b_levels": history.b_levels,
        "dt": history.dt,
        "dv": history.grid.dv,
        "sup0": float(diag.density_sup[0]),
        "trace": trace,
    }


@pytest.fixture(scope="module")
def t1_runs():
    """Both engines over T = 1 on the default bump data, three grids."""
    spec = InitialDataSpec()
    runs = {}
    for n in GRIDS:
        grid = _grid(n)
        dt = _dt(n)
        runs[("direct", n)] = _reduce(solve_direct(spec, grid, 1.0, dt))
        history, trace = solve_picard(spec, grid, 1.0, dt, tol=PICARD_TOL)
        assert trace.converged
        runs[("picard", n)] = _reduce(history, trace)
        del history
    return runs


@pytest.fixture(scope="module")
def half_trace():
    """Desk-scale Picard iteration trace over T = 0.5."""
    _, trace = solve_picard(InitialDataSpec(), _grid(DESK), 0.5, _dt(DESK),
                            tol=PICARD_TOL)
    return trace


@pytest.fixture(scope="module")
def quarter_picard():
    """Converged histories over T = 0.25 kept whole for the frame change."""
    spec = InitialDataSpec()
    runs = {}
    for n in (65, 129):
        history, trace = solve_picard(spec, _grid(n), 0.25, _dt(n),
                                      tol=PICARD_TOL)
        assert trace.converged
        runs[n] = history
    return runs


def test_criterion_01_characteristic_integrator():
    # constant field: the traced foot points against the closed form
    grid = _grid(33)
    field = AnalyticFieldHistory.constant(0.7)
    bundle = trace_backward(grid, field, 0.5, 8)
    xg = np.broadcast_to(grid.x_nodes[:, None], (grid.nx, grid.nv))
    vg = np.broadcast_to(grid.v_nodes[None, :], (grid.nx, grid.nv))
    ox, ov = constant_field_oracle(xg, vg, 0.5, 0.0, 0.7)
    err = max(float(np.max(np.abs(bundle.x0 - ox))),
              float(np.max(np.abs(bundle.v0 - ov))))
    assert err <= 1e-12

    # smooth time-varying field: self-convergence over three step halvings
    field = AnalyticFieldHistory(
        lambda s, x: 0.8 * np.sin(1.3 * s) * np.cos(0.7 * x), sup_bound=0.8)
    rng = np.random.default_rng(3)
    x = rng.uniform(-2.0, 2.0, 200)
    v = rng.uniform(-1.5, 1.5, 200)
    x_ref, v_ref = trace_states(x, v, 0.5, 0.0, field, 1024)
    errs = []
    for substeps in (4, 8, 16, 32):
        xs, vs = trace_states(x, v, 0.5, 0.0, field, substeps)
        errs.append(max(float(np.max(np.abs(xs - x_ref))),
                        float(np.max(np.abs(vs - v_ref)))))
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(order >= 3.9 for order in orders), orders
    _verdict(1, "characteristic integrator")


def test_criterion_02_sup_norm_preservation(t1_runs):
    for n in GRIDS:
        sup0 = t1_runs[("picard", n)]["sup0"]
        assert sup0 == 1.0
        picard_max = float(t1_runs[("picard", n)]["diag"].density_sup.max())
        assert picard_max <= sup0 + 1e-12
        direct_max = float(t1_runs[("direct", n)]["diag"].density_sup.max())
        assert direct_max <= sup0 * (1.0 + 1e-6)
    # monotone-clipped interpolation keeps the bound exactly
    history = solve_direct(InitialDataSpec(), _grid(DESK), 1.0, _dt(DESK),
                           monotone=True)
    diag = compute_diagnostics(history)
    assert float(diag.density_sup.max()) <= float(diag.density_sup[0])
    _verdict(2, "sup-norm preservation")


def test_criterion_03_mass_conservation(t1_runs):
    drifts = {}
    for engine in ("picard", "direct"):
        for n in GRIDS:
            mass = t1_runs[(engine, n)]["diag"].mass
            mass0 = float(mass[0])
            drifts[(engine, n)] = float(np.max(np.abs(mass - mass0))) / mass0
    assert drifts[("picard", DESK)] < 1e-4, drifts
    for engine in ("picard", "direct"):
        series = [drifts[(engine, n)] for n in GRIDS]
        assert series[0] > series[1] > series[2], (engine, series)
        order = np.log2(series[1] / series[2])
        assert order >= 1.9, (engine, series, order)
    _verdict(3, "mass conservation")


def test_criterion_04_field_representation():
    # zero density: the marched field is the transported initial field up
    # to interpolation error at third order in the spacing
    spec = InitialDataSpec(f0_family="zero", b0_family="gaussian")
    b0 = spec.field()
    for n in GRIDS:
        grid = _grid(n)
        history = solve_direct(spec, grid, 0.25, _dt(n))
        err = max(
            float(np.max(np.abs(b.values - b0.value(grid.x_nodes - b.time))))
            for b in history.b_levels)
        assert err <= TRANSPORT_INTERP_CONST * grid.dx ** 3, (n, err)

    # constant synthetic moment c adds exactly c * t along the rays
    grid = build_phase_grid(-3.0, 3.0, -2.5, 2.5, DESK, 9)
    c, t, dt = 0.375, 0.25, _dt(DESK)
    levels = round(t / dt) + 1
    moments = [MomentProfile(grid, np.full(grid.nx, c), k * dt)
               for k in range(levels)]
    b0 = BumpField(0.5, 1.0)
    field = field_from_history(b0.value, moments, t)
    inside = grid.x_nodes >= grid.x_min + t
    expected = b0.value(grid.x_nodes - t) + c * t
    assert float(np.max(np.abs(field.values[inside] - expected[inside]))) \
        <= 1e-12
    _verdict(4, "field representation")


def test_criterion_05_picard_convergence(half_trace):
    assert half_trace.converged
    assert half_trace.iterations <= 15
    for diffs in (half_trace.field_diffs, half_trace.density_diffs):
        diffs = np.asarray(diffs)
        assert diffs.size >= 4
        assert diffs[-1] < PICARD_TOL
        # monotone decrease from the second difference onward
        assert np.all(diffs[2:] < diffs[1:-1]), diffs
        # contraction ratios themselves decrease: faster-than-geometric decay
        ratios = diffs[1:] / diffs[:-1]
        assert np.all(ratios[1:] < ratios[:-1]), ratios
    _verdict(5, "picard convergence")


def test_criterion_06_cross_engine_uniqueness():
    spec = InitialDataSpec(b0_family="gaussian")
    constants = []
    for n in GRIDS:
        grid = _grid(n)
        dt = _dt(n)
        picard_history, trace = solve_picard(spec, grid, 0.5, dt,
                                             tol=PICARD_TOL)
        assert trace.converged
        direct_history = solve_direct(spec, grid, 0.5, dt)
        dist = max(
            float(np.max(np.abs(bp.values - bd.values)))
            for bp, bd in zip(picard_history.b_levels,
                              direct_history.b_levels))
        scale = dt ** 2 + grid.dx ** 3
        assert dist <= max(5 * PICARD_TOL, CROSS_ENGINE_CONST * scale), (
            n, dist, scale)
        constants.append(dist / scale)
        del picard_history, direct_history
    for coarse, fine in zip(constants, constants[1:]):
        assert fine <= CROSS_ENGINE_GROWTH * coarse, constants
    _verdict(6, "cross-engine agreement")


def test_criterion_07_support_bound(t1_runs):
    for (engine, n), run in t1_runs.items():
        diag = run["diag"]
        allowed = float(diag.support_radius[0]) \
            + _cumtrapz(diag.field_sup, run["dt"])
        excess = float(np.max(diag.support_radius - allowed))
        slack = run["dv"] + run["dt"] * float(diag.field_sup.max())
        assert excess <= slack, (engine, n, excess, slack)
    _verdict(7, "velocity support bound")


def test_criterion_08_scaling_invariance(quarter_picard):
    # u = 0 reproduces the lattices bitwise
    identity = scaling_transform(quarter_picard[65], 0.0)
    for f_new, f_old in zip(identity.f_levels, quarter_picard[65].f_levels):
        assert np.array_equal(f_new.values, f_old.values)
    for b_new, b_old in zip(identity.b_levels, quarter_picard[65].b_levels):
        assert np.array_equal(b_new.values, b_old.values)

    # rescaled histories stay near-solutions: their residual is bounded by
    # the source residual plus interpolation error, stably under refinement
    source = {n: pde_residual(quarter_picard[n]) for n in (65, 129)}
    for u in (1.0, -2.0):
        for n in (65, 129):
            dx2 = quarter_picard[n].grid.dx ** 2
            src_f, src_b = source[n]
            res_f, res_b = pde_residual(scaling_transform(quarter_picard[n], u))
            assert res_f <= 3.0 * src_f + FRAME_RESIDUAL_CONST * dx2, (
                u, n, res_f, src_f)
            assert res_b <= 3.0 * src_b + FRAME_RESIDUAL_CONST * dx2, (
                u, n, res_b, src_b)
    _verdict(8, "scaling invariance")


def test_criterion_09_global_existence_scenario():
    spec = InitialDataSpec(f0_center_v=2.0, f0_width=0.5)
    grid = build_phase_grid(-2.5, 9.5, 0.25, 5.25, DESK, DESK)
    history = solve_direct(spec, grid, 2.0, 1.0 / 256.0, monotone=True)
    report = scenario_monotone_check(history)
    assert report.passed
    assert report.field_min >= -1e-8
    assert report.max_support_drop <= report.support_drop_tol

    # data mirrored through the frame change violate the hypotheses as-is
    # and the frame change is an involution, so transforming them back
    # yields exactly the data that just passed
    mirrored = spec.scaled(-2.0)
    assert mirrored.scaled(-2.0) == spec
    mgrid = _grid(65)
    f0m, b0m = sample_initial_data(mirrored, mgrid)
    stalled = SolutionHistory(
        mgrid, 1.0 / 64.0,
        (f0m, DensityField(mgrid, f0m.values, 1.0 / 64.0)),
        (b0m, TransportField(mgrid, b0m.values, 1.0 / 64.0)),
        initial_data=mirrored)
    with pytest.raises(ScenarioHypothesisError):
        scenario_monotone_check(stalled)
    _verdict(9, "global existence scenario")


def test_criterion_10_holder_proxy(t1_runs):
    # offsets shared by the two finer grids: dyadic multiples of the
    # coarser spacing
    dx129 = _grid(129).dx
    offsets = [m * dx129 for m in (1, 2, 4, 8, 16, 32, 64)]
    for engine in ("picard", "direct"):
        quotients = {}
        for n in (129, 257):
            run = t1_runs[(engine, n)]
            report = holder_quotient(run["b_levels"], run["dt"],
                                     space_offsets=offsets)
            quotients[n] = float(report.space_quotient.max())
        change = abs(quotients[257] - quotients[129]) / quotients[129]
        assert change < 0.10, (engine, quotients)

    # a Lipschitz analytic field loses its half-order content: the
    # smallest-offset quotient decays like sqrt(dx) under refinement
    smallest = []
    for n in (129, 257, 513):
        grid = build_phase_grid(-3.0, 3.0, -1.0, 1.0, n, 4)
        levels = [TransportField(grid,
                                 np.sin(1.3 * grid.x_nodes + 0.2 * k),
                                 0.1 * k)
                  for k in range(3)]
        report = holder_quotient(levels, 0.1)
        smallest.append(float(report.space_quotient[0]))
    assert smallest[0] > smallest[1] > smallest[2], smallest
    assert smallest[2] <= 0.55 * smallest[0], smallest
    _verdict(10, "holder quotient proxy")


def test_criterion_11_majorant_ode():
    # no source, no growth
    rest = majorant_existence_time(0.0, 1.0, ds=1e-3, horizon=5.0)
    assert not rest.blew_up
    assert float(np.max(np.abs(rest.values))) == 0.0

    # blowup times against the frozen oracle, strictly decreasing in C
    times = []
    for c, expected in sorted(BLOWUP_ORACLE.items()):
        result = majorant_existence_time(c, 1e6, ds=1e-4)
        assert result.blew_up
        assert result.blowup_time == pytest.approx(expected, abs=5e-3)
        times.append(result.blowup_time)
    assert all(a > b for a, b in zip(times, times[1:]))

    # step-halving self-convergence away from the cap; for C = 1 the
    # trajectory is 1/(1 - t), so the value at t = 1/2 is exactly 2
    errs = []
    for ds in (1 / 64, 1 / 128, 1 / 256, 1 / 512):
        result = majorant_existence_time(1.0, 1e6, ds=ds, horizon=0.5)
        k = int(np.argmin(np.abs(result.times - 0.5)))
        assert result.times[k] == 0.5
        errs.append(abs(result.values[k] - 2.0))
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(order >= 3.9 for order in orders), orders
    _verdict(11, "majorant ode")


def test_criterion_12_derivative_representations():
    # residual orders need third derivatives of the data, so these runs
    # use the smoother bump profile; the field is analytic everywhere
    spec = InitialDataSpec(f0_power=4, b0_family="gaussian")
    coupled = {}
    for n in GRIDS:
        history, trace = solve_picard(spec, _grid(n), 0.25, _dt(n),
                                      tol=PICARD_TOL)
        assert trace.converged
        coupled[n] = derivative_rep_check(history, 0.25)
        del history
    for component in (0, 1):
        series = [coupled[n][component] for n in GRIDS]
        orders = [np.log2(a / b) for a, b in zip(series, series[1:])]
        assert all(order >= 1.9 for order in orders), (component, series)

    # free streaming: the path integrand is constant in time, so the
    # representation reduces to its closed form; exactly sampled lattices
    # must reproduce it at second order with a small constant
    spec = InitialDataSpec(f0_power=4, b0_family="zero")
    family = spec.density()
    free = {}
    for n in GRIDS:
        grid = _grid(n)
        dt = _dt(n)
        levels = round(0.25 / dt)
        f_levels, b_levels = [], []
        for k in range(levels + 1):
            s = k * dt
            values = family.value(
                grid.x_nodes[:, None] - s * grid.v_nodes[None, :],
                grid.v_nodes[None, :])
            f_levels.append(DensityField(grid, values, s))
            b_levels.append(TransportField(grid, np.zeros(grid.nx), s))
        history = SolutionHistory(grid, dt, tuple(f_levels), tuple(b_levels),
                                  initial_data=spec)
        free[n] = derivative_rep_check(history, 0.25)
        for residual in free[n]:
            assert residual <= REP_ENVELOPE_CONST * grid.dx ** 2, (n, free[n])
    for component in (0, 1):
        series = [free[n][component] for n in GRIDS]
        orders = [np.log2(a / b) for a, b in zip(series, series[1:])]
        assert all(order >= 1.9 for order in orders), (component, series)
    _verdict(12, "derivative representations")


def test_criterion_13_determinism(tmp_path):
    config = parse_config("\n".join([
        "nx = 65",
        "nv = 65",
        "dt = 0.015625",
        "T = 0.25",
        "engine = both",
        "snapshot_times = 0.0, 0.25",
    ]))
    first = run_scenario(config, out_dir=tmp_path / "first")
    second = run_scenario(config, out_dir=tmp_path / "second")
    names = sorted(path.name for path in first.files)
    assert names == sorted(path.name for path in second.files)
    assert names
    for name in names:
        a = (tmp_path / "first" / name).read_bytes()
        b = (tmp_path / "second" / name).read_bytes()
        assert a == b, name
    _verdict(13, "determinism")
