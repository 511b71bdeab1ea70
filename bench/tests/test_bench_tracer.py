"""The traced-run wrappers on tiny grids."""

import time

import numpy as np
import pytest

from run import LAYER_UNITS
from tracer import Tracer
from vlasov_transport import characteristics, cli, field_solve, solver
from vlasov_transport.phase_space import (DomainExitError, InitialDataSpec,
                                          build_phase_grid, interp_profile)

TINY = build_phase_grid(-3.0, 3.0, -2.5, 2.5, 17, 17)
TINY_DT = TINY.dx / 6.0


def _traced(call):
    tracer = Tracer().install()
    try:
        start = time.perf_counter()
        result = call()
        run_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return tracer, result, tracer.layer_metrics(run_s)


def test_picard_counts_and_self_times_cover_the_run():
    tracer, (history, trace), metrics = _traced(
        lambda: solver.solve_picard(InitialDataSpec(), TINY, 0.25, TINY_DT))
    levels = history.n_levels
    assert metrics["solver.picard_iterations"] == trace.iterations
    # one rebuild per level per iteration, each reading the moments so far
    assert metrics["field_solve.field_from_history_calls"] \
        == trace.iterations * levels
    assert metrics["field_solve.moment_at_calls"] \
        == trace.iterations * sum(range(2, levels + 1))
    # level k takes k RK4 steps of four field evaluations
    assert metrics["characteristics.field_eval_calls"] \
        == trace.iterations * 4 * sum(range(levels))
    assert metrics["phase_space.interp_profile_calls"] > \
        metrics["characteristics.field_eval_calls"]
    assert metrics["phase_space.interp_lattice_calls"] == 0
    assert 0.0 < metrics["solver.traced_share"] <= 1.0
    assert metrics["characteristics.state_steps"] > 0
    assert 0.95 < metrics["trace.accounted_share"] <= 1.0
    assert metrics["characteristics.field_eval_s"] \
        > metrics["characteristics.field_eval_self_s"] > 0.0
    assert metrics["field_solve.field_from_history_s"] \
        > metrics["field_solve.field_from_history_self_s"] > 0.0
    assert set(metrics) | {"trace.run_s", "trace.untraced_run_s",
                           "trace.overhead_s"} == set(LAYER_UNITS)
    self_times = tracer.self_times()
    assert all(t >= 0.0 for t in self_times.values())
    roots = [end - start for name, start, end, parent in tracer.spans
             if parent < 0]
    assert sum(self_times.values()) == pytest.approx(sum(roots))


def test_direct_counts_lattice_interpolation():
    spec = InitialDataSpec(f0_center_v=2.0, f0_width=0.5)
    grid = build_phase_grid(-2.5, 9.5, 0.25, 5.25, 17, 17)
    _, history, metrics = _traced(
        lambda: solver.solve_direct(spec, grid, 0.5, 1.0 / 16.0,
                                    monotone=True))
    steps = history.n_levels - 1
    assert metrics["phase_space.interp_lattice_calls"] == steps
    assert metrics["characteristics.field_eval_calls"] == 4 * steps
    assert metrics["field_solve.field_from_history_calls"] == 0
    assert metrics["solver.picard_iterations"] == 0
    assert metrics["phase_space.interp_lattice_points"] \
        == metrics["characteristics.state_steps"]
    assert metrics["solver.solve_direct_self_s"] > 0.0


def test_cli_run_traces_every_module(tmp_path):
    config = tmp_path / "tiny.cfg"
    config.write_text(
        "engine = picard\nnx = 17\nnv = 17\ndt = 0.0625\nT = 0.25\n"
        f"snapshot_times = 0, 0.25\nout_dir = {tmp_path / 'out'}\n")
    _, status, metrics = _traced(lambda: cli.main(["run", str(config)]))
    # 17 nodes are too coarse for the mass-drift check; the run still ends
    assert status in (0, 1)
    assert (tmp_path / "out" / "summary.json").is_file()
    written = sum(p.stat().st_size
                  for p in (tmp_path / "out").glob("*.snap"))
    assert metrics["snapshot.bytes_written"] == written
    for name in ("cli.parse_config_s", "cli.main_self_s",
                 "cli.run_scenario_self_s", "analysis.compute_diagnostics_s",
                 "analysis.pde_residual_s", "analysis.holder_quotient_s",
                 "solver.majorant_s", "snapshot.write_s",
                 "solver.solve_picard_self_s"):
        assert metrics[name] > 0.0, name


def test_uninstall_restores_every_original():
    originals = (solver.solve_picard, solver.trace_states,
                 characteristics.interp_profile, field_solve.interp_profile,
                 cli.run_scenario,
                 characteristics.LatticeFieldHistory.__dict__["eval"],
                 field_solve.MomentProfile.__dict__["at"])
    tracer = Tracer().install()
    assert solver.solve_picard is not originals[0]
    assert characteristics.interp_profile is field_solve.interp_profile
    assert characteristics.interp_profile is not interp_profile
    tracer.uninstall()
    assert (solver.solve_picard, solver.trace_states,
            characteristics.interp_profile, field_solve.interp_profile,
            cli.run_scenario,
            characteristics.LatticeFieldHistory.__dict__["eval"],
            field_solve.MomentProfile.__dict__["at"]) == originals


def test_span_closes_when_the_call_raises():
    history = characteristics.LatticeFieldHistory(
        TINY, np.zeros((2, TINY.nx)), 0.1)
    tracer = Tracer().install()
    try:
        with pytest.raises(DomainExitError):
            history.eval(0.05, np.array([10.0]))
    finally:
        tracer.uninstall()
    assert not tracer._stack
    names = [span[0] for span in tracer.spans]
    assert names == ["characteristics.field_eval", "phase_space.interp_profile"]
    assert all(end >= start for _, start, end, _ in tracer.spans)
