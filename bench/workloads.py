"""The three workloads: set-up, the timed operation, and its checks.

Each workload runs in a fresh process (see worker.py).  setup() imports
the package and builds the inputs; run() is the timed operation and
goes only through the package's public entry points; checks() reads the
outputs afterwards, untimed.  The inputs are fixed: no workload uses a
random seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import checks as ck

PICARD_TOL = 1e-8

DESK_CONFIG = """\
engine = picard
nx = 257
nv = 257
dt = 0.00390625
T = 0.25
picard_tol = 1e-8
diag_holder = true
diag_residual = true
majorant_C = 1.0
majorant_cap = 1e6
snapshot_times = 0, 0.125, 0.25
out_dir = {out_dir}
"""
DESK_SNAPSHOT_LEVELS = (0, 32, 64)


class PicardDesk:
    """`vlasov-transport run` with the Picard engine at 257^2, T = 0.25."""

    def setup(self, work_dir: Path) -> None:
        from vlasov_transport import cli
        self.cli = cli
        self.out_dir = work_dir / "out"
        self.config_path = work_dir / "picard_desk.cfg"
        self.config_path.write_text(DESK_CONFIG.format(out_dir=self.out_dir))
        config = cli.load_config(self.config_path)
        self.grid = config.grid()
        config.initial_data()

    def run(self) -> None:
        self.status = self.cli.main(["run", str(self.config_path)])

    def checks(self) -> list[ck.Check]:
        out = self.out_dir
        summary = json.loads((out / "summary.json").read_text())
        found = ck.check_run_status(self.status, summary)
        f_levels = [ck.read_snapshot(out / f"snapshot_picard_f_level{k}.snap")
                    [0] for k in DESK_SNAPSHOT_LEVELS]
        b0, _ = ck.read_snapshot(out / "snapshot_picard_b_level0.snap")
        grid = self.grid
        x_nodes = np.linspace(grid.x_min, grid.x_max, grid.nx)
        v_nodes = np.linspace(grid.v_min, grid.v_max, grid.nv)
        found += ck.check_initial_snapshots(f_levels[0], b0, x_nodes, v_nodes)
        found.append(ck.check_density_sups(f_levels))
        found.append(ck.check_mass_drift(f_levels, grid.dx, grid.dv))
        found += ck.check_picard_trace(
            ck.read_picard_trace(out / "picard_trace.csv"), PICARD_TOL)
        found.append(ck.check_majorant(
            summary["info"].get("majorant_blowup_time"), 1e6))
        return found


class PicardCoarse:
    """solve_picard on the default bump data at 65^2, dt = dx/6, T = 1."""

    def setup(self, work_dir: Path) -> None:
        from vlasov_transport import phase_space, solver
        self.solver = solver
        self.grid = phase_space.build_phase_grid(-3.0, 3.0, -2.5, 2.5, 65, 65)
        self.spec = phase_space.InitialDataSpec()
        self.dt = self.grid.dx / 6.0

    def run(self) -> None:
        self.history, self.trace = self.solver.solve_picard(
            self.spec, self.grid, 1.0, self.dt, tol=PICARD_TOL)

    def checks(self) -> list[ck.Check]:
        grid, dt = self.grid, self.dt
        f_levels = [f.values for f in self.history.f_levels]
        b_levels = [b.values for b in self.history.b_levels]
        found = ck.check_picard_convergence(self.trace.converged,
                                            self.trace.iterations)
        found.append(ck.check_density_sups(f_levels))
        direct = self.solver.solve_direct(self.spec, grid, 1.0, dt)
        found.append(ck.check_cross_engine(
            b_levels, [b.values for b in direct.b_levels], dt, grid.dx))
        found += ck.check_a_priori_bounds(
            f_levels, b_levels, np.linspace(grid.v_min, grid.v_max, grid.nv),
            dt, grid.dv, f0_sup=self.spec.f0_amplitude,
            b0_sup=self.spec.b0_amplitude)
        return found


class DirectGlobal:
    """solve_direct(monotone=True) on the sign-definite data of the
    global-existence scenario, then scenario_monotone_check."""

    def setup(self, work_dir: Path) -> None:
        from vlasov_transport import analysis, phase_space, solver
        self.solver = solver
        self.analysis = analysis
        self.grid = phase_space.build_phase_grid(-2.5, 9.5, 0.25, 5.25,
                                                 257, 257)
        self.spec = phase_space.InitialDataSpec(f0_center_v=2.0,
                                                f0_width=0.5)

    def run(self) -> None:
        self.history = self.solver.solve_direct(self.spec, self.grid, 2.0,
                                                1.0 / 256.0, monotone=True)
        self.report = self.analysis.scenario_monotone_check(self.history)

    def checks(self) -> list[ck.Check]:
        grid = self.grid
        f_levels = [f.values for f in self.history.f_levels]
        b_levels = [b.values for b in self.history.b_levels]
        v_nodes = np.linspace(grid.v_min, grid.v_max, grid.nv)
        found = [ck.check_scenario_report(self.report.passed)]
        found += ck.check_scenario_scan(f_levels, b_levels, v_nodes, grid.dv)
        found.append(ck.check_density_sups(
            f_levels, limit=float(np.max(np.abs(f_levels[0]))),
            name="density_sup_vs_initial"))
        return found


WORKLOADS = {
    "picard_desk": PicardDesk,
    "picard_coarse": PicardCoarse,
    "direct_global": DirectGlobal,
}
