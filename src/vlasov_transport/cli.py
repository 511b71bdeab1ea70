"""Configuration, scenario runner, and command-line entry point.

Configs are flat key = value documents: one pair per line, # starts a
comment, unknown keys are errors (with the offending line number), and
every key has a default so the empty document is a valid config.  A run
builds the grid and initial data, solves with the selected engine(s),
writes the per-level diagnostics trace, the enabled diagnostic tables,
requested binary snapshots, and a JSON summary with a pass/fail verdict
for every invariant check.  The process exits 0 when every enabled check
passes, 1 when one fails, 2 on a bad config or input file, and 3 when an
engine aborts because a trajectory left the spatial axis or the forked
process of a split Picard sweep died; an aborted run still writes a
summary.json that records the abort.  Outputs are
deterministic: running the same config twice produces byte-identical
files.

Subcommands:

    run <config>                solve a scenario and write its artifacts
    majorant --C v --cap v      blow-up time of the comparison ODE
    transform --u v <in> <out>  frame-map a snapshot file
    diff <a> <b>                sup distance between two snapshots
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .analysis import (DiagnosticsTrace, compute_diagnostics,
                       holder_quotient, pde_residual,
                       scenario_hypothesis_check, scenario_monotone_check,
                       transform_density_level, transform_field_level,
                       transform_rectangle)
from .field_solve import (conservative_data_constant, cumtrapz_uniform,
                          field_derivative_bound_check, field_sup_bound_check)
from .phase_space import (DensityField, DomainExitError, InitialDataSpec,
                          TransportField, build_phase_grid,
                          sample_initial_data)
from .snapshot import read_snapshot, write_snapshot
from .solver import (SweepProcessError, _levels_for, majorant_existence_time,
                     solve_direct, solve_picard)

__all__ = ["ConfigError", "RunConfig", "RunArtifacts", "parse_config",
           "load_config", "run_scenario", "main"]

log = logging.getLogger(__name__)

# Engine-agnostic pass thresholds used by the run summary.
MASS_DRIFT_TOL = 1e-4
DIRECT_SUP_REL_TOL = 1e-6
EXACT_SUP_TOL = 1e-12
CROSS_ENGINE_CONST = 50.0

_ENGINE_ABORTS = (DomainExitError, SweepProcessError)


class ConfigError(ValueError):
    """A config document failed to parse or validate."""


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text.strip()!r}")
    return value


def _parse_times(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(_parse_float(part) for part in text.split(","))


@dataclass(frozen=True)
class RunConfig:
    """A validated scenario configuration (defaults fill missing keys)."""

    x_min: float = -3.0
    x_max: float = 3.0
    v_min: float = -2.5
    v_max: float = 2.5
    nx: int = 65
    nv: int = 65
    dt: float = 0.015625
    t_final: float = 0.5
    engine: str = "direct"
    picard_tol: float = 1e-8
    picard_max_iter: int = 25
    f0_family: str = "bump"
    f0_amplitude: float = 1.0
    f0_center_x: float = 0.0
    f0_center_v: float = 0.0
    f0_width: float = 0.5
    b0_family: str = "bump"
    b0_amplitude: float = 0.5
    b0_width: float = 1.0
    interp_monotone: bool = False
    diag_holder: bool = True
    diag_scenario: bool = False
    diag_residual: bool = True
    majorant_c: float = 1.0
    majorant_cap: float = 1e6
    snapshot_times: tuple = ()
    out_dir: str = "out"
    seed: int = 0      # reserved; every code path is deterministic

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.dt)

    def initial_data(self) -> InitialDataSpec:
        """The spec built from the fields this config shares with it."""
        return InitialDataSpec(**{f.name: getattr(self, f.name)
                                  for f in fields(InitialDataSpec)
                                  if hasattr(self, f.name)})

    def grid(self):
        return build_phase_grid(self.x_min, self.x_max, self.v_min,
                                self.v_max, self.nx, self.nv)


# config key -> (attribute, value parser): one key per RunConfig field,
# named after it except for two aliases, parsed by the field's type.
_ALIASES = {"t_final": "T", "majorant_c": "majorant_C"}
_PARSERS = {float: _parse_float, int: int, bool: _parse_bool, str: str,
            tuple: _parse_times}
_KEYS = {_ALIASES.get(name, name): (name, _PARSERS[kind])
         for name, kind in get_type_hints(RunConfig).items()}

_ENGINES = ("picard", "direct", "both")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a flat key = value config document."""
    values = {}
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} "
                f"(first set on line {seen[key]})")
        seen[key] = lineno
        attr, parser = _KEYS[key]
        try:
            values[attr] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}")
    config = RunConfig(**values)
    _validate(config)
    return config


def _check(build, *args) -> None:
    """Run a builder that validates its inputs; a refusal is a ConfigError."""
    try:
        build(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _validate(config: RunConfig) -> None:
    _check(config.grid)
    _check(_levels_for, config.t_final, config.dt)
    if config.engine not in _ENGINES:
        raise ConfigError(f"engine must be one of {_ENGINES}")
    if config.picard_tol <= 0:
        raise ConfigError("picard_tol must be positive")
    if config.picard_max_iter < 1:
        raise ConfigError("picard_max_iter must be at least 1")
    if config.majorant_c < 0:
        raise ConfigError("majorant_C must be nonnegative")
    if config.majorant_c > 0 and config.majorant_cap <= config.majorant_c:
        raise ConfigError("majorant_cap must exceed majorant_C")
    _check(config.initial_data)
    first_time = {}
    for t in config.snapshot_times:
        level = t / config.dt
        if t < 0 or t > config.t_final + 1e-12 or not math.isfinite(level) \
                or abs(level - round(level)) > 1e-9 * max(1.0, level):
            raise ConfigError(
                f"snapshot time {t} is not a level time in [0, T]")
        k = round(level)
        if k in first_time:
            raise ConfigError(
                f"snapshot time {t} repeats level {k} "
                f"(first requested as {first_time[k]})")
        first_time[k] = t
    if config.diag_residual and config.n_steps < 2:
        raise ConfigError("residual diagnostics need at least two steps")


def load_config(path) -> RunConfig:
    return parse_config(Path(path).read_text())


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(c) if isinstance(c, float) else str(c)
                              for c in row))
    path.write_text("\n".join(lines) + "\n")


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _padding_advisory(config: RunConfig) -> None:
    """Warn when the grid margins look too small for the run horizon.

    Every traced trajectory must stay inside the spatial axis, and the
    field update near the left edge assumes the moment support never
    reaches it.  The estimate grows the support with the a priori field
    bound; it is conservative, so this only warns.
    """
    spec = config.initial_data()
    box = spec.density().support
    if box is None:
        return
    t = config.t_final
    c = conservative_data_constant(spec.density().sup_norm,
                                   spec.field().sup_norm)
    p0 = max(abs(box[1][0]), abs(box[1][1]))
    b_est = c * (1.0 + t * (p0 + t * c * (1.0 + t * p0)))
    pad = max(t, t * (p0 + t * b_est))
    left = box[0][0] - config.x_min
    right = config.x_max - box[0][1]
    if min(left, right) < pad:
        log.warning(
            "grid margins (%.3g left, %.3g right) may be smaller than the "
            "estimated reach %.3g over T = %g; trajectories that leave the "
            "domain will abort the run", left, right, pad, t)


@dataclass(frozen=True)
class RunArtifacts:
    """What a scenario run produced and how its checks fared."""

    out_dir: Path
    checks: dict
    info: dict
    files: tuple
    ok: bool


def _run_engines(config: RunConfig):
    spec = config.initial_data()
    grid = config.grid()
    results = {}
    picard_trace = None
    engine = None
    try:
        if config.engine in ("picard", "both"):
            engine = "picard"
            history, picard_trace = solve_picard(
                spec, grid, config.t_final, config.dt, tol=config.picard_tol,
                max_iter=config.picard_max_iter,
                monotone=config.interp_monotone)
            results["picard"] = history
        if config.engine in ("direct", "both"):
            engine = "direct"
            results["direct"] = solve_direct(spec, grid, config.t_final,
                                             config.dt,
                                             monotone=config.interp_monotone)
    except _ENGINE_ABORTS as exc:
        raise type(exc)(f"{engine} engine: {exc}") from exc
    return spec, results, picard_trace


def _verdict(passed: bool, measured: float, threshold: float) -> dict:
    return {"passed": passed, "measured": measured, "threshold": threshold}


def _engine_checks(config: RunConfig, spec, engine: str, history, diag,
                   checks: dict) -> None:
    grid = history.grid
    f0_sup = spec.density().sup_norm
    exact = engine == "picard" or config.interp_monotone
    sup_tol = f0_sup + EXACT_SUP_TOL if exact \
        else f0_sup * (1.0 + DIRECT_SUP_REL_TOL) + EXACT_SUP_TOL
    measured_sup = float(diag.density_sup.max())
    checks[f"{engine}_sup_preservation"] = _verdict(
        measured_sup <= sup_tol, measured_sup, sup_tol)

    mass0 = float(diag.mass[0])
    drift = float(np.max(np.abs(diag.mass - mass0))) / max(abs(mass0), 1e-30) \
        if mass0 != 0.0 else float(np.max(np.abs(diag.mass)))
    checks[f"{engine}_mass_drift"] = _verdict(drift < MASS_DRIFT_TOL, drift,
                                              MASS_DRIFT_TOL)

    b_sup_max = float(diag.field_sup.max())
    support_slack = grid.dv + config.dt * b_sup_max
    growth = diag.support_radius - (diag.support_radius[0]
                                    + cumtrapz_uniform(diag.field_sup,
                                                       config.dt))
    worst_growth = float(growth.max())
    checks[f"{engine}_support_bound"] = _verdict(
        worst_growth <= support_slack, worst_growth, support_slack)

    c = conservative_data_constant(f0_sup, spec.field().sup_norm)
    report = field_sup_bound_check(diag.field_sup, diag.support_radius,
                                   config.dt, c, dv=grid.dv)
    checks[f"{engine}_field_bound"] = _verdict(report.satisfied,
                                               report.max_ratio, 1.0)

    c_t = conservative_data_constant(float(diag.support_radius.max()),
                                     spec.field().derivative_sup)
    report = field_derivative_bound_check(diag.dxb_sup, diag.dxf_sup,
                                          config.dt, c_t)
    checks[f"{engine}_field_derivative_bound"] = _verdict(
        report.satisfied, report.max_ratio, 1.0)


def run_scenario(config: RunConfig, out_dir=None) -> RunArtifacts:
    """Solve a configured scenario and write all artifacts.

    out_dir overrides config.out_dir when given.  Returns the artifact
    listing with the outcome of every enabled check; raises on config,
    hypothesis, domain or sweep errors.  With diag_scenario set, the
    scenario's hypotheses are checked on the sampled level 0 before any
    engine runs or any file is written.  An engine abort first leaves a
    summary.json with "ok": false and its message under "aborted".
    """
    if config.diag_scenario:
        scenario_hypothesis_check(
            *sample_initial_data(config.initial_data(), config.grid()))
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _padding_advisory(config)
    try:
        spec, results, picard_trace = _run_engines(config)
    except _ENGINE_ABORTS as exc:
        _write_summary(out, {"aborted": str(exc), "ok": False})
        raise
    checks: dict = {}
    info: dict = {}
    files: list = []
    # CSV name -> (header, rows); a table is registered by its first
    # producer, and every registered table is written at the end.
    tables: dict = {}

    def table(name: str, *header: str) -> list:
        return tables.setdefault(name, (header, []))[1]

    for engine in sorted(results):
        history = results[engine]
        diag = compute_diagnostics(history)
        table("diagnostics.csv", "engine", *DiagnosticsTrace.COLUMNS).extend(
            (engine,) + row for row in diag.rows())
        _engine_checks(config, spec, engine, history, diag, checks)

        if config.diag_holder:
            report = holder_quotient(history.b_levels, config.dt)
            rows = table("holder.csv", "engine", "axis", "offset", "sup",
                         "quotient")
            for axis in ("space", "time"):
                columns = (getattr(report, f"{axis}_{name}")
                           for name in ("offsets", "sup", "quotient"))
                rows.extend((engine, axis) + tuple(map(float, row))
                            for row in zip(*columns))
            quotients = np.concatenate([report.space_quotient,
                                        report.time_quotient])
            info[f"{engine}_holder_quotient_max"] = float(quotients.max())

        if config.diag_residual:
            density_res, field_res = pde_residual(history)
            table("residuals.csv", "engine", "density_residual",
                  "field_residual").append((engine, density_res, field_res))
            info[f"{engine}_density_residual"] = density_res
            info[f"{engine}_field_residual"] = field_res

        if config.diag_scenario:
            report = scenario_monotone_check(history)
            table("scenario.csv", "engine", "field_min",
                  "max_support_drop").append(
                (engine, report.field_min, report.max_support_drop))
            checks[f"{engine}_scenario"] = _verdict(
                report.passed, min(report.field_min, 0.0),
                -report.field_min_tol)
            checks[f"{engine}_scenario_support"] = _verdict(
                report.max_support_drop <= report.support_drop_tol,
                report.max_support_drop, report.support_drop_tol)

        for t_snap in config.snapshot_times:
            level = round(t_snap / config.dt)
            for kind, levels in (("f", history.f_levels),
                                 ("b", history.b_levels)):
                path = out / f"snapshot_{engine}_{kind}_level{level}.snap"
                write_snapshot(path, levels[level].values, levels[level].time)
                files.append(path)

    if picard_trace is not None:
        table("picard_trace.csv", "iteration", "field_diff",
              "density_diff").extend(
            (k + 1, db, df) for k, (db, df) in enumerate(
                zip(picard_trace.field_diffs, picard_trace.density_diffs)))
        checks["picard_converged"] = _verdict(
            picard_trace.converged, float(picard_trace.iterations),
            float(config.picard_max_iter))

    if config.engine == "both":
        dist = max(float(np.max(np.abs(p.values - d.values)))
                   for p, d in zip(results["picard"].b_levels,
                                   results["direct"].b_levels))
        grid = config.grid()
        threshold = max(5.0 * config.picard_tol,
                        CROSS_ENGINE_CONST * (config.dt ** 2 + grid.dx ** 3))
        checks["cross_engine_distance"] = _verdict(dist <= threshold, dist,
                                                   threshold)

    if config.majorant_c > 0:
        result = majorant_existence_time(config.majorant_c,
                                         config.majorant_cap)
        table("majorant.csv", "t", "F").extend(
            zip(result.times.tolist(), result.values.tolist()))
        info["majorant_blowup_time"] = _json_safe(result.blowup_time)

    for name, (header, rows) in tables.items():
        _write_csv(out / name, header, rows)
        files.append(out / name)

    ok = all(entry["passed"] for entry in checks.values())
    summary = {
        "checks": {name: {k: _json_safe(v) for k, v in entry.items()}
                   for name, entry in sorted(checks.items())},
        "info": {k: _json_safe(v) for k, v in sorted(info.items())},
        "engines": sorted(results),
        "files": sorted(str(p.relative_to(out)) for p in files),
        "ok": ok,
    }
    files.append(_write_summary(out, summary))
    return RunArtifacts(out, checks, info, tuple(files), ok)


def _write_summary(out: Path, summary: dict) -> Path:
    path = out / "summary.json"
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# command line


def _cmd_run(args) -> int:
    config = load_config(args.config)
    artifacts = run_scenario(config)
    for name in sorted(artifacts.checks):
        entry = artifacts.checks[name]
        verdict = "PASS" if entry["passed"] else "FAIL"
        print(f"{name}: {verdict} (measured={entry['measured']:.6g}, "
              f"threshold={entry['threshold']:.6g})")
    print(f"summary: {artifacts.out_dir / 'summary.json'}")
    return 0 if artifacts.ok else 1


def _cmd_majorant(args) -> int:
    result = majorant_existence_time(args.C, args.cap, ds=args.ds,
                                     horizon=args.horizon)
    payload = {"C": result.c, "cap": result.cap,
               "blowup_time": _json_safe(result.blowup_time),
               "samples": int(result.times.size)}
    print(json.dumps(payload, sort_keys=True))
    return 0


def _snapshot_grid(values: np.ndarray, args):
    nx = values.shape[0]
    nv = values.shape[1] if values.ndim == 2 else 4
    return build_phase_grid(args.x_min, args.x_max, args.v_min, args.v_max,
                            nx, nv)


def _cmd_transform(args) -> int:
    values, time = read_snapshot(args.infile)
    grid = _snapshot_grid(values, args)
    new_grid = transform_rectangle(grid, args.u, (time,))
    if values.ndim == 2:
        level = DensityField(grid, values, time)
        out = transform_density_level(level, new_grid, args.u).values
    else:
        level = TransportField(grid, values, time)
        out = transform_field_level(level, new_grid, args.u).values
    write_snapshot(args.outfile, out, time)
    return 0


def _cmd_diff(args) -> int:
    a_values, _ = read_snapshot(args.a)
    b_values, _ = read_snapshot(args.b)
    if a_values.shape != b_values.shape:
        raise ValueError(
            f"snapshot shapes differ: {a_values.shape} vs {b_values.shape}")
    print(_fmt(float(np.max(np.abs(a_values - b_values)))
               if a_values.size else 0.0))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlasov-transport",
        description="kinetic/field transport scenarios and diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured scenario")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.set_defaults(fn=_cmd_run)

    p_maj = sub.add_parser("majorant", help="blow-up time of the majorant")
    p_maj.add_argument("--C", type=float, required=True,
                       help="data constant C >= 0")
    p_maj.add_argument("--cap", type=float, required=True,
                       help="threshold treated as blow-up")
    p_maj.add_argument("--ds", type=float, default=1e-3)
    p_maj.add_argument("--horizon", type=float, default=50.0)
    p_maj.set_defaults(fn=_cmd_majorant)

    defaults = RunConfig()
    p_tr = sub.add_parser("transform", help="frame-map a snapshot")
    p_tr.add_argument("--u", type=float, required=True,
                      help="frame parameter (u != -1)")
    p_tr.add_argument("--x-min", type=float, default=defaults.x_min)
    p_tr.add_argument("--x-max", type=float, default=defaults.x_max)
    p_tr.add_argument("--v-min", type=float, default=defaults.v_min)
    p_tr.add_argument("--v-max", type=float, default=defaults.v_max)
    p_tr.add_argument("infile")
    p_tr.add_argument("outfile")
    p_tr.set_defaults(fn=_cmd_transform)

    p_diff = sub.add_parser("diff", help="sup distance between snapshots")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    p_diff.set_defaults(fn=_cmd_diff)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _ENGINE_ABORTS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
