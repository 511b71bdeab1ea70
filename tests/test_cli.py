import json
import logging
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vlasov_transport import cli, solver
from vlasov_transport.cli import (_KEYS, ConfigError, RunConfig, load_config,
                                  main, parse_config, run_scenario)
from vlasov_transport.phase_space import DensityField
from vlasov_transport.snapshot import MAGIC, read_snapshot, write_snapshot

TINY_BOTH = """
nx = 33
nv = 33
dt = 0.03125
T = 0.25
engine = both
snapshot_times = 0.0, 0.25
"""

# zero density: transport only, every runtime check is satisfiable at
# this resolution (mass is identically zero)
TINY_CLEAN = """
nx = 33
nv = 33
dt = 0.03125
T = 0.25
engine = both
f0_family = zero
"""


def test_empty_config_is_all_defaults():
    assert parse_config("") == RunConfig()
    assert parse_config("# only a comment\n\n") == RunConfig()


def test_parse_overrides_and_aliases():
    cfg = parse_config("""
    # exercise every parser type
    nx = 129
    T = 1.0            # maps to t_final
    dt = 0.0078125
    engine = both
    interp_monotone = true
    majorant_C = 2.5
    snapshot_times = 0.0, 0.5
    f0_center_v = 2.0
    out_dir = results
    seed = 7
    """)
    assert cfg.nx == 129
    assert cfg.t_final == 1.0
    assert cfg.engine == "both"
    assert cfg.interp_monotone is True
    assert cfg.majorant_c == 2.5
    assert cfg.snapshot_times == (0.0, 0.5)
    assert cfg.f0_center_v == 2.0
    assert cfg.out_dir == "results"
    assert cfg.seed == 7
    assert cfg.n_steps == 128


@pytest.mark.parametrize("text,fragment", [
    ("wibble = 3", "line 1: unknown key 'wibble'"),
    ("nx = 9\nnv = 9\nnx = 17", "line 3: duplicate key 'nx' (first set on line 1)"),
    ("nx = many", "line 1: bad value for 'nx'"),
    ("just some words", "line 1: expected key = value"),
    ("interp_monotone = yes", "bad value for 'interp_monotone'"),
    ("x_min = 2\nx_max = -2", "strictly increasing"),
    ("x_min = -1e308\nx_max = 1e308", "grid spacing must be finite"),
    ("nx = 3", "at least 4"),
    ("dt = 0.3", "does not divide"),
    ("T = -1\ndt = -0.5", "must be positive"),
    ("engine = exact", "engine must be one of"),
    ("picard_tol = 0", "picard_tol must be positive"),
    ("picard_max_iter = 0", "picard_max_iter"),
    ("majorant_C = -1", "majorant_C must be nonnegative"),
    ("majorant_C = 2\nmajorant_cap = 1", "majorant_cap must exceed"),
    ("f0_family = ring", "unknown density family"),
    ("snapshot_times = 0.017", "not a level time"),
    ("snapshot_times = 0.25, 0.25",
     "snapshot time 0.25 repeats level 16 (first requested as 0.25)"),
    ("dt = 0.5\nT = 0.5", "residual diagnostics need at least two steps"),
])
def test_config_errors(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("text,fragment", [
    ("T = inf", "bad value for 'T': expected a finite number"),
    ("T = 1e400", "bad value for 'T': expected a finite number"),
    ("T = nan", "bad value for 'T': expected a finite number"),
    ("x_max = inf", "bad value for 'x_max': expected a finite number"),
    ("snapshot_times = 0, nan", "bad value for 'snapshot_times'"),
    # T / dt overflows to inf
    ("dt = 1e-320", "dt = 1e-320 does not divide T = 0.5"),
    # T / dt = 8, but the snapshot time over dt overflows
    ("T = 4e-323\ndt = 5e-324\nsnapshot_times = 1e-13",
     "snapshot time 1e-13 is not a level time"),
])
def test_main_run_rejects_non_finite_numbers(tmp_path, capsys, text,
                                             fragment):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text + f"\nout_dir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err


# Values that each parser meets: numbers of every size and sign, the
# non-finite spellings, the words the enum keys take, and free text.
config_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(["inf", "-inf", "nan", "1e400", "-1e400", "1e-320",
                     "5e-324", "0", "-0.0", "true", "false", "picard",
                     "direct", "both", "bump", "zero", "uniform",
                     "gaussian", ""]),
    st.lists(st.floats(allow_nan=True, allow_infinity=True),
             max_size=4).map(lambda ts: ", ".join(map(repr, ts))),
    st.text(st.characters(blacklist_characters="\n\r#"), max_size=12))
# Mostly known keys, each once, so that most documents get past the key
# checks to the value checks; free-text lines now and then.
config_documents = st.tuples(
    st.dictionaries(st.sampled_from(sorted(_KEYS)), config_values,
                    max_size=6),
    st.lists(st.text(max_size=12), max_size=1),
).map(lambda parts: "\n".join(
    [f"{key} = {value}" for key, value in parts[0].items()] + parts[1]))


@settings(max_examples=500, deadline=None)
@given(config_documents)
def test_parse_config_returns_a_config_or_raises_config_error(text):
    try:
        config = parse_config(text)
    except ConfigError:
        return
    assert isinstance(config, RunConfig)


# A value of each key's own type, mostly in range, so that most documents
# pass validation.
typed_values = {
    float: st.one_of(st.floats(-8.0, 8.0),
                     st.sampled_from([0.015625, 0.25, 1e-320, -0.0, 1e6])
                     ).map(repr),
    int: st.integers(-2, 200).map(str),
    bool: st.sampled_from(["true", "false", "TRUE", "False"]),
    str: st.one_of(st.sampled_from(["picard", "direct", "both", "bump",
                                    "zero", "gaussian", "uniform"]),
                   st.text(st.characters(blacklist_characters="\n\r#"),
                           max_size=8)),
    tuple: st.lists(st.integers(0, 40), max_size=4).map(
        lambda ks: ", ".join(repr(k * 0.015625) for k in ks)),
}
_DEFAULTS = RunConfig()
typed_documents = st.dictionaries(
    st.sampled_from(sorted(_KEYS)), st.none(), max_size=6).flatmap(
    lambda keys: st.fixed_dictionaries({
        key: typed_values[type(getattr(_DEFAULTS, _KEYS[key][0]))]
        for key in keys})).map(
    lambda values: "\n".join(f"{k} = {v}" for k, v in values.items()))


def _config_text(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ", ".join(map(repr, value))
    return repr(value) if isinstance(value, float) else str(value)


@settings(max_examples=300, deadline=None)
@given(st.one_of(typed_documents, config_documents))
def test_accepted_config_round_trips_through_every_key(text):
    try:
        config = parse_config(text)
    except ConfigError:
        return
    written = "\n".join(f"{key} = {_config_text(getattr(config, attr))}"
                        for key, (attr, _) in _KEYS.items())
    assert parse_config(written) == config


def test_config_keys_are_the_readme_table():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    documented = [name for line in readme.read_text().splitlines()
                  if line.startswith("| `")
                  for name in re.findall(r"`([^`]+)`", line.split("|")[1])]
    assert sorted(_KEYS) == sorted(documented)


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("nx = 65\n")
    assert load_config(path).nx == 65


def test_run_scenario_artifacts(tmp_path):
    cfg = parse_config(TINY_BOTH)
    art = run_scenario(cfg, out_dir=tmp_path)
    expected_checks = {
        "cross_engine_distance", "picard_converged",
        "picard_sup_preservation", "picard_mass_drift",
        "picard_support_bound", "picard_field_bound",
        "picard_field_derivative_bound",
        "direct_sup_preservation", "direct_mass_drift",
        "direct_support_bound", "direct_field_bound",
        "direct_field_derivative_bound",
    }
    assert set(art.checks) == expected_checks
    # the conservation tolerance is calibrated for fine grids; at this
    # resolution only the mass drift exceeds it
    failing = {k for k, v in art.checks.items() if not v["passed"]}
    assert failing == {"picard_mass_drift", "direct_mass_drift"}
    assert not art.ok

    names = sorted(p.name for p in art.files)
    assert names == sorted([
        "diagnostics.csv", "picard_trace.csv", "holder.csv",
        "residuals.csv", "majorant.csv", "summary.json",
        "snapshot_picard_f_level0.snap", "snapshot_picard_b_level0.snap",
        "snapshot_picard_f_level8.snap", "snapshot_picard_b_level8.snap",
        "snapshot_direct_f_level0.snap", "snapshot_direct_b_level0.snap",
        "snapshot_direct_f_level8.snap", "snapshot_direct_b_level8.snap",
    ])
    for path in art.files:
        assert path.exists()

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["ok"] is False
    assert summary["engines"] == ["direct", "picard"]
    assert summary["files"] == sorted(n for n in names if n != "summary.json")
    assert set(summary["checks"]) == expected_checks
    for entry in summary["checks"].values():
        assert set(entry) == {"passed", "measured", "threshold"}
    assert "majorant_blowup_time" in summary["info"]

    header = (tmp_path / "diagnostics.csv").read_text().splitlines()[0]
    assert header.startswith("engine,time,density_sup,field_sup")

    values, t_snap = read_snapshot(tmp_path / "snapshot_picard_f_level8.snap")
    assert values.shape == (33, 33)
    assert t_snap == 0.25


def test_direct_snapshot_headers_carry_k_dt(tmp_path):
    # at dt = 0.01 a running sum of dt would give level 50 the time
    # 0.5000000000000002; the header carries 50 * 0.01 = 0.5
    levels = (0, 6, 29, 50)
    cfg = parse_config(f"""
    nx = 33
    nv = 33
    dt = 0.01
    T = 0.5
    engine = direct
    snapshot_times = {", ".join(str(k * 0.01) for k in levels)}
    """)
    run_scenario(cfg, out_dir=tmp_path)
    for k in levels:
        for kind in ("f", "b"):
            _, t_snap = read_snapshot(
                tmp_path / f"snapshot_direct_{kind}_level{k}.snap")
            assert t_snap == k * 0.01, (kind, k)


# The header line of every CSV table a run can write.
CSV_HEADERS = {
    "diagnostics.csv": "engine,time,density_sup,field_sup,field_min,"
                       "field_max,mass,support_radius,support_inf,dxf_sup,"
                       "dvf_sup,dxb_sup",
    "picard_trace.csv": "iteration,field_diff,density_diff",
    "holder.csv": "engine,axis,offset,sup,quotient",
    "residuals.csv": "engine,density_residual,field_residual",
    "scenario.csv": "engine,field_min,max_support_drop",
    "majorant.csv": "t,F",
}

# sign-definite data that meet the scenario's hypotheses, so that every
# toggle below can be turned on for every engine
TINY_SIGN_DEFINITE = """
x_min = -2
x_max = 4
v_min = 0.5
v_max = 4
nx = 33
nv = 33
dt = 0.03125
T = 0.25
f0_center_v = 2.0
"""


@pytest.mark.parametrize("engine", ["picard", "direct", "both"])
@pytest.mark.parametrize("toggles,tables,snapshot_levels", [
    ("", {"holder.csv", "residuals.csv", "majorant.csv"}, ()),
    ("diag_holder = false", {"residuals.csv", "majorant.csv"}, ()),
    ("diag_residual = false", {"holder.csv", "majorant.csv"}, ()),
    ("diag_scenario = true",
     {"holder.csv", "residuals.csv", "scenario.csv", "majorant.csv"}, ()),
    ("majorant_C = 0", {"holder.csv", "residuals.csv"}, ()),
    ("snapshot_times = 0.0, 0.25",
     {"holder.csv", "residuals.csv", "majorant.csv"}, (0, 8)),
    ("diag_holder = false\ndiag_residual = false\nmajorant_C = 0", set(),
     ()),
])
def test_run_scenario_writes_exactly_the_enabled_artifacts(
        tmp_path, engine, toggles, tables, snapshot_levels):
    cfg = parse_config(TINY_SIGN_DEFINITE + f"engine = {engine}\n" + toggles)
    art = run_scenario(cfg, out_dir=tmp_path)
    engines = ["direct", "picard"] if engine == "both" else [engine]
    csvs = {"diagnostics.csv"} | tables
    if engine != "direct":
        csvs.add("picard_trace.csv")
    snapshots = {f"snapshot_{e}_{kind}_level{k}.snap" for e in engines
                 for kind in "fb" for k in snapshot_levels}
    expected = csvs | snapshots | {"summary.json"}
    names = [p.name for p in art.files]
    assert sorted(names) == sorted(expected)
    assert all(p.parent == tmp_path for p in art.files)
    assert {p.name for p in tmp_path.iterdir()} == expected
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["files"] == sorted(expected - {"summary.json"})
    for name in csvs:
        header, *rows = (tmp_path / name).read_text().splitlines()
        assert header == CSV_HEADERS[name], name
        assert rows, name
        if header.startswith("engine,"):
            assert sorted({row.split(",")[0] for row in rows}) == engines


def test_run_scenario_builds_full_lattices_for_f_snapshots_only(
        tmp_path, monkeypatch):
    # Every other reader of a density level places it into a window of
    # its own, so a full lattice is built once per f snapshot per engine.
    built = []
    full_lattice = DensityField.values

    def counted(level):
        built.append(level.time)
        return full_lattice.fget(level)

    monkeypatch.setattr(DensityField, "values", property(counted))
    cfg = parse_config(TINY_BOTH)
    run_scenario(cfg, out_dir=tmp_path)
    assert sorted(built) == sorted(2 * list(cfg.snapshot_times))


def test_run_scenario_clean_config_passes(tmp_path):
    cfg = parse_config(TINY_CLEAN)
    art = run_scenario(cfg, out_dir=tmp_path)
    assert art.ok
    assert all(v["passed"] for v in art.checks.values())


def test_run_scenario_is_byte_deterministic(tmp_path):
    cfg = parse_config(TINY_BOTH)
    a = tmp_path / "a"
    b = tmp_path / "b"
    art_a = run_scenario(cfg, out_dir=a)
    art_b = run_scenario(cfg, out_dir=b)
    names_a = sorted(p.name for p in art_a.files)
    assert names_a == sorted(p.name for p in art_b.files)
    for name in names_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_run_scenario_scenario_checks(tmp_path):
    cfg = parse_config("""
    x_min = -2
    x_max = 4
    v_min = 0.5
    v_max = 4
    nx = 33
    nv = 33
    dt = 0.03125
    T = 0.25
    engine = direct
    interp_monotone = true
    f0_center_v = 2.0
    diag_scenario = true
    """)
    art = run_scenario(cfg, out_dir=tmp_path)
    assert art.checks["direct_scenario"]["passed"]
    assert art.checks["direct_scenario_support"]["passed"]
    assert (tmp_path / "scenario.csv").exists()


def test_padding_advisory_fires_on_thin_margins(tmp_path, caplog):
    cfg = parse_config("""
    x_min = -1.6
    x_max = 1.6
    nx = 33
    nv = 33
    dt = 0.03125
    T = 0.5
    engine = direct
    diag_holder = false
    majorant_C = 0
    """)
    with caplog.at_level(logging.WARNING, logger="vlasov_transport.cli"):
        run_scenario(cfg, out_dir=tmp_path)
    assert any("grid margins" in rec.message for rec in caplog.records)
    # majorant disabled: no majorant.csv
    assert not (tmp_path / "majorant.csv").exists()


def test_main_run_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.cfg"
    clean.write_text(TINY_CLEAN + f"out_dir = {tmp_path / 'clean_out'}\n")
    assert main(["run", str(clean)]) == 0
    out = capsys.readouterr().out
    assert "picard_converged: PASS" in out
    assert "summary.json" in out

    failing = tmp_path / "failing.cfg"
    failing.write_text(TINY_BOTH + f"out_dir = {tmp_path / 'fail_out'}\n")
    assert main(["run", str(failing)]) == 1
    out = capsys.readouterr().out
    assert "direct_mass_drift: FAIL" in out

    bad = tmp_path / "bad.cfg"
    bad.write_text("engine = wrong\n")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")

    assert main(["run", str(tmp_path / "missing.cfg")]) == 2


@pytest.mark.parametrize("engine", ["picard", "direct", "both"])
def test_main_run_refuses_scenario_data_before_any_engine_runs(
        tmp_path, capsys, monkeypatch, engine):
    # the default data sit at v = 0, below the scenario's v > 1
    called = []

    def spy(name):
        def engine_ran(*args, **kwargs):
            called.append(name)
            raise AssertionError(f"{name} ran on data the scenario refuses")
        return engine_ran

    monkeypatch.setattr(cli, "solve_picard", spy("solve_picard"))
    monkeypatch.setattr(cli, "solve_direct", spy("solve_direct"))
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(f"engine = {engine}\nnx = 129\nnv = 129\n"
                   "dt = 0.0078125\nT = 1\ndiag_scenario = true\n"
                   f"out_dir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "error: initial velocity support must sit above 1 (found ")
    assert called == []
    assert not (tmp_path / "out").exists()


# a uniform pull of 2 turns the fast bump back beyond x = 1.2, so the
# trajectories that carry its mass back leave the short x-axis
DOMAIN_EXIT = ("x_min = -1.2\nx_max = 1.2\nb0_family = uniform\n"
               "b0_amplitude = -2\nf0_center_v = 1.8\nT = 2\n")


@pytest.mark.parametrize("engine", ["direct", "picard"])
def test_main_run_domain_exit_aborts_with_status_3(tmp_path, capsys,
                                                   engine):
    cfg = tmp_path / "exit.cfg"
    cfg.write_text(DOMAIN_EXIT + f"engine = {engine}\n"
                   f"out_dir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {engine} engine: profile query outside")
    # the abort leaves a record: the same message, and the time it hit
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["ok"] is False
    assert summary["aborted"] == err.strip()[len("error: "):]
    assert " at t = " in summary["aborted"]


@pytest.mark.skipif(not solver._forks(solver._FORK_LEVELS),
                    reason="sweeps stay in one process here")
def test_a_forked_domain_exit_aborts_as_the_in_process_one(tmp_path, capsys,
                                                          monkeypatch):
    # the first failing level in level order raises, whichever process
    # traced it, and the child is reaped
    cfg = tmp_path / "exit.cfg"
    cfg.write_text(DOMAIN_EXIT + f"engine = picard\n"
                   f"out_dir = {tmp_path / 'out'}\n")
    runs = []
    for levels in (10 ** 9, 2):
        monkeypatch.setattr(solver, "_FORK_LEVELS", levels)
        status = main(["run", str(cfg)])
        runs.append((status, capsys.readouterr(),
                     (tmp_path / "out" / "summary.json").read_text()))
    assert runs[0] == runs[1]
    assert runs[0][0] == 3
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Runs the CLI on a split 33^2 Picard solve whose forked child SIGKILLs
# itself in the first level it makes, after printing that level's number.
# Then prints whether a child is left, and exits with main's status.
DEAD_CHILD_RUN = """
import os, signal, sys
from vlasov_transport import cli, solver
solver._FORK_LEVELS = 2
parent, advect = os.getpid(), solver.advect_density


def advect_density(f0, grid, field, t, substeps):
    if os.getpid() != parent:
        print(round(t * 32), flush=True)
        os.kill(os.getpid(), signal.SIGKILL)
    return advect(f0, grid, field, t, substeps)


solver.advect_density = advect_density
status = cli.main(["run", sys.argv[1]])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
sys.exit(status)
"""


@pytest.mark.skipif(not solver._forks(solver._FORK_LEVELS),
                    reason="sweeps stay in one process here")
def test_a_dead_sweep_child_aborts_the_run_with_status_3(tmp_path):
    # In a fresh interpreter with a timeout, so a hang fails the test.
    cfg = tmp_path / "dead.cfg"
    cfg.write_text(TINY_BOTH.replace("both", "picard")
                   + f"out_dir = {tmp_path / 'out'}\n")
    package_root = Path(cli.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(package_root), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", DEAD_CHILD_RUN, str(cfg)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    taken, left = done.stdout.splitlines()
    message = ("picard engine: the forked process of the sweep ended "
               f"before level {int(taken)}")
    assert (done.returncode, done.stderr) == (3, f"error: {message}\n")
    assert left == "no child left"
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary == {"aborted": message, "ok": False}
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "summary.json"]


def test_main_run_outflow_through_an_x_edge(tmp_path, capsys):
    # a uniform push of 2 drives the fast bump out through x = 1.2 for
    # good.  No trajectory that can carry mass leaves the axis, so Picard
    # runs to the end and the mass-drift check reports the lost mass.
    text = ("x_min = -1.2\nx_max = 1.2\nb0_family = uniform\n"
            "b0_amplitude = 2\nf0_center_v = 1.5\nT = 2\n")
    picard = tmp_path / "picard.cfg"
    picard.write_text(text + f"engine = picard\nout_dir = {tmp_path / 'p'}\n")
    assert main(["run", str(picard)]) == 1
    assert "picard_mass_drift: FAIL" in capsys.readouterr().out
    summary = json.loads((tmp_path / "p" / "summary.json").read_text())
    assert summary["ok"] is False
    assert "aborted" not in summary
    # Direct traces every node whose stencil can read mass; one on the
    # edge x = 1.2 steps off it
    direct = tmp_path / "direct.cfg"
    direct.write_text(text + f"engine = direct\nout_dir = {tmp_path / 'd'}\n")
    assert main(["run", str(direct)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: direct engine: profile query outside")


def test_main_majorant_json(capsys):
    assert main(["majorant", "--C", "1.0", "--cap", "1e6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["C"] == 1.0
    assert payload["blowup_time"] == pytest.approx(1.0, abs=5e-3)

    assert main(["majorant", "--C", "0", "--cap", "1.0",
                 "--horizon", "2.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["blowup_time"] is None

    assert main(["majorant", "--C", "-1", "--cap", "1.0"]) == 2


@pytest.mark.parametrize("argv,fragment", [
    (["majorant", "--C", "1", "--cap", "10", "--horizon", "inf"],
     "majorant arguments must be finite"),
    (["majorant", "--C", "nan", "--cap", "10"],
     "majorant arguments must be finite"),
    # finite flags whose step count horizon / ds overflows
    (["majorant", "--C", "1", "--cap", "10", "--ds", "1e-320"],
     "step count horizon / ds = 50.0 / 1e-320 is not finite"),
    (["transform", "--u", "1", "--x-max", "inf", "{src}", "{out}"],
     "grid bounds must be finite"),
    # finite bounds whose span overflows
    (["transform", "--u", "0.5", "--x-min=-1e308", "--x-max=1e308", "{src}",
      "{out}"], "grid spacing must be finite"),
])
def test_main_rejects_non_finite_flags(tmp_path, capsys, argv, fragment):
    src = tmp_path / "b.snap"
    out = tmp_path / "out.snap"
    write_snapshot(src, np.sin(np.linspace(-3.0, 3.0, 65)), 0.0)
    argv = [a.format(src=src, out=out) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert not out.exists()


def test_main_transform_identity_and_mirror(tmp_path, capsys):
    x = np.linspace(-3.0, 3.0, 65)
    values = np.sin(x + 0.3)
    src = tmp_path / "field.snap"
    write_snapshot(src, values, 0.0)

    same = tmp_path / "same.snap"
    assert main(["transform", "--u", "0", str(src), str(same)]) == 0
    assert same.read_bytes() == src.read_bytes()

    # u = -2 at t = 0 maps the profile to -B(-x); on a symmetric grid the
    # queries are exact mirror nodes
    mirrored = tmp_path / "mirrored.snap"
    assert main(["transform", "--u", "-2", str(src), str(mirrored)]) == 0
    got, t = read_snapshot(mirrored)
    assert t == 0.0
    np.testing.assert_allclose(got, -values[::-1], atol=1e-15)

    # a density snapshot at u = -2 maps to -f(-x, 2 - v); on the default
    # grid the rectangle's queries are again exact mirror nodes
    v = np.linspace(-2.5, 2.5, 65)
    density = np.exp(-(x[:, None] - 0.4) ** 2 - (v[None, :] + 0.7) ** 2)
    fsrc = tmp_path / "density.snap"
    write_snapshot(fsrc, density, 0.0)
    fmirrored = tmp_path / "density_mirrored.snap"
    assert main(["transform", "--u", "-2", str(fsrc), str(fmirrored)]) == 0
    got, t = read_snapshot(fmirrored)
    assert t == 0.0
    np.testing.assert_allclose(got, -density[::-1, ::-1], atol=1e-15)

    assert main(["transform", "--u", "-1", str(src),
                 str(tmp_path / "x.snap")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_main_diff(tmp_path, capsys):
    a = tmp_path / "a.snap"
    b = tmp_path / "b.snap"
    c = tmp_path / "c.snap"
    values = np.arange(12.0).reshape(3, 4)
    write_snapshot(a, values, 0.0)
    write_snapshot(b, values + 0.25, 0.0)
    write_snapshot(c, np.zeros((2, 2)), 0.0)

    assert main(["diff", str(a), str(a)]) == 0
    assert capsys.readouterr().out.strip() == "0.0"
    assert main(["diff", str(a), str(b)]) == 0
    assert capsys.readouterr().out.strip() == "0.25"
    assert main(["diff", str(a), str(c)]) == 2
    assert "shapes differ" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["diff", "transform"])
def test_main_rejects_an_oversized_snapshot_header(tmp_path, capsys, command):
    # a 32-byte file whose header claims (2^32 - 1)^2 values is bad input
    bad = tmp_path / "bad.snap"
    bad.write_bytes(MAGIC + struct.pack("<IId", 2 ** 32 - 1, 2 ** 32 - 1, 0.0))
    args = {"diff": [str(bad), str(bad)],
            "transform": ["--u", "1", str(bad), str(tmp_path / "out.snap")]}
    assert main([command, *args[command]]) == 2
    assert "truncated snapshot payload" in capsys.readouterr().err
