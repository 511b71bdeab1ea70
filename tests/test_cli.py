import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vlasov_transport import cli
from vlasov_transport.cli import (_KEYS, ConfigError, RunConfig, load_config,
                                  main, parse_config, run_scenario)
from vlasov_transport.snapshot import read_snapshot, write_snapshot

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


@pytest.mark.parametrize("engine", ["direct", "picard"])
def test_main_run_domain_exit_aborts_with_status_3(tmp_path, capsys,
                                                   engine):
    # a uniform pull of 2 turns the fast bump back beyond x = 1.2, so the
    # trajectories that carry its mass back leave the short x-axis
    cfg = tmp_path / "exit.cfg"
    cfg.write_text("x_min = -1.2\nx_max = 1.2\nb0_family = uniform\n"
                   "b0_amplitude = -2\nf0_center_v = 1.8\nT = 2\n"
                   f"engine = {engine}\nout_dir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {engine} engine: profile query outside")
    # the abort leaves a record: the same message, and the time it hit
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["ok"] is False
    assert summary["aborted"] == err.strip()[len("error: "):]
    assert " at t = " in summary["aborted"]


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
