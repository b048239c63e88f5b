"""Command-line interface: subcommands, overrides, exit codes."""

import dataclasses

import numpy as np
import pytest

import gpsol.cli as cli
import gpsol.harness
import gpsol.pde_engine
import gpsol.validate
from gpsol.errors import InstabilityError, RangeError
from gpsol.harness import ExperimentConfig, RunRecord

ODE_ONLY_CONFIG = """
mode = dark
A0 = 0.25
t_max = 2.0
tiers = ode-full
"""


def _write_config(tmp_path, text=ODE_ONLY_CONFIG):
    path = tmp_path / "experiment.cfg"
    path.write_text(text)
    return path


def test_run_subcommand(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write_config(tmp_path)
    assert cli.main(["run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "wrote run.csv (21 rows)" in out
    header = (tmp_path / "run.csv").read_text().splitlines()[0]
    assert header.startswith("t,x0_pde,x0_ode_full")


def test_run_overrides(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out_path = tmp_path / "short.csv"
    rc = cli.main(["run", "--config", str(cfg),
                   "--t-max", "1.0", "--out", str(out_path)])
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 12  # header + 11 samples of the overridden span
    assert f"wrote {out_path} (11 rows)" in capsys.readouterr().out


def test_run_exit_codes(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    # missing config file -> I/O failure
    assert cli.main(["run", "--config", str(tmp_path / "absent.cfg")]) == 1
    # malformed key -> configuration failure
    bad = _write_config(tmp_path)
    assert cli.main(["run", "--config", str(bad), "--A0", "2.0"]) == 2
    # singular profile inside the domain -> its own code
    assert cli.main(["run", "--config", str(cfg), "--D", "-100"]) == 4
    err = capsys.readouterr().err
    assert "error:" in err
    # a file that is not UTF-8, and a (D + C x)^2 that overflows so that g
    # would be 0 and the conserved norm NaN -> configuration failures
    undecodable = tmp_path / "bad.cfg"
    undecodable.write_bytes(b"mode=dark\nt_max=1\xff\n")
    assert cli.main(["run", "--config", str(undecodable)]) == 2
    overflowing = ["--C", "1e200", "--D=-2e202", "--A0", "0.0", "--t-max", "0.1",
                   "--tiers", "pde,ode-full", "--sample-interval", "100",
                   "--n-points", "1025", "--out", str(tmp_path / "overflow.csv")]
    assert cli.main(["run", "--config", str(cfg)] + overflowing) == 2
    err = capsys.readouterr().err
    assert "is not UTF-8" in err and "positive and finite" in err
    assert not (tmp_path / "overflow.csv").exists()


@pytest.mark.parametrize("flags, code, message", [
    (["--x0-0", "-1e1"], 0, ""),
    (["--C", "1e200", "--D", "-2e202"], 2, "positive and finite"),
], ids=["x0-0", "C-D"])
def test_negative_exponent_values_are_flag_values(tmp_path, capsys, monkeypatch,
                                                  flags, code, message):
    # argparse's own pattern would take -1e1 and -2e202 for unknown options
    monkeypatch.chdir(tmp_path)
    cfg = _write_config(tmp_path)
    assert cli.main(["run", "--config", str(cfg)] + flags) == code
    err = capsys.readouterr().err
    assert message in err and "usage:" not in err


@pytest.mark.parametrize("flags", [
    ["--n-points", str(2 ** 58 + 1)],
    ["--t-max", "1e9", "--tiers", "pde,ode-full"],
], ids=["n_points-2**58+1", "t_max-1e9"])
def test_run_past_physical_memory_exits_2_before_running(tmp_path, capsys, monkeypatch,
                                                         flags):
    def must_not_run(config):
        raise AssertionError("a run past physical memory was started")

    monkeypatch.setattr(cli, "run_experiment", must_not_run)
    cfg = _write_config(tmp_path)
    assert cli.main(["run", "--config", str(cfg)] + flags) == 2
    assert "physical memory" in capsys.readouterr().err


FIELD_CONFIG = """
mode = dark
A0 = 0.25
t_max = 0.2
dt_pde = 2e-3
sample_interval = 50
x_min = -60
x_max = 60
n_points = 1025
tiers = pde
"""


def test_run_warns_once_when_the_field_norm_drifts(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path, FIELD_CONFIG)
    quiet, loud = tmp_path / "quiet.csv", tmp_path / "loud.csv"
    assert cli.main(["run", "--config", str(cfg), "--out", str(quiet)]) == 0
    assert "warning" not in capsys.readouterr().err
    monkeypatch.setattr(gpsol.pde_engine, "NORM_DRIFT_TOL", 0.0)
    records = []

    def kept(config):
        records.append(gpsol.harness.run_experiment(config))
        return records[-1]

    monkeypatch.setattr(cli, "run_experiment", kept)
    assert cli.main(["run", "--config", str(cfg), "--out", str(loud)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"warning: {loud}: ")
    # the line names the drift, read from its one owner, and the tolerance
    drift = gpsol.pde_engine.norm_drift(records[0].conserved)
    assert drift > 0.0
    assert err[0].endswith(f"drifted by {drift:.3e} relative, more than 0")
    assert loud.read_bytes() == quiet.read_bytes()


def test_scenario_warns_for_each_drifted_record(tmp_path, capsys, monkeypatch):
    def drifted(config):
        return dataclasses.replace(_canned_record(config), conserved=np.array([1.0, 1.0, 1.5]))

    monkeypatch.setattr(cli, "run_experiment", drifted)
    assert cli.main(["scenario", "dark-accel", "--out-dir", str(tmp_path)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all(line.startswith("warning: ") for line in err)
    assert all("drifted by 5.000e-01 relative" in line for line in err)


def test_run_rejects_over_bound_dt_pde_before_any_tier(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(gpsol.harness, "abm4_integrate", lambda *args: calls.append(args))
    cfg = _write_config(tmp_path, "mode = dark\nA0 = 0.5\nt_max = 10\n"
                                  "sample_interval = 100\n")
    rc = cli.main(["run", "--config", str(cfg), "--dt-pde", "4e-3",
                   "--tiers", "ode-full,pde", "--out", str(tmp_path / "run.csv")])
    assert rc == 2
    assert calls == []
    assert "stability bound" in capsys.readouterr().err
    assert not (tmp_path / "run.csv").exists()


def test_run_checks_its_output_path_before_any_tier(tmp_path, capsys, monkeypatch):
    # an output path open() would reject fails the run before the
    # experiment, not after it, and leaves no file behind
    def never(config):
        raise AssertionError("run_experiment called for an unwritable output path")

    monkeypatch.setattr(cli, "run_experiment", never)
    cfg = _write_config(tmp_path, "mode = dark\nA0 = 0.5\nt_max = 2\ntiers = pde,ode-full\n")
    missing = tmp_path / "absent" / "x.csv"
    for out, errno in ((missing, "[Errno 2]"), (tmp_path, "[Errno 21]")):
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and errno in err and str(out) in err
    assert not missing.parent.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["experiment.cfg"]


def test_run_reports_instability(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path)

    def boom(config):
        raise InstabilityError("field blew up", t_fail=0.5)

    monkeypatch.setattr(cli, "run_experiment", boom)
    assert cli.main(["run", "--config", str(cfg)]) == 3
    assert "t = 0.5" in capsys.readouterr().err


def test_run_names_the_failure_time_once(tmp_path, capsys):
    # a bright soliton far too narrow for 257 points blows up by the first sample
    cfg = _write_config(tmp_path, "mode = bright\neta0 = 50\nxi0 = 0\nn_points = 257\n"
                                  "tiers = pde\nt_max = 1\n")
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite state") and err.count("t = ") == 1


def test_run_reports_range_breakdown(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path)

    def escape(config):
        raise RangeError("soliton center left the tracked region")

    monkeypatch.setattr(cli, "run_experiment", escape)
    assert cli.main(["run", "--config", str(cfg)]) == 3


def _canned_record(config):
    times = np.array([0.0, 0.05, 0.1])
    return RunRecord(times=times, centers={"ode-full": np.zeros(3)}, aux_pde=None,
                     aux_ode=None, conserved=None)


def test_scenario_subcommand(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_experiment", _canned_record)
    out_dir = tmp_path / "sweep"
    assert cli.main(["scenario", "dark-accel", "--out-dir", str(out_dir)]) == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["dark-accel-0.csv", "dark-accel-1.csv", "dark-accel-2.csv"]
    out = capsys.readouterr().out
    assert out.count("wrote") == 3


def test_scenario_rejects_unknown_name(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["scenario", "dark-sprint"])
    assert info.value.code == 2


def test_validate_subcommand(monkeypatch):
    monkeypatch.setattr(gpsol.validate, "run_all", lambda: True)
    assert cli.main(["validate"]) == 0
    monkeypatch.setattr(gpsol.validate, "run_all", lambda: False)
    assert cli.main(["validate"]) == 3


def test_stepper_override_reaches_config(tmp_path, monkeypatch):
    seen = {}

    def capture(config):
        seen["config"] = config
        return _canned_record(config)

    monkeypatch.setattr(cli, "run_experiment", capture)
    cfg = _write_config(tmp_path)
    rc = cli.main(["run", "--config", str(cfg), "--stepper", "abm4",
                   "--tiers", "ode-full,eom", "--out", str(tmp_path / "x.csv")])
    assert rc == 0
    assert seen["config"].stepper == "abm4"
    assert seen["config"].tiers == ("ode-full", "eom")


BRIGHT_CONFIG = """
mode = bright
eta0 = 0.5
xi0 = 0.0
t_max = 2.0
tiers = ode-full
"""
MODE_CONFIG = {"dark": ODE_ONLY_CONFIG, "bright": BRIGHT_CONFIG}


# a valid override of every config key but mode, and the value it parses to
_OVERRIDES = {
    "t_max": ("1.0", 1.0), "C": ("0.5", 0.5), "D": ("-250", -250.0),
    "A0": ("0.5", 0.5), "x0_0": ("3.5", 3.5), "eta0": ("0.75", 0.75),
    "xi0": ("0.25", 0.25), "zeta0": ("-2.0", -2.0), "phi0": ("0.75", 0.75),
    "dt_pde": ("2.5e-4", 2.5e-4), "dt_ode": ("5e-4", 5e-4),
    "x_min": ("-160", -160.0), "x_max": ("160", 160.0), "n_points": ("2049", 2049),
    "stepper": ("abm4", "abm4"), "tiers": ("ode-full,eom", ("ode-full", "eom")),
    "sample_interval": ("400", 400), "out_path": ("elsewhere.csv", "elsewhere.csv"),
}


def _override_case(f):
    flag = "--out" if f.name == "out_path" else "--" + f.name.replace("_", "-")
    value, expected = _OVERRIDES[f.name]
    return (f.metadata.get("mode", "dark"), flag, value, f.name, expected)


@pytest.mark.parametrize("mode,flag,value,key,expected", [
    _override_case(f) for f in dataclasses.fields(ExperimentConfig) if f.name != "mode"])
def test_initial_state_and_cadence_overrides_reach_config(tmp_path, monkeypatch, mode,
                                                          flag, value, key, expected):
    # one case per config field: each key has its flag, in the mode it belongs to
    seen = {}

    def capture(config):
        seen["config"] = config
        return _canned_record(config)

    monkeypatch.setattr(cli, "run_experiment", capture)
    monkeypatch.chdir(tmp_path)
    cfg = _write_config(tmp_path, MODE_CONFIG[mode])
    assert cli.main(["run", "--config", str(cfg), "--out", "x.csv", flag, value]) == 0
    assert getattr(seen["config"], key) == expected


@pytest.mark.parametrize("mode,flag,value", [
    ("dark", "--x0-0", "-140"),       # inside the edge margin
    ("dark", "--x0-0", "left"),
    ("bright", "--zeta0", "nan"),
    ("dark", "--t-max", "inf"),
    ("dark", "--C", "nan"),
    ("bright", "--phi0", "abc"),
    ("dark", "--sample-interval", "0"),
    ("dark", "--sample-interval", "2.5"),
    ("dark", "--phi0", "0.1"),        # a bright key on a dark config
    ("dark", "--dt-pde", "1e-320"),   # t_max / dt_pde overflows
    # integers past a float's range
    pytest.param("dark", "--n-points", "1" + "0" * 400, id="dark---n-points-1e400"),
    pytest.param("dark", "--sample-interval", "1" + "0" * 400,
                 id="dark---sample-interval-1e400"),
    # below 2**63, but a complex row on the grid is past numpy's largest
    # array (the dark config runs ode-full only: with the pde tier the
    # stability bound would reject it first)
    pytest.param("dark", "--n-points", "4611686018427387905", id="dark---n-points-2**62+1"),
])
def test_bad_override_values_exit_2(tmp_path, capsys, mode, flag, value):
    cfg = _write_config(tmp_path, MODE_CONFIG[mode])
    assert cli.main(["run", "--config", str(cfg), flag, value,
                     "--out", str(tmp_path / "x.csv")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
