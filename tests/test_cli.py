"""Command-line interface: subcommands, overrides, exit codes."""

import dataclasses

import numpy as np
import pytest

import gpsol.cli as cli
import gpsol.harness
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


def test_run_reports_instability(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path)

    def boom(config):
        raise InstabilityError("field blew up", t_fail=0.5)

    monkeypatch.setattr(cli, "run_experiment", boom)
    assert cli.main(["run", "--config", str(cfg)]) == 3
    assert "t = 0.5" in capsys.readouterr().err


def test_run_reports_range_breakdown(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path)

    def escape(config):
        raise RangeError("soliton center left the tracked region")

    monkeypatch.setattr(cli, "run_experiment", escape)
    assert cli.main(["run", "--config", str(cfg)]) == 3


def _canned_record(config):
    times = np.array([0.0, 0.05, 0.1])
    stub = ExperimentConfig(mode="dark", A0=0.25, t_max=0.1,
                            sample_interval=100, tiers=("ode-full",))
    return RunRecord(config=stub, times=times,
                     centers={"ode-full": np.zeros(3)}, aux_pde=None,
                     aux_ode=None, conserved=None, deltas={})


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
])
def test_bad_override_values_exit_2(tmp_path, capsys, mode, flag, value):
    cfg = _write_config(tmp_path, MODE_CONFIG[mode])
    assert cli.main(["run", "--config", str(cfg), flag, value,
                     "--out", str(tmp_path / "x.csv")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
