"""Experiment configs, tier assembly, CSV serialization."""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

from gpsol import bright_soliton as bright
from gpsol import cli, dark_soliton as dark, harness, pde_engine
from gpsol.errors import ConfigurationError, RangeError, SingularityError
from gpsol.harness import (
    CSV_HEADER,
    SCENARIOS,
    ExperimentConfig,
    RunRecord,
    config_from_mapping,
    parse_config,
    run_experiment,
    scenario,
    write_csv,
)
from gpsol.grid_field import build_grid, density, simpson
from gpsol.ode_engine import OdeSystem, abm4_integrate, step_count

GOLDEN_CONFIG = """
# dark soliton comparison run
mode = dark
A0   = 0.25          # initial depth parameter
t_max = 2.0
tiers = pde, ode-full
out_path = result.csv
"""


def test_parse_config_golden():
    cfg = parse_config(GOLDEN_CONFIG)
    assert cfg.mode == "dark"
    assert cfg.A0 == 0.25
    assert cfg.x0_0 == 0.0
    assert cfg.t_max == 2.0
    assert cfg.tiers == ("pde", "ode-full")
    assert cfg.out_path == "result.csv"
    # defaults fill the rest
    assert (cfg.C, cfg.D) == (1.0, -200.0)
    assert (cfg.x_min, cfg.x_max, cfg.n_points) == (-150.0, 150.0, 4097)
    assert cfg.dt_pde == 5e-4
    assert cfg.dt_ode == 1e-3
    assert cfg.stepper == "rk4"
    assert cfg.sample_interval == 200


def test_sampling_properties():
    cfg = ExperimentConfig(mode="dark", A0=0.0, t_max=100.0)
    assert cfg.sample_step == pytest.approx(0.1, rel=1e-12)
    assert cfg.n_samples == 1001


@pytest.mark.parametrize("text,message", [
    ("mode = dark\nmode = bright\nt_max=1\nA0=0", "duplicate"),
    ("mode: dark", "key=value"),
    ("= 3", "empty key"),
])
def test_parse_pairs_errors(text, message):
    with pytest.raises(ConfigurationError, match=message):
        parse_config(text)


@pytest.mark.parametrize("pairs", [
    {"t_max": "1", "A0": "0"},                                # no mode
    {"mode": "grey", "t_max": "1"},                           # unknown mode
    {"mode": "dark", "A0": "0"},                              # no t_max
    {"mode": "dark", "t_max": "1"},                           # dark needs A0
    {"mode": "dark", "t_max": "1", "A0": "1.0"},              # |A0| < 1
    {"mode": "dark", "t_max": "1", "A0": "0", "eta0": "0.5"},  # wrong-mode key
    {"mode": "bright", "t_max": "1", "xi0": "0"},             # bright needs eta0
    {"mode": "bright", "t_max": "1", "eta0": "0.5"},          # and xi0
    {"mode": "bright", "t_max": "1", "eta0": "-1", "xi0": "0"},
    {"mode": "bright", "t_max": "1", "eta0": "0.5", "xi0": "0", "A0": "0"},
    {"mode": "dark", "t_max": "1", "A0": "0", "tiers": "pde,warp"},
    {"mode": "dark", "t_max": "1", "A0": "0", "tiers": ""},
    {"mode": "dark", "t_max": "1", "A0": "0", "tiers": "pde,pde"},
    {"mode": "bright", "t_max": "1", "eta0": "0.5", "xi0": "0",
     "tiers": "eom-a"},                                       # dark-only tier
    {"mode": "dark", "t_max": "1", "A0": "0", "stepper": "verlet"},
    {"mode": "dark", "t_max": "1", "A0": "0", "n_points": "4096"},  # even grid
    {"mode": "dark", "t_max": "1", "A0": "0", "x0_0": "-140"},  # edge margin
    {"mode": "dark", "t_max": "1", "A0": "0", "t_max2": "1"},  # unknown key
    {"mode": "dark", "t_max": "0", "A0": "0"},
    {"mode": "dark", "t_max": "1", "A0": "0", "dt_pde": "0.37"},  # over bound
    {"mode": "dark", "t_max": "1", "A0": "0", "sample_interval": "3000"},
    {"mode": "dark", "t_max": "1", "A0": "0", "dt_ode": "0.03"},  # stride
    {"mode": "dark", "t_max": "1", "A0": "0", "dt_pde": "abc"},
    {"mode": "dark", "t_max": "1", "A0": "0", "n_points": "many"},
    {"mode": "dark", "t_max": "1", "A0": "0", "n_points": "1" + "0" * 400},
    {"mode": "dark", "t_max": "1", "A0": "0", "sample_interval": "1" + "0" * 400},
])
def test_config_rejections(pairs):
    with pytest.raises(ConfigurationError):
        config_from_mapping(pairs)


@pytest.mark.parametrize("kwargs", [
    dict(mode="dark", A0=0.0, zeta0=7.0),
    dict(mode="dark", A0=0.0, phi0=2.0),
    dict(mode="bright", eta0=0.5, xi0=0.0, x0_0=5.0),
], ids=["dark-zeta0", "dark-phi0", "bright-x0_0"])
def test_python_config_rejects_other_mode_keys(kwargs):
    # built in Python, a key of the other mode is rejected as in a file
    with pytest.raises(ConfigurationError, match="is not a key of mode"):
        ExperimentConfig(t_max=1.0, **kwargs)


_FLOAT_FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig) if "float" in str(f.type)]


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"),
                                   # an int that math.isfinite would overflow on
                                   pytest.param(10 ** 400, id="10**400")])
@pytest.mark.parametrize("name", _FLOAT_FIELDS)
def test_config_rejects_non_finite_floats(name, value):
    # rejected on construction, whatever the mode, not as a traceback or
    # a misleading error in the middle of a run
    with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
        ExperimentConfig(**{"mode": "dark", "A0": 0.0, "t_max": 1.0, name: value})


@pytest.mark.parametrize("name, value", [
    ("sample_interval", 2.5), ("n_points", 1025.5), ("n_points", True),
    ("C", "1"), ("t_max", "0.1"), ("dt_ode", False),
    # past a float's range: math.isfinite would overflow on it
    pytest.param("n_points", 10 ** 400, id="n_points-10**400"),
    pytest.param("sample_interval", 10 ** 400, id="sample_interval-10**400"),
    # a number where text belongs
    ("tiers", 5), ("out_path", 5),
])
def test_config_rejects_wrong_number_types(name, value):
    # without the check each was accepted, and then either ran on a value
    # the config does not report or ended in a TypeError
    kwargs = {"mode": "dark", "A0": 0.0, "t_max": 0.05, "n_points": 1025,
              "sample_interval": 20, "tiers": ("pde", "eom"), name: value}
    with pytest.raises(ConfigurationError, match=f"{name} must be an? "):
        ExperimentConfig(**kwargs)


def test_config_accepts_numpy_numbers():
    cfg = ExperimentConfig(mode="dark", A0=np.float64(0.0), t_max=np.float64(0.05),
                           n_points=np.int64(1025), sample_interval=np.int64(20))
    assert (cfg.n_points, cfg.n_samples) == (1025, 6)


def test_singularity_inside_domain_is_special():
    with pytest.raises(SingularityError):
        config_from_mapping({"mode": "dark", "t_max": "1", "A0": "0", "D": "-100"})


def test_scenario_presets():
    assert SCENARIOS == ("bright-accel", "bright-compare", "dark-accel",
                         "dark-compare")
    dark_accel = scenario("dark-accel")
    assert [c.A0 for c in dark_accel] == [0.0, 0.25, 0.5]
    assert all(c.t_max == 100.0 for c in dark_accel)
    assert all(c.tiers == ("pde", "ode-full") for c in dark_accel)

    compare = scenario("dark-compare")
    assert [c.A0 for c in compare] == [0.0, 0.5]
    assert all(c.tiers == ("pde", "ode-full", "eom", "eom-a") for c in compare)

    bright_accel = scenario("bright-accel")
    assert [c.xi0 for c in bright_accel] == [0.0, 0.25, 0.5]
    assert all(c.t_max == 50.0 for c in bright_accel)

    bright_compare = scenario("bright-compare")
    assert [c.xi0 for c in bright_compare] == [0.0, 0.5]
    assert all(c.tiers == ("pde", "ode-full", "eom") for c in bright_compare)
    # every other key keeps its default, but bright's fixed amplitude
    for configs in (dark_accel, compare, bright_accel, bright_compare):
        for c in configs:
            assert (c.eta0 == 0.5) == (c.mode == "bright")
            assert (c.x0_0, c.zeta0, c.phi0) == (0.0, 0.0, 0.0)
            assert (c.n_points, c.dt_pde, c.stepper) == (4097, 5e-4, "rk4")

    with pytest.raises(ConfigurationError):
        scenario("dark-sprint")


def _tiny_record():
    times = np.array([0.0, 0.05, 0.1])
    centers = {"ode-full": np.array([0.0, 0.0125, 0.025])}
    aux = np.array([0.25, 0.2499, 0.2498])
    return RunRecord(times=times, centers=centers,
                     aux_pde=None, aux_ode=aux, conserved=None)


def test_write_csv_golden(tmp_path):
    path = tmp_path / "tiny.csv"
    write_csv(_tiny_record(), str(path))
    expected = (
        CSV_HEADER + "\n"
        "0.00000000000e+00,,0.00000000000e+00,,,,,2.50000000000e-01,,,,\n"
        "5.00000000000e-02,,1.25000000000e-02,,,,,2.49900000000e-01,,,,\n"
        "1.00000000000e-01,,2.50000000000e-02,,,,,2.49800000000e-01,,,,\n"
    )
    assert path.read_text() == expected


def test_write_csv_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(_tiny_record(), str(a))
    write_csv(_tiny_record(), str(b))
    assert a.read_bytes() == b.read_bytes()


def _full_record(n_rows):
    # every one of the twelve columns filled
    times = np.linspace(0.0, 100.0, n_rows)
    centers = {tier: times * (k + 1) for k, tier in
               enumerate(("pde", "ode-full", "ode-taylor", "eom", "eom-a"))}
    return RunRecord(times=times, centers=centers, aux_pde=times + 0.5, aux_ode=times + 0.25,
                     conserved=times + 2.0)


def test_write_csv_memory_does_not_grow_with_rows(tmp_path):
    peaks = []
    for n_rows in (10_001, 40_001):
        record = _full_record(n_rows)
        path = tmp_path / f"{n_rows}.csv"
        tracemalloc.start()
        try:
            write_csv(record, str(path))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        lines = path.read_text().splitlines()
        assert len(lines) == n_rows + 1 and "" not in lines[-1].split(",")
    assert peaks[1] - peaks[0] < 1e6


def test_record_length_validation():
    times = np.array([0.0, 0.05, 0.1])
    with pytest.raises(ConfigurationError):
        RunRecord(times=times, centers={"ode-full": np.zeros(2)}, aux_pde=None,
                  aux_ode=None, conserved=None)
    with pytest.raises(ConfigurationError):
        RunRecord(times=times, centers={}, aux_pde=np.zeros(5),
                  aux_ode=None, conserved=None)


def test_record_derives_its_deltas_and_drift_flag(monkeypatch):
    times = np.array([0.0, 0.1])
    centers = {"pde": np.array([0.0, 1.0]), "ode-full": np.array([0.1, 1.5]),
               "ode-taylor": np.array([0.3, 0.7]), "eom": np.array([-0.2, 0.9])}
    rec = RunRecord(times=times, centers=centers, aux_pde=None, aux_ode=None,
                    conserved=np.array([1.0, 1.5]))
    # bitwise each delta-column tier's center minus the pde's; ode-taylor has no column
    assert list(rec.deltas) == ["ode-full", "eom"]
    for tier, series in rec.deltas.items():
        assert np.array_equal(series, centers[tier] - centers["pde"])
    assert rec.norm_drift_warning is True  # a 50% drift
    steady = RunRecord(times=times, centers=centers, aux_pde=None, aux_ode=None,
                       conserved=np.array([1.0, 1.0 + 1e-7]))
    assert steady.norm_drift_warning is False
    # the tolerance is read at each call
    monkeypatch.setattr(pde_engine, "NORM_DRIFT_TOL", 0.0)
    assert steady.norm_drift_warning is True
    reduced = RunRecord(times=times, centers={"ode-full": centers["ode-full"]},
                        aux_pde=None, aux_ode=None, conserved=None)
    assert reduced.deltas == {} and reduced.norm_drift_warning is None
    # neither can be supplied, so none can disagree with the series
    for supplied in ({"deltas": {"ode-full": np.array([7.0, 7.0])}},
                     {"norm_drift_warning": False}):
        with pytest.raises(TypeError):
            RunRecord(times=times, centers=centers, aux_pde=None, aux_ode=None,
                      conserved=np.array([1.0, 1.5]), **supplied)


def test_ode_only_run():
    cfg = ExperimentConfig(mode="dark", A0=0.25, t_max=2.0,
                           tiers=("ode-full", "ode-taylor", "eom", "eom-a"))
    rec = run_experiment(cfg)
    assert "pde" not in rec.centers
    assert rec.deltas == {}
    assert rec.aux_pde is None
    assert rec.conserved is None
    assert rec.times.shape == (21,)
    assert rec.times[-1] == pytest.approx(2.0, rel=1e-12)
    # all four tiers track x0 ~= A0 t for this short span
    for name, series in rec.centers.items():
        assert series[0] == 0.0
        assert series[-1] == pytest.approx(0.5, abs=1e-2), name
    # amplitude decays toward the negative half-plane force
    assert rec.aux_ode is not None
    assert rec.aux_ode[0] == 0.25
    assert rec.aux_ode[-1] < 0.25


def test_over_bound_dt_pde_fails_before_any_tier(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "abm4_integrate", lambda *args: calls.append(args))
    cfg = ExperimentConfig(mode="dark", A0=0.5, t_max=10.0, dt_pde=4e-3,
                           sample_interval=100, tiers=("ode-full", "pde"))
    with pytest.raises(ConfigurationError, match="stability bound"):
        run_experiment(cfg)
    assert calls == []


def test_full_run_small_grid(tmp_path):
    cfg = ExperimentConfig(mode="dark", A0=0.25, t_max=1.0, dt_pde=5e-3,
                           dt_ode=1e-3, x_min=-60.0, x_max=60.0, n_points=1025,
                           sample_interval=40,
                           tiers=("pde", "ode-full", "ode-taylor", "eom", "eom-a"))
    rec = run_experiment(cfg)
    assert set(rec.centers) == {"pde", "ode-full", "ode-taylor", "eom", "eom-a"}
    assert set(rec.deltas) == {"ode-full", "eom", "eom-a"}
    assert rec.times.shape == (6,)
    # all tiers agree tightly over one time unit
    for name, series in rec.deltas.items():
        assert np.max(np.abs(series)) < 5e-3, name
    # conserved quantity and minimum-density amplitude proxy
    drift = np.max(np.abs(rec.conserved - rec.conserved[0])) / rec.conserved[0]
    assert drift < 1e-6
    assert rec.aux_pde[0] == pytest.approx(0.25, abs=1e-3)

    path = tmp_path / "run.csv"
    write_csv(rec, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 7
    cells = lines[-1].split(",")
    assert float(cells[0]) == pytest.approx(1.0, rel=1e-12)
    assert float(cells[1]) == pytest.approx(rec.centers["pde"][-1], abs=1e-10)
    assert cells[3] != ""  # ode-taylor column populated
    assert float(cells[8]) == pytest.approx(rec.conserved[-1], rel=1e-10)


def test_bright_ode_run_lab_axis():
    cfg = ExperimentConfig(mode="bright", eta0=0.5, xi0=0.25, t_max=2.0,
                           tiers=("ode-full", "ode-taylor", "eom"))
    rec = run_experiment(cfg)
    assert rec.times[-1] == pytest.approx(2.0, rel=1e-12)
    # lab velocity is -2 xi: the center reaches about -2 xi t
    for name in ("ode-full", "ode-taylor", "eom"):
        assert rec.centers[name][-1] == pytest.approx(-1.0, abs=2e-2), name
    assert rec.aux_ode[0] == 0.5


@pytest.mark.parametrize("mode,tiers", [
    ("dark", ("ode-full", "ode-taylor", "eom", "eom-a")),
    ("bright", ("ode-full", "ode-taylor", "eom")),
])
def test_stacked_tiers_equal_tiers_alone(mode, tiers):
    # the tiers of one time frame march as one stacked system; each must
    # keep the trajectory it has when it runs alone
    if mode == "dark":
        base = dict(mode="dark", A0=0.5, x0_0=2.0, t_max=1.0)
    else:
        base = dict(mode="bright", eta0=0.5, xi0=0.25, zeta0=2.0, t_max=1.0)
    together = run_experiment(ExperimentConfig(tiers=tiers, **base))
    assert set(together.centers) == set(tiers)
    for tier in tiers:
        alone = run_experiment(ExperimentConfig(tiers=(tier,), **base))
        assert np.array_equal(together.centers[tier], alone.centers[tier]), tier
        if tier == "ode-full":
            assert np.array_equal(together.aux_ode, alone.aux_ode)
        elif tier == "ode-taylor":
            without_full = run_experiment(
                ExperimentConfig(tiers=tuple(t for t in tiers if t != "ode-full"), **base))
            assert np.array_equal(without_full.aux_ode, alone.aux_ode)
        else:
            assert alone.aux_ode is None


def test_bright_eom_reads_the_taylor_march():
    # on g = 1/(D + C x)^2 the Taylor parameter ODEs are the Newtonian center
    # equation: eom reads the ode-taylor march, which tracks a lab-time march
    # of bright.eom_rhs at 2 dt_ode
    cfg = ExperimentConfig(mode="bright", eta0=0.5, xi0=0.25, zeta0=2.0, t_max=2.0,
                           tiers=("ode-taylor", "eom"))
    rec = run_experiment(cfg)
    assert np.array_equal(rec.centers["eom"], rec.centers["ode-taylor"])

    def lab_rhs(y):
        return np.array([y[1], bright.eom_rhs(y[0], cfg.eta0, cfg.zeta0, cfg.C, cfg.D)])

    lab = abm4_integrate(OdeSystem(2, lab_rhs), np.array([cfg.zeta0, -2.0 * cfg.xi0]),
                         cfg.t_max, 2.0 * cfg.dt_ode)
    stride = step_count(cfg.sample_step, 2.0 * cfg.dt_ode)
    assert lab.times[::stride] == pytest.approx(rec.times, rel=1e-12, abs=1e-15)
    assert np.max(np.abs(rec.centers["eom"] - lab.states[::stride, 0])) < 1e-12
    assert rec.centers["eom"][-1] != rec.centers["eom"][0]


@pytest.mark.parametrize("mode", ["dark", "bright"])
def test_one_ode_march_per_run(mode, monkeypatch):
    calls = []
    real_abm4 = harness.abm4_integrate

    def counting(*args):
        calls.append(args)
        return real_abm4(*args)

    monkeypatch.setattr(harness, "abm4_integrate", counting)
    if mode == "dark":
        cfg = ExperimentConfig(mode="dark", A0=0.5, t_max=1.0,
                               tiers=("ode-full", "ode-taylor", "eom", "eom-a"))
    else:
        cfg = ExperimentConfig(mode="bright", eta0=0.5, xi0=0.25, t_max=1.0,
                               tiers=("ode-full", "ode-taylor", "eom"))
    rec = run_experiment(cfg)
    assert len(calls) == 1
    assert set(rec.centers) == set(cfg.tiers)
    # one state per model: ode-taylor and eom share the Taylor model's
    assert calls[0][0].dimension == 6


@pytest.mark.parametrize("kwargs", [dict(t_max=1.0, dt_pde=1e-320),
                                    dict(t_max=1e300, dt_pde=1e-10)])
def test_overflowing_step_count_is_a_configuration_error(kwargs):
    with pytest.raises(ConfigurationError, match="overflows"):
        ExperimentConfig(mode="dark", A0=0.0, **kwargs)


@pytest.mark.parametrize("kwargs", [
    # the grid's x row alone would be 2 EiB
    dict(A0=0.0, t_max=0.2, tiers=("ode-full",), n_points=2 ** 58 + 1),
    # a 1e10-row time axis and a 1e12-row ODE trajectory
    dict(A0=0.0, t_max=1e9),
], ids=["n_points-2**58+1", "t_max-1e9"])
def test_config_rejects_a_run_past_physical_memory(kwargs):
    # rejected from a size estimate on construction, before any allocation
    with pytest.raises(ConfigurationError, match="physical memory"):
        ExperimentConfig(mode="dark", **kwargs)


def test_memory_bound_counts_a_shared_model_once(monkeypatch):
    # 1e6 ODE steps: the one march that ode-taylor and eom share keeps 3
    # words a step (A, x0 and the time), 25 MB in all, under this host's
    # 32 MiB; two models, or a state per tier, would keep 41 MB
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 8192}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    base = dict(mode="dark", A0=0.5, t_max=1000.0)
    ExperimentConfig(tiers=("ode-taylor", "eom"), **base)
    with pytest.raises(ConfigurationError, match="physical memory"):
        ExperimentConfig(tiers=("ode-full", "ode-taylor"), **base)


@pytest.mark.parametrize("missing", ["sysconf", "SC_PHYS_PAGES"])
def test_config_runs_where_the_host_reports_no_physical_memory(monkeypatch, missing):
    # os.sysconf is Unix-only, and a Unix may not know SC_PHYS_PAGES; such a
    # host skips the physical-memory bound and keeps every other check
    if missing == "sysconf":
        monkeypatch.delattr(os, "sysconf")
    else:
        def sysconf(name, real=os.sysconf):
            if name == "SC_PHYS_PAGES":
                raise ValueError("unrecognized configuration name")
            return real(name)
        monkeypatch.setattr(os, "sysconf", sysconf)
    cfg = ExperimentConfig(mode="dark", A0=0.0, t_max=0.1, tiers=("ode-full",))
    rec = run_experiment(cfg)
    assert rec.centers["ode-full"].shape == rec.times.shape == (cfg.n_samples,)
    with pytest.raises(ConfigurationError, match="PDE steps"):
        ExperimentConfig(mode="dark", A0=0.0, t_max=0.1, sample_interval=7,
                         tiers=("ode-full",))


def test_edge_crossing_raises_before_the_march_ends(monkeypatch):
    # a fast dark soliton starting 1 from the tracked region's edge leaves
    # it near t = 1.1; the run must stop there, not after all 160 steps
    steps = []
    real_step = pde_engine.rk4_step

    def counting_step(rhs_into, u, dt, work):
        steps.append(dt)
        real_step(rhs_into, u, dt, work)

    monkeypatch.setattr(pde_engine, "rk4_step", counting_step)
    cfg = ExperimentConfig(mode="dark", A0=0.9, x0_0=9.0, t_max=5.0, dt_pde=0.03125,
                           x_min=-40.0, x_max=40.0, n_points=257, sample_interval=8,
                           tiers=("pde",))
    with pytest.raises(RangeError, match="grid edge"):
        run_experiment(cfg)
    assert 0 < len(steps) < 160
    assert len(steps) % cfg.sample_interval == 0


def test_particle_tiers_stop_at_the_profile_edge(tmp_path, capsys):
    # the particle tiers stop where the center leaves the profile, here the
    # grid [-150, 150]: eom reads the ode-taylor march, which checks it, and
    # eom-a, which reads no profile, checks it itself; unchecked, a bright
    # eom crossed x = 150 near t = 55.7 and the singularity at x = 200 after it
    bright_run = ExperimentConfig(mode="bright", eta0=0.5, xi0=-1.0, t_max=150.0,
                                  tiers=("eom",))
    with pytest.raises(RangeError, match=r"center 150\.0\d* outside profile validity"):
        run_experiment(bright_run)
    # and these dark ones ended at x0 = -284.05 (eom) and -373.73 (eom-a)
    # off the grid
    cfg = tmp_path / "eom.cfg"
    cfg.write_text("mode = dark\nA0 = -0.9\nt_max = 300\ndt_ode = 1e-2\n")
    for tier in ("eom", "eom-a"):
        out = tmp_path / f"{tier}.csv"
        assert cli.main(["run", "--config", str(cfg), "--tiers", tier, "--out", str(out)]) == 3
        assert "center -150.0" in capsys.readouterr().err
        assert not out.exists()


def test_run_keeps_the_norm_drift_flag():
    # 257 points on [-40, 40] at the RK4 bound 0.4 dx^2: the norm drifts by ~1e-3
    coarse = ExperimentConfig(mode="dark", A0=0.25, t_max=62.5, dt_pde=0.0390625,
                              x_min=-40.0, x_max=40.0, n_points=257, sample_interval=64,
                              tiers=("pde",))
    assert run_experiment(coarse).norm_drift_warning is True
    default = ExperimentConfig(mode="dark", A0=0.25, t_max=0.5, tiers=("pde",))
    assert run_experiment(default).norm_drift_warning is False
    reduced = ExperimentConfig(mode="dark", A0=0.25, t_max=0.5, tiers=("ode-full",))
    assert run_experiment(reduced).norm_drift_warning is None


@pytest.mark.parametrize("mode", ["dark", "bright"])
def test_first_field_sample_is_the_mode_reader_on_the_ansatz(mode):
    # sample 0 is the mode's extractor and amplitude applied to the ansatz
    # density: dark's squared-dip centroid against the far probe and
    # sqrt(min |u|^2), bright's centroid and a quarter of the mass
    small = dict(t_max=0.5, dt_pde=0.05, x_min=-50.0, x_max=50.0, n_points=257,
                 sample_interval=5, tiers=("pde",))
    if mode == "dark":
        # the dip sits on a grid point, 10 dx right of the origin
        cfg = ExperimentConfig(mode="dark", A0=0.3, x0_0=3.90625, **small)
        grid = build_grid(cfg.x_min, cfg.x_max, cfg.n_points)
        dens = density(dark.ansatz(dark.DarkSolitonParams(A=0.3, x0=3.90625), grid).values)
        want = (dark.extract_center(dens, grid, dark.default_background_probe(grid, 3.90625)),
                np.sqrt(np.min(dens)))
    else:
        cfg = ExperimentConfig(mode="bright", eta0=0.5, xi0=0.25, zeta0=-3.0, phi0=0.5,
                               **small)
        grid = build_grid(cfg.x_min, cfg.x_max, cfg.n_points)
        dens = density(bright.ansatz(bright.BrightSolitonParams(0.5, 0.25, -3.0, 0.5),
                                     grid).values)
        want = (bright.extract_center(dens, grid, np.empty(grid.n_points)),
                0.25 * simpson(dens, grid.dx))
    rec = run_experiment(cfg)
    assert set(rec.centers) == {"pde"} and rec.times.shape == (3,)
    assert (rec.centers["pde"][0], rec.aux_pde[0]) == want
    # and the reader measures the start: a coarse grid's quadrature is off by ~1e-4
    assert want == pytest.approx((3.90625, 0.3) if mode == "dark" else (-3.0, 0.5), abs=1e-3)


@pytest.mark.parametrize("mode", ["dark", "bright"])
def test_field_sample_allocates_no_grid_row(mode, monkeypatch):
    # evolve's density and norm and the harness's center and amplitude of
    # one sample, on the default grid: what they allocate is window-length
    # rows (dark) and views, never a grid-length row
    peaks = []
    real_march = pde_engine.march

    def measured_march(step, rhs_into, u, t0, dt, n_steps, every, on_sample):
        def sample(j, u):
            tracemalloc.start()
            try:
                on_sample(j, u)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        real_march(step, rhs_into, u, t0, dt, n_steps, every, sample)

    monkeypatch.setattr(pde_engine, "march", measured_march)
    if mode == "dark":
        cfg = ExperimentConfig(mode="dark", A0=0.5, t_max=0.3, tiers=("pde",))
    else:
        cfg = ExperimentConfig(mode="bright", eta0=0.5, xi0=0.25, t_max=0.3,
                               tiers=("pde",))
    rec = run_experiment(cfg)
    assert len(peaks) == 3 and np.all(np.isfinite(rec.centers["pde"]))
    # the first sample may fill simpson's weight cache for a window length
    assert max(peaks[1:]) < cfg.n_points * np.dtype(np.float64).itemsize


def test_field_memory_does_not_grow_with_t_max():
    # 50 samples at t_max = 10 and 200 at t_max = 40; stored snapshots
    # would add 150 of them to the peak
    def peak(t_max):
        cfg = ExperimentConfig(mode="dark", A0=0.0, t_max=t_max, dt_pde=0.025,
                               n_points=1025, sample_interval=8, tiers=("pde",))
        tracemalloc.start()
        try:
            run_experiment(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(0.2)  # warm the import-time and first-call allocations
    snapshot_bytes = 1025 * np.dtype(np.complex128).itemsize
    assert peak(40.0) - peak(10.0) < snapshot_bytes
