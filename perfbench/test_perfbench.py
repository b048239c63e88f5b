"""Tests of the benchmark's own arithmetic, metric names and checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import passrun  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds [1, 3] and [4, 8]; the latter holds [5, 6]
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0.0, 1.0, 4.0, 5.0])
    end = np.array([10.0, 3.0, 8.0, 6.0])
    assert spans.self_times(parent, start, end).tolist() == [4.0, 2.0, 3.0, 1.0]


def test_recorder_links_nested_calls_to_their_caller():
    rec = spans.Recorder()

    def leaf(x):
        return x + 1

    traced_leaf = rec.wrap("m.leaf", leaf)

    def middle(x):
        return traced_leaf(x) + traced_leaf(x)

    traced_middle = rec.wrap("m.middle", middle)
    outer = rec.wrap("m.outer", lambda x: traced_middle(x) * 2)
    assert outer(1) == 8
    assert outer(2) == 12
    name_of, parent, start, end = rec.arrays()
    names = [rec.names[i] for i in name_of]
    assert names == ["m.outer", "m.middle", "m.leaf", "m.leaf"] * 2
    assert parent.tolist() == [-1, 0, 1, 1, -1, 4, 5, 5]
    assert np.all(end >= start)
    for i, p in enumerate(parent):
        if p >= 0:
            assert start[p] <= start[i] and end[i] <= end[p]
    own = spans.self_times(parent, start, end)
    roots = parent < 0
    assert np.sum(own) == pytest.approx(np.sum((end - start)[roots]))


def test_recorder_closes_a_span_when_the_call_raises():
    rec = spans.Recorder()

    def boom():
        raise ValueError("x")

    traced = rec.wrap("m.boom", boom)
    with pytest.raises(ValueError):
        traced()
    after = rec.wrap("m.after", lambda: None)
    after()
    _, parent, start, end = rec.arrays()
    assert parent.tolist() == [-1, -1]
    assert end[0] >= start[0]


def test_layer_metrics_arithmetic():
    names = ["harness.run_experiment", "pde_engine.evolve", "pde_engine.rk4_step",
             "grid_field.simpson", "harness.write_csv"]
    # run_experiment [0, 12] > evolve [1, 11] > rk4 [2, 4], [5, 7] and simpson [8, 9];
    # write_csv [12, 13]; the pass took 13.5 s of wall time
    name_of = np.array([0, 1, 2, 2, 3, 4])
    parent = np.array([-1, 0, 1, 1, 1, -1])
    start = np.array([0.0, 1.0, 2.0, 5.0, 8.0, 12.0])
    end = np.array([12.0, 11.0, 4.0, 7.0, 9.0, 13.0])
    counters = {"pde_steps": 4, "pde_samples": 3, "pde_trajectory_mb": 0.5}
    out = spans.layer_metrics(names, name_of, parent, start, end, counters, 13.5, 100)
    assert set(out) == set(PER_LAYER)
    assert out["pde_engine.evolve_s"] == pytest.approx(5.0 + 4.0)
    assert out["pde_engine.step_us"] == pytest.approx(9.0 / 4 * 1e6)
    assert out["pde_engine.rk4_step_us"] == pytest.approx(2e6)
    assert out["grid_field.simpson_calls"] == 1
    assert out["grid_field.simpson_s"] == pytest.approx(1.0)
    assert out["harness.self_s"] == pytest.approx(2.0)
    assert out["harness.write_csv_s"] == pytest.approx(1.0)
    assert out["layer_s.harness"] == pytest.approx(3.0)
    assert out["layer_s.pde_engine"] == pytest.approx(9.0)
    assert out["ode_engine.self_us_per_step"] == 0.0
    assert sum(out[f"layer_s.{m}"] for m in spans.MODULES) == pytest.approx(13.0)
    assert out["trace.coverage"] == pytest.approx(100.0 * 13.0 / 13.5)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert BENCH["paths"] == [HERE.name]


def test_printed_metrics_are_the_medians_benchmark_json_lists():
    names = list(PER_LAYER)
    layers = [dict.fromkeys(names, 1.0), dict.fromkeys(names, 3.0), dict.fromkeys(names, 2.0)]
    passes = [{"run_s": 4.0 + i, "setup_s": 0.2, "peak_rss_mb": 30.0, "layers": layers[i],
               "attempted": 2, "failed": 0} for i in range(3)]
    e2e = run.summarize(passes, 0, BENCH)
    assert {k: v["unit"] for k, v in e2e["metrics"].items()} == END_TO_END
    assert e2e["metrics"]["run_s"]["value"] == 5.0
    assert (e2e["correct"], e2e["attempted"], e2e["failed"]) == (True, 6, 0)
    traced = run.summarize(passes, 1, BENCH)
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == PER_LAYER
    assert {v["value"] for v in traced["metrics"].values()} == {2.0}
    passes[1]["failed"] = 1
    assert run.summarize(passes, 0, BENCH)["correct"] is False


def test_draw_is_fixed_by_the_seed_and_stays_in_range():
    for name in workloads.WORKLOADS:
        first = workloads.draw(name, 7)
        assert first == workloads.draw(name, 7)
        assert first != workloads.draw(name, 8)
        for kw in first:
            start = kw["x0_0"] if kw["mode"] == "dark" else kw["zeta0"]
            assert workloads.START_RANGE[0] <= start <= workloads.START_RANGE[1]
    with pytest.raises(ValueError):
        workloads.draw("no-such-workload", 1)


def test_every_seed_asks_for_the_same_work():
    keys = ("mode", "t_max", "tiers", "stepper", "sample_interval")
    for name in workloads.WORKLOADS:
        shapes = {tuple(tuple(kw.get(k) for k in keys) for kw in workloads.draw(name, seed))
                  for seed in range(20)}
        assert len(shapes) == 1


@pytest.fixture(scope="module")
def small_dark_run(tmp_path_factory):
    from gpsol.harness import ExperimentConfig, run_experiment, write_csv

    cfg = ExperimentConfig(mode="dark", A0=0.0, x0_0=1.0, t_max=0.2,
                           tiers=("ode-full", "ode-taylor", "eom", "eom-a"))
    rec = run_experiment(cfg)
    path = tmp_path_factory.mktemp("csv") / "run.csv"
    write_csv(rec, str(path))
    return cfg, rec, str(path)


def test_checks_pass_on_program_output(small_dark_run):
    import checks

    cfg, rec, path = small_dark_run
    assert checks.check(cfg, rec, path) == []


def test_checks_catch_a_wrong_center_and_a_wrong_csv(small_dark_run, tmp_path):
    import checks

    cfg, rec, path = small_dark_run
    rec.centers["eom"] = rec.centers["eom"] + 1e-5
    try:
        assert any("eom center" in p for p in checks.check_models(cfg, rec))
    finally:
        rec.centers["eom"] = rec.centers["eom"] - 1e-5
    lines = Path(path).read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = "1.0"  # x0_pde of a run without the pde tier must stay empty
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([lines[0], lines[1], ",".join(cells)] + lines[3:]) + "\n")
    assert any("absent tier" in p for p in checks.check_csv(cfg, rec, str(bad)))


def test_install_traces_gpsol_calls_under_their_callers(tmp_path):
    from gpsol import harness
    from gpsol.harness import ExperimentConfig

    rec = spans.Recorder()
    restore = spans.install(rec)
    try:
        cfg = ExperimentConfig(mode="dark", A0=0.0, x0_0=1.0, t_max=0.1,
                               tiers=("pde", "ode-full"))
        harness.write_csv(harness.run_experiment(cfg), str(tmp_path / "run.csv"))
    finally:
        restore()
    assert harness.run_experiment.__module__ == "gpsol.harness"
    name_of, parent, start, end = rec.arrays()
    names = [rec.names[i] for i in name_of]
    callers = {(names[i], names[p] if p >= 0 else None) for i, p in enumerate(parent)}
    assert {("harness.run_experiment", None), ("harness.write_csv", None),
            ("ode_engine.abm4_integrate", "harness.run_experiment"),
            ("harness.ode_rhs", "ode_engine.abm4_integrate"),
            ("dark_soliton.rhs_full", "harness.ode_rhs"),
            ("inhomogeneity.advection_coef", "dark_soliton.rhs_full"),
            ("grid_field.simpson", "dark_soliton.rhs_full"),
            ("pde_engine.evolve", "harness.run_experiment"),
            ("pde_engine.rk4_step", "pde_engine.evolve"),
            ("grid_field.simpson", "pde_engine.evolve"),
            ("dark_soliton.extract_center", "harness.run_experiment")} <= callers
    assert rec.counters["pde_steps"] == 200
    assert rec.counters["ode_steps"] == 100
    out = spans.layer_metrics(rec.names, name_of, parent, start, end, rec.counters,
                              float(np.sum((end - start)[parent < 0])), 1)
    assert out["pde_engine.steps"] == 200 and out["pde_engine.samples"] == 2
    assert out["trace.coverage"] == pytest.approx(100.0)


def test_a_config_that_raises_is_a_failed_operation(small_dark_run, tmp_path):
    from gpsol.harness import ExperimentConfig

    good, _, _ = small_dark_run
    # dt_pde above the stability bound: run_experiment raises before any output
    unstable = ExperimentConfig(mode="dark", A0=0.0, x0_0=1.0, t_max=0.2, dt_pde=4e-3,
                                sample_interval=25, tiers=("pde",))
    configs = [unstable, good]
    paths = [str(tmp_path / f"{i}.csv") for i in range(2)]
    outcomes, run_s = passrun.run_configs(configs, paths)
    assert isinstance(outcomes[0], str) and "ConfigurationError" in outcomes[0]
    assert run_s > 0
    errors = passrun.failures(configs, outcomes, paths)
    assert errors == [outcomes[0]]
