"""One benchmark pass in a fresh interpreter.

    python3 perfbench/passrun.py --workload NAME --seed N --trace 0|1 --spawn-time T

Sets gpsol up, runs every config of the workload through run_experiment
and write_csv (the timed pass), reads the peak resident memory, and then
checks every output.  With --trace 1 the pass runs under the span
recorder and its layer metrics are reported instead.  Prints one JSON
line.  run.py launches it with src/ and perfbench/ on PYTHONPATH and
--spawn-time set to its perf_counter() just before the launch, so that
setup_s counts interpreter start-up too (perf_counter is the system-wide
monotonic clock on Linux).

An operation fails when run_experiment or write_csv raises, or when its
output fails a check; `failed` counts both kinds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"


def replay_setup(first) -> None:
    """The set-up run_experiment does before its first time step, for the first config.

    Every run builds the grid and the profile; only a run with the pde
    tier builds an EvolutionProblem and the initial field.
    """
    from gpsol import bright_soliton, dark_soliton
    from gpsol.grid_field import build_grid
    from gpsol.inhomogeneity import make_inverse_square
    from gpsol.pde_engine import EvolutionProblem

    grid = build_grid(first.x_min, first.x_max, first.n_points)
    profile = make_inverse_square(first.C, first.D, grid)
    if "pde" not in first.tiers:
        return
    if first.mode == "dark":
        EvolutionProblem("transformed-dark-rotated", profile, grid)
        dark_soliton.ansatz(dark_soliton.DarkSolitonParams(A=first.A0, x0=first.x0_0), grid)
    else:
        EvolutionProblem("transformed-bright", profile, grid)
        bright_soliton.ansatz(bright_soliton.BrightSolitonParams(
            eta=first.eta0, xi=first.xi0, zeta=first.zeta0, phi=first.phi0), grid)


def run_configs(configs, paths) -> tuple[list, float]:
    """The timed pass: run_experiment + write_csv per config, and its wall time.

    Each outcome is the run's record, or the message of what it raised.
    """
    from gpsol import harness

    outcomes = []
    t0 = time.perf_counter()
    for cfg, path in zip(configs, paths):
        try:
            record = harness.run_experiment(cfg)
            harness.write_csv(record, path)
        except Exception as exc:  # an operation that fails is counted, not fatal
            outcomes.append(f"{type(exc).__name__}: {exc}")
            continue
        outcomes.append(record)
    return outcomes, time.perf_counter() - t0


def failures(configs, outcomes, paths) -> list[str]:
    """One message for every operation that raised or whose output fails a check."""
    import checks

    errors = []
    for cfg, outcome, path in zip(configs, outcomes, paths):
        if isinstance(outcome, str):
            errors.append(outcome)
            continue
        try:
            problems = checks.check(cfg, outcome, path)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            errors.append("; ".join(problems))
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-time", type=float, required=True)
    args = parser.parse_args(argv)

    # set-up: everything a user pays before the first time step
    import gpsol  # noqa: F401
    from gpsol import harness

    import workloads

    configs = [harness.ExperimentConfig(**kw) for kw in workloads.draw(args.workload, args.seed)]
    replay_setup(configs[0])
    setup_s = time.perf_counter() - args.spawn_time

    recorder = None
    if args.trace:
        import spans
        recorder = spans.Recorder()
        spans.install(recorder)

    paths = [str(OUT_DIR / f"{args.workload}-{i}.csv") for i in range(len(configs))]
    outcomes, run_s = run_configs(configs, paths)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    result = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb}
    if recorder is not None:
        csv_bytes = sum(os.path.getsize(p) for p, o in zip(paths, outcomes)
                        if not isinstance(o, str))
        result["layers"] = spans.layer_metrics(recorder.names, *recorder.arrays(),
                                               recorder.counters, run_s, csv_bytes)
        recorder.save(str(OUT_DIR / f"spans-{args.workload}.npz"))

    errors = failures(configs, outcomes, paths)
    result.update(attempted=len(configs), failed=len(errors), errors=errors)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
