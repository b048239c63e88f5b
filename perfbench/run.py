"""gpsol benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload dark-field --seed 1 --seconds 36 --trace 0

Each pass runs every config of the workload once, in a fresh
single-threaded interpreter (passrun.py), so that set-up time and peak
memory start cold.  Passes follow one another, one process at a time,
until --seconds have gone by; the last pass is always completed, so every
run attempts whole passes.  The last line of standard output is one JSON
object: correct, attempted, failed, and the medians over the passes of
the end-to-end metrics (--trace 0) or of the per-layer metrics
(--trace 1), with the names and units BENCHMARK.json lists.  No operation
is expected to fail, so `correct` is false as soon as one does, whether
it raised or its output failed a check.  Run it from the root of a
checkout that holds src/gpsol.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
PASS_TIMEOUT_S = 150.0

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                     "VECLIB_MAXIMUM_THREADS")}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def run_pass(workload: str, seed: int, trace: int, env: dict[str, str]) -> dict:
    """One pass in a fresh interpreter; its JSON result line, parsed."""
    spawn = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--spawn-time", repr(spawn)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"pass exited with code {proc.returncode} and no result")
    return json.loads(lines[-1])


def summarize(passes: list[dict], trace: int, bench: dict) -> dict:
    """The result object: operation counts over all passes, metric medians."""
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    table = bench["per_layer" if trace else "end_to_end"]
    source = (lambda p: p["layers"]) if trace else (lambda p: p)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": statistics.median([source(p)[m["name"]] for p in passes]),
                                "unit": m["unit"]}
                    for m in table},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gpsol" / "__init__.py").is_file():
        print(f"no gpsol sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    env = child_env()

    passes = []
    deadline = time.perf_counter() + args.seconds
    while True:
        result = run_pass(args.workload, args.seed, args.trace, env)
        passes.append(result)
        for message in result["errors"]:
            print(f"pass {len(passes)}: {message}", file=sys.stderr)
        if time.perf_counter() >= deadline:
            break

    summary = summarize(passes, args.trace, bench)
    for name, metric in summary["metrics"].items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"passes {len(passes)}, operations attempted {summary['attempted']}, "
          f"failed {summary['failed']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
