"""Steadiness of the benchmark: repeated runs, quartiles, and two sets compared.

    python3 perfbench/steady.py --runs 10 --sets 2

Runs every workload of BENCHMARK.json --runs times per set, each run with
its own seed and the run length BENCHMARK.json fixes, in alternating order (forward on even rounds, backward on odd ones), one
run.py process at a time.  For every workload and end-to-end metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the
spread, that is the interquartile distance as a share of the median, next
to the bound in BENCHMARK.json.  Each later set is compared with the first: the change of
its median in the worse direction, and whether the share of failed
operations is the same.  The raw figures go to perfbench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, interquartile distance / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worsening(first: float, later: float, better: str) -> float:
    """How much worse `later` is than `first`, as a share of `first`; negative when better."""
    if first == 0:
        return 0.0
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]

    # results[set][workload] -> list of run results
    results: list[dict[str, list[dict]]] = []
    for s in range(args.sets):
        runs: dict[str, list[dict]] = {w: [] for w in workloads}
        for i in range(args.runs):
            order = workloads if (i + s) % 2 == 0 else workloads[::-1]
            for w in order:
                seed = 1000 * s + i + 1
                runs[w].append(one_run(w, seed, bench["run_seconds"]))
                print(f"set {s + 1} run {i + 1} {w} seed {seed} done", file=sys.stderr)
        results.append(runs)

    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(results, indent=1))

    ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':34s} {'set':>3s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
              f"{'spread':>7s} {'bound':>6s} {'worse':>7s}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first_med = None
            for s, runs in enumerate(results):
                values = [r["metrics"][name]["value"] for r in runs[w]]
                med, q1, q3, spr = spread(values)
                worse = ""
                if first_med is None:
                    first_med = med
                else:
                    change = worsening(first_med, med, m["better"])
                    worse = f"{100 * change:+6.2f}%"
                    if change > bound:
                        ok = False
                if spr > bound:
                    ok = False
                flag = " !" if spr > bound / 3 else ""
                print(f"  {name:34s} {s + 1:3d} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                      f"{100 * spr:6.2f}% {100 * bound:5.1f}% {worse:>7s}{flag}")
        shares = []
        for runs in results:
            attempted = sum(r["attempted"] for r in runs[w])
            failed = sum(r["failed"] for r in runs[w])
            shares.append((failed, attempted))
            ok = ok and all(r["correct"] for r in runs[w])
        same = len({f / a for f, a in shares}) == 1
        ok = ok and same
        print("  failed/attempted per set: "
              + ", ".join(f"{f}/{a}" for f, a in shares) + ("" if same else "  (differ)"))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
