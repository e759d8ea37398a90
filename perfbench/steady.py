"""Steadiness check: two sets of benchmark runs, compared within bounds.

Usage (from the repository root)::

    python3 perfbench/steady.py                  # 2 sets x 10 runs each
    python3 perfbench/steady.py --runs 5 --workloads paper-compare

Each run is ``perfbench/run.py`` in its own process with its own
``--seed``.  For every workload and end-to-end metric the command prints
each set's median and quartiles and the spread (quartile distance over
median), then whether the sets agree with ``BENCHMARK.json``:

* every spread is within the metric's bound;
* the second set's median is not worse than the first's by more than
  the bound;
* the share of failed operations is exactly the same in every run;
* every run was correct.

It then makes two traced runs per workload on the first seed and
requires their ``count`` metrics to be identical.  The report, with each
run's environment record (nproc, load average, Python and numpy
versions, git sha), is written to ``perfbench/out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: per-run limit; a first run may be slower than the rest, never this slow
RUN_TIMEOUT_S = 900
SETS = 2
TRACE_RUNS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark process; its result object plus its ``env`` record."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    env = next((json.loads(line[4:]) for line in lines
                if line.startswith("env ")), None)
    result.update(workload=workload, seed=seed, trace=trace, env=env,
                  wall_s=time.perf_counter() - start)
    return result


def summarize(values: List[float]) -> dict:
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return {"median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / mid if mid else float("inf")}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per set and workload (at least 2)")
    parser.add_argument("--seed", type=int, default=1,
                        help="first seed; every run gets the next one")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs needs at least 2 runs for quartiles")

    runs: List[dict] = []
    seed = args.seed
    for set_index in range(SETS):
        for _ in range(args.runs):
            for workload in args.workloads:
                result = run_once(workload, seed, args.seconds, 0)
                result["set"] = set_index
                runs.append(result)
                print(f"set {set_index} {workload:<15} seed {seed:<4} "
                      f"{result['wall_s']:6.1f} s  " + "  ".join(
                          f"{k}={v['value']:.4g}"
                          for k, v in result["metrics"].items()),
                      flush=True)
            seed += 1

    ok = True
    table = []
    for workload in args.workloads:
        mine = [r for r in runs if r["workload"] == workload]
        shares = {r["failed"] / r["attempted"] for r in mine}
        if len(shares) != 1 or not all(r["correct"] for r in mine):
            ok = False
            print(f"{workload}: failed shares {sorted(shares)}, correct="
                  f"{[r['correct'] for r in mine]}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [summarize([r["metrics"][name]["value"] for r in mine
                                  if r["set"] == s])
                       for s in range(SETS)]
            spread_ok = all(s["spread"] <= bound for s in per_set)
            drift = worse_by(per_set[0]["median"], per_set[1]["median"],
                             metric["better"])
            agree = spread_ok and drift <= bound
            ok &= agree
            tight = all(s["spread"] < bound / 3 for s in per_set)
            table.append({"workload": workload, "metric": name,
                          "bound": bound, "sets": per_set,
                          "worse_by": drift, "agree": agree})
            sets = "  ".join(
                f"[{s['q1']:.4g} {s['median']:.4g} {s['q3']:.4g}] "
                f"spread {100 * s['spread']:.1f}%" for s in per_set)
            print(f"{workload:<15} {name:<12} {sets}  worse by "
                  f"{100 * drift:+.1f}% (bound {100 * bound:.0f}%)  "
                  f"{'agree' if agree else 'DISAGREE'}"
                  f"{'' if tight else ' (spread above bound/3)'}")

    traced = []
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in args.workloads:
        results = [run_once(workload, args.seed, args.seconds, 1)
                   for _ in range(TRACE_RUNS)]
        traced.extend(results)
        missing = [n for n in units if n not in results[0]["metrics"]]
        differ = [n for n in units if units[n] == "count" and len(
            {r["metrics"][n]["value"] for r in results}) > 1]
        good = not missing and not differ and all(
            r["correct"] for r in results)
        ok &= good
        overhead = [r["metrics"]["trace.overhead_pct"]["value"]
                    for r in results]
        print(f"traced {workload:<15} {len(results)} runs: counts "
              f"{'identical' if not differ else 'DIFFER ' + str(differ)}"
              f"{'' if not missing else ', missing ' + str(missing)}"
              f"{'' if all(r['correct'] for r in results) else ', INCORRECT'}"
              "; tracing overhead "
              + ", ".join(f"{o:+.1f}%" for o in overhead), flush=True)

    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(path, "w") as handle:
        json.dump({"args": vars(args), "agree": ok, "table": table,
                   "runs": runs, "traced": traced}, handle, indent=1)
    print(f"{'AGREE' if ok else 'DISAGREE'}; report in "
          f"{os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
