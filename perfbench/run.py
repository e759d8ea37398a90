"""Benchmark of the DiTile-DGNN reproduction: one run of one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stream-growing --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` times the workload's public entry point untraced and prints
the end-to-end metrics; ``--trace 1`` runs it once untraced and once with
timing wrappers around the layer functions (see ``tracing.py``), writes
the spans and a per-layer table under ``perfbench/out/``, and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the metric names and units are read from ``BENCHMARK.json``.  The
program is imported from ``src/`` next to this directory; without it the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from statistics import median
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
#: set-ups per gated run, spread over the measured window; ``setup_s`` is
#: their median
SETUP_REPS = 4


def metric_units(kind: str) -> Dict[str, str]:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` metrics in
    ``BENCHMARK.json``, the one list of the benchmark's metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def environment() -> dict:
    """What the run's figures depend on besides the code."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_sha": sha,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_gated(workload, seconds: float) -> Dict[str, float]:
    """Set up, make one warm-up call, then call the entry point until
    ``seconds`` have passed, setting up again at each further
    ``1/SETUP_REPS`` of that window; report medians.

    The set-ups are spread over the window, not made back to back, so
    ``setup_s`` samples the host over the same stretch of time as
    ``call_s``: on a shared 2-vCPU host, speed drifted by up to a third
    over tens of seconds, and back-to-back set-ups at the start of a run
    spread 2-3 times as much between runs as the calls did.  The warm-up call is
    checked and counted like the others but not timed: a process's
    first call pays one-off costs (first-touch memory, lazily built
    module state) that made it 5-20% slower than later calls.  Peak RSS
    is read right after it (the memory to set up and run the entry point
    once) because RSS keeps creeping with each later call by amounts
    that depend on thread timing.
    """
    def timed_setup(final: bool) -> None:
        start = time.perf_counter()
        workload.setup(final=final)
        setups.append(time.perf_counter() - start)

    setups: List[float] = []
    timed_setup(final=True)
    workload.call()
    rss = peak_rss_mb()
    walls: List[float] = []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < seconds:
        walls.append(workload.call())
        elapsed = time.perf_counter() - started
        if (len(setups) < SETUP_REPS
                and elapsed >= seconds * len(setups) / SETUP_REPS):
            timed_setup(final=False)
    while len(setups) < SETUP_REPS:
        timed_setup(final=False)
    workload.describe(walls)
    workload.info.append(
        f"{workload.name}: setup_s median of {SETUP_REPS}: "
        f"{' '.join(f'{s:.3f}' for s in setups)} s; peak_rss_mb={rss:.1f} "
        "after the warm-up call")
    workload.finish()
    return {"call_s": median(walls), "setup_s": median(setups),
            "peak_rss_mb": rss}


def run_traced(workload, seed: int, names) -> Dict[str, float]:
    """One traced run: spans, a per-layer table and the per-layer metrics."""
    from tracing import Tracer, format_table

    tracer = Tracer()
    with tracer.installed():
        tracer.phase = "setup"
        workload.setup(final=True)
        tracer.phase = "idle"
    workload.call()  # warm-up, as in the gated run
    context = workload.traced(tracer)
    metrics = layer_metrics(tracer, context, names)
    table = tracer.layer_table("call", context["traced_s"])
    text = format_table(table)
    base = os.path.join(OUT, f"trace-{workload.name}-seed{seed}")
    tracer.write(base + ".json", {"workload": workload.name, "seed": seed,
                                  "layers": table, "metrics": metrics})
    with open(base + ".txt", "w") as handle:
        handle.write(text + "\n")
    print(text)
    print(f"spans: {len(tracer.spans)} written to "
          f"{os.path.relpath(base, ROOT)}.json; tracing overhead "
          f"{100 * (context['traced_s'] / context['untraced_s'] - 1):+.1f}% "
          f"({context['traced_s']:.3f} s traced vs "
          f"{context['untraced_s']:.3f} s untraced)")
    return metrics


def layer_metrics(tracer, context: dict, names) -> Dict[str, float]:
    """The per-layer metrics ``names``, 0 where the workload does not
    reach the layer; times from the traced call, program counters from
    the untraced one."""
    from workloads import DATASETS, MODELS

    def spans(name, phase="call"):
        return tracer.select(name, phase)

    def total(name, phase="call"):
        return sum(s[2] - s[1] for s in spans(name, phase))

    def by_tag(name, phase="call"):
        out: Dict[str, float] = {}
        for s in spans(name, phase):
            out[str(s[5])] = out.get(str(s[5]), 0.0) + s[2] - s[1]
        return out

    m: Dict[str, float] = {}
    stats = context.get("stats")
    if stats is not None and stats.elapsed_s > 0:
        m["serve.events_per_s"] = stats.events / stats.elapsed_s
        m["serve.windows_per_s"] = stats.windows / stats.elapsed_s
        m["serve.events_per_window"] = stats.events / max(stats.windows, 1)

    # serving.ingest: time inside the window generator, less the WAL
    # appends it makes on the durable path (durability's own cost).
    wal_under: Dict[int, float] = {}
    ingest: List[Tuple[int, float]] = []
    for index, s in enumerate(tracer.spans):
        if s[6] != "call":
            continue
        if s[0] == "wal.append" and s[3] >= 0:
            wal_under[s[3]] = wal_under.get(s[3], 0.0) + s[2] - s[1]
        elif s[0] == "ingest.window":
            ingest.append((index, s[2] - s[1]))
    busy = {index: dur - wal_under.get(index, 0.0) for index, dur in ingest}
    windows = tracer.windows.get("call", [])
    events = sum(n or 0 for _, n, _ in windows)
    m["ingest.busy_s"] = sum(busy.values())
    if events:
        m["ingest.us_per_event"] = 1e6 * m["ingest.busy_s"] / events
    per_window = [(busy[index], n) for (index, _), (_, n, _) in
                  zip(ingest, windows) if n]
    quarter = len(per_window) // 4
    if quarter:
        first, last = per_window[:quarter], per_window[-quarter:]
        rate_first = sum(b for b, _ in first) / sum(n for _, n in first)
        rate_last = sum(b for b, _ in last) / sum(n for _, n in last)
        m["ingest.us_per_event_growth"] = rate_last / rate_first

    for name in ("apply_delta", "label_aggregation"):
        m[f"{name}.s"] = total(name)
        m[f"{name}.calls"] = len(spans(name))
    m["delta_counts.calls"] = len(spans("delta_counts"))
    m["measure_quantities.s"] = total("measure_quantities")

    if stats is not None:
        # Program-reported fields read 0 once a later change drops them
        # (say, with the pipeline they describe).
        for key, field, scale in (
                ("service.prefetch_stall_s", "prefetch_stall_s", 1.0),
                ("service.collect_stall_s", "collect_stall_s", 1.0),
                ("service.overlap_ratio", "overlap_ratio", 1.0),
                ("service.window_p50_ms", "p50_latency_s", 1e3),
                ("service.window_p95_ms", "p95_latency_s", 1e3),
                ("plan.hits", "plan_hits", 1.0),
                ("plan.misses", "plan_misses", 1.0),
                ("plan.replans", "plan_replans", 1.0)):
            m[key] = scale * getattr(stats, field, 0.0)
        m["service.window_samples"] = len(getattr(stats, "records", ()))
    m["plan.resolve_s"] = total("plan.resolve")
    m["plan.lookups"] = len(spans("plan.resolve"))
    if m["plan.lookups"]:
        m["plan.hit_ratio"] = m.get("plan.hits", 0) / m["plan.lookups"]
    m["scheduler.calls"] = len(spans("scheduler.plan"))
    m["scheduler.s"] = total("scheduler.plan")

    simulate = spans("simulate_window")
    m["simulate.s"] = total("simulate_window")
    if simulate:
        m["simulate.ms_p50"] = 1e3 * median(s[2] - s[1] for s in simulate)
    m["build_costs.s"] = total("build_costs")
    m["build_costs.calls"] = len(spans("build_costs"))
    m["accel.run_s"] = total("accel.run")

    per_model = by_tag("compare.model")
    per_dataset = by_tag("compare.dataset")
    for model in MODELS:
        m[f"compare.{model}_s"] = per_model.get(model, 0.0)
    for dataset in DATASETS:
        m[f"compare.{dataset}_s"] = per_dataset.get(dataset, 0.0)

    m["wal.appends"] = len(spans("wal.append"))
    m["wal.append_s"] = total("wal.append")
    m["wal.syncs"] = len(spans("wal.sync"))
    m["wal.sync_s"] = total("wal.sync")
    m["checkpoint.saves"] = len(spans("checkpoint.save"))
    m["checkpoint.save_s"] = total("checkpoint.save")
    written = tracer.checkpoint_bytes.get("call", [])
    m["checkpoint.written_mb"] = sum(written) / 1e6
    m["checkpoint.last_kb"] = written[-1] / 1e3 if written else 0.0
    m["recovery.load_s"] = total("recovery.start", "resume")
    resume_stats = context.get("resume_stats")
    if resume_stats is not None:
        m["service.recovery_s"] = resume_stats.recovery_s
    for key in ("resume_s", "write_mb", "disk_mb"):
        m[key] = context.get(key, 0.0)

    per_synth = by_tag("synth", "setup")
    for dataset in DATASETS:
        m[f"synth.{dataset}_s"] = per_synth.get(dataset, 0.0)
    m["stream.synth_s"] = total("stream.synth", "setup")
    if context["untraced_s"] > 0:
        m["trace.overhead_pct"] = 100.0 * (
            context["traced_s"] / context["untraced_s"] - 1.0)
    return {name: float(m.get(name, 0.0)) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro package next to perfbench/; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    units = metric_units("per_layer" if args.trace else "end_to_end")
    os.makedirs(OUT, exist_ok=True)
    print("env " + json.dumps(environment(), sort_keys=True))
    workload = WORKLOADS[args.workload](args.seed, OUT)
    if args.trace:
        metrics = run_traced(workload, args.seed, units)
    else:
        metrics = run_gated(workload, args.seconds)
    for line in workload.info:
        print(line)
    for problem in workload.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
