"""The three benchmark workloads and the checks on their outputs.

Each workload drives one public entry point of the ``repro`` package:

* ``stream-growing`` — :func:`repro.serving.streams.synthetic_event_stream`
  replayed at full speed through :meth:`StreamingService.serve`;
* ``stream-durable`` — the same stream and config with a
  :class:`DurabilityConfig` (``repro serve --wal DIR``), plus one run
  crashed late by the durability layer's own ``abort_after_commit`` hook
  and then resumed;
* ``paper-compare`` — :meth:`ExperimentRunner.compare` over all six
  Table 1 datasets, five accelerators each.

Every service config leaves each :class:`ServiceConfig` and
:class:`DurabilityConfig` field at its default except ``window``,
``origin`` and the durability directory, so a change that removes a
concurrency knob still runs the same benchmark.

The checks compare against references built here or by other entry
points (a plain-set replay of the raw events, ``serve_offline``, the
uninterrupted run, the paper's headline property), never against stored
numbers.
"""

from __future__ import annotations

import math
import os
import shutil
import time
import traceback
from statistics import median
from typing import Dict, List, Optional, Tuple

from repro.core.plan import DGNNSpec
from repro.ditile import DiTileAccelerator
from repro.durability import recovery as durability_recovery
from repro.durability.config import DurabilityConfig
from repro.durability.wal import WriteAheadLog
from repro.experiments import runner as experiments_runner
from repro.graphs import datasets as graph_datasets
from repro.serving import service as serving_service
from repro.serving import streams as serving_streams

__all__ = ["WORKLOADS", "Workload", "set_replay"]

#: stream shape: a power-law stream growing from an empty graph
NUM_VERTICES = 512
NUM_EVENTS = 48_000
#: event times are uniform over [0, NUM_EVENTS); 125 time units per window
#: gives 384 windows of ~125 events each
WINDOW = 125.0
ORIGIN = 0.0
NUM_WINDOWS = 384
#: the durable crash lands after the commit of this share of the windows
CRASH_FRACTION = 0.9
SPEC = DGNNSpec.classic(64)
#: the five accelerators and six datasets of Figs. 7-9, in figure order
MODELS = ("ReaDy", "DGNN-Booster", "RACE", "MEGA", "DiTile-DGNN")
DATASETS = ("PubMed", "Reddit", "Mobile", "Twitter", "Wikipedia", "Flicker")
DITILE = "DiTile-DGNN"


def set_replay(events, window: float, origin: float) -> List[Tuple[int, int]]:
    """``(events, live_edges)`` per window from a plain Python set.

    The reference for ingest: window ``k`` holds the events with time in
    ``(origin + k*window, origin + (k+1)*window]`` (time ``origin`` itself
    belongs to window 0), applied in stream order to a set of
    ``(src, dst)`` pairs — an add inserts, a remove discards.
    """
    live = set()
    counts: Dict[int, int] = {}
    after: Dict[int, int] = {}
    for event in events:
        index = max(0, math.ceil((event.time - origin) / window) - 1)
        counts[index] = counts.get(index, 0) + 1
        if event.kind == "add":
            live.add((event.src, event.dst))
        else:
            live.discard((event.src, event.dst))
        after[index] = len(live)
    last = max(counts) if counts else 0
    out = []
    size = 0
    for index in range(last + 1):
        size = after.get(index, size)
        out.append((counts.get(index, 0), size))
    return out


def proc_wchar() -> Optional[int]:
    """Bytes this process has written so far (``wchar``), if readable."""
    try:
        with open("/proc/self/io") as handle:
            for line in handle:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def tree_bytes(path: str) -> int:
    """Bytes of every file under ``path``."""
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


class Workload:
    """Shared state of one run: checks, accounting, info lines."""

    name = ""
    why = ""

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.info: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
        return ok

    def fail_call(self, what: str, units: int) -> None:
        """An entry-point call raised: every unit it attempted failed."""
        self.failed += units
        self.problems.append(f"{what} raised:\n{traceback.format_exc()}")

    # Subclasses implement setup(final), call() -> seconds, describe(),
    # finish() for the once-per-run checks, and traced(tracer) -> the
    # context the per-layer metrics are computed from.


# ---------------------------------------------------------------------------
# Streaming workloads
# ---------------------------------------------------------------------------
class StreamGrowing(Workload):
    name = "stream-growing"
    why = ("ingest-bound serving: few events per window on a live edge set "
           "that grows all run, full-speed replay through serve()")

    def config(self, durability=None) -> "serving_service.ServiceConfig":
        return serving_service.ServiceConfig(
            window=WINDOW, origin=ORIGIN, durability=durability)

    def setup(self, final: bool = True) -> None:
        """Synthesize the stream; only the ``final`` one is served."""
        stream = serving_streams.synthetic_event_stream(
            num_vertices=NUM_VERTICES, num_events=NUM_EVENTS, seed=self.seed)
        if final:
            self.stream = stream

    def serve(self, config) -> "serving_service.ServingReport":
        service = serving_service.StreamingService(DiTileAccelerator(), config)
        return service.serve(self.stream, SPEC)

    # -- checks -------------------------------------------------------
    def reference(self) -> List[Tuple[int, int]]:
        if not hasattr(self, "_replay"):
            self._replay = set_replay(self.stream.events, WINDOW, ORIGIN)
            self.check(len(self._replay) == NUM_WINDOWS,
                       f"set replay gives {len(self._replay)} windows, "
                       f"expected {NUM_WINDOWS}")
        return self._replay

    def check_report(self, report, what: str) -> None:
        """Served-window accounting plus the per-call output checks."""
        replay = self.reference()
        stats = report.stats
        served = len(report.results) - stats.windows_failed
        self.attempted += len(replay)
        self.failed += max(0, len(replay) - served)
        self.check(stats.windows_failed == 0,
                   f"{what}: {stats.windows_failed} windows failed")
        self.check(stats.late_events == 0 and stats.quarantined_events == 0,
                   f"{what}: {stats.late_events} late, "
                   f"{stats.quarantined_events} quarantined events")
        self.check(stats.events == len(self.stream.events),
                   f"{what}: served {stats.events} of "
                   f"{len(self.stream.events)} events")
        served_events = [r.num_events for r in stats.records]
        self.check(served_events == [e for e, _ in replay],
                   f"{what}: per-window event counts differ from the set "
                   "replay")
        if getattr(self, "results", None) is None:
            self.results = report.results
        else:
            self.check(report.results == self.results,
                       f"{what}: results differ from the first serve")

    def check_windows(self, windows, what: str) -> None:
        """The traced ingest windows against the set replay."""
        replay = self.reference()
        seen = [(n, live) for _, n, live in windows]
        if not self.check(all(live is not None for _, live in seen),
                          f"{what}: ingested windows carry no "
                          "snapshot.num_edges; live edges cannot be checked"):
            return
        self.check(seen == replay,
                   f"{what}: window (events, live edges) differ from the "
                   "set replay")

    def describe(self, walls: List[float]) -> None:
        mid = median(walls)
        self.info.append(
            f"{self.name}: {NUM_WINDOWS} windows, {NUM_EVENTS} events; "
            f"events_per_s={NUM_EVENTS / mid:.1f} "
            f"windows_per_s={NUM_WINDOWS / mid:.2f} "
            f"events_per_window={NUM_EVENTS / NUM_WINDOWS:.1f} "
            f"(median of {len(walls)} serves: "
            f"{' '.join(f'{w:.3f}' for w in walls)} s)")

    # -- gated run ----------------------------------------------------
    def call(self) -> float:
        start = time.perf_counter()
        try:
            report = self.serve(self.config())
        except Exception:
            self.fail_call("serve", len(self.reference()))
            return time.perf_counter() - start
        wall = time.perf_counter() - start
        self.check_report(report, "serve")
        self.last_report = report
        return wall

    def finish(self) -> None:
        offline = serving_service.serve_offline(
            self.stream, SPEC, config=self.config())
        self.check(offline == self.results,
                   "serve results differ from serve_offline")

    # -- traced run ---------------------------------------------------
    def traced(self, tracer) -> dict:
        """Untraced call, then the traced call; returns the run context."""
        self.last_report = None
        untraced_wall = self.call()
        untraced = self.last_report
        with tracer.installed():
            tracer.phase = "call"
            traced_wall = self.call()
            tracer.phase = "idle"
        self.check_windows(tracer.windows.get("call", []), "traced serve")
        return {"stats": untraced.stats if untraced else None,
                "untraced_s": untraced_wall, "traced_s": traced_wall}


class StreamDurable(StreamGrowing):
    name = "stream-durable"
    why = ("the same stream through serve() with a write-ahead log and "
           "per-window checkpoints, then a crash late in the stream and "
           "a resume")

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self._dirs = 0
        self.write_mb: List[float] = []
        self.disk_mb: List[float] = []

    def fresh_dir(self) -> str:
        self._dirs += 1
        path = os.path.join(self.scratch,
                            f"durable-{os.getpid()}-{self._dirs}")
        shutil.rmtree(path, ignore_errors=True)
        return path

    def durable_serve(self, directory: str) -> Optional[float]:
        """One uninterrupted durable serve into ``directory``."""
        config = self.config(DurabilityConfig(directory=directory))
        before = proc_wchar()
        start = time.perf_counter()
        try:
            report = self.serve(config)
        except Exception:
            self.fail_call("durable serve", len(self.reference()))
            return None
        wall = time.perf_counter() - start
        after = proc_wchar()
        if before is not None and after is not None:
            self.write_mb.append((after - before) / 1e6)
        self.disk_mb.append(tree_bytes(directory) / 1e6)
        self.check_report(report, "durable serve")
        self.check(report.stats.wal_records == len(self.stream.events),
                   f"durable serve reports {report.stats.wal_records} WAL "
                   f"records for {len(self.stream.events)} events")
        self.last_report = report
        return wall

    def check_wal(self, directory: str) -> None:
        """Read the log back: one record per stream event, in order."""
        wal, records = WriteAheadLog.open(
            DurabilityConfig(directory=directory).wal_dir, fsync=False)
        wal.close()
        self.check(len(records) == len(self.stream.events),
                   f"WAL holds {len(records)} records for "
                   f"{len(self.stream.events)} events")
        self.check([p for p, _ in records] == list(range(len(records)))
                   and [e for _, e in records] == list(self.stream.events),
                   "WAL records differ from the stream")

    def call(self) -> float:
        directory = self.fresh_dir()
        try:
            start = time.perf_counter()
            wall = self.durable_serve(directory)
            if wall is None:
                return time.perf_counter() - start
            if not getattr(self, "_wal_checked", False):
                self._wal_checked = True
                self.check_wal(directory)
            return wall
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def crash_and_resume(self, tracer=None) -> Optional[Tuple[float, object]]:
        """Crash a run after the commit of a late window, then resume it.

        Returns the resume's wall time and report (``None`` if it
        failed).  With ``tracer`` the crashed run is traced as phase
        ``crash`` and the resume as ``resume``.
        """
        crash_after = int(CRASH_FRACTION * NUM_WINDOWS)
        directory = self.fresh_dir()
        self.attempted += 1
        try:
            crash = self.config(DurabilityConfig(
                directory=directory, abort_after_commit=crash_after))
            if tracer is not None:
                tracer.phase = "crash"
            try:
                self.serve(crash)
                self.check(False, "the armed crash hook never fired")
            except durability_recovery.SimulatedCrash:
                pass
            if tracer is not None:
                tracer.phase = "resume"
            start = time.perf_counter()
            report = self.serve(self.config(
                DurabilityConfig(directory=directory, resume=True)))
            wall = time.perf_counter() - start
        except Exception:
            self.fail_call("crash/resume", 1)
            return None
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        stats = report.stats
        completed = (stats.resumes == 1
                     and stats.recovered_windows == crash_after + 1)
        self.failed += 0 if completed else 1
        self.check(completed,
                   f"resume restored {stats.recovered_windows} windows "
                   f"(resumes={stats.resumes}), expected {crash_after + 1}")
        self.check(report.results == self.results,
                   "crashed-then-resumed results differ from the "
                   "uninterrupted run")
        return wall, report

    def finish(self) -> None:
        plain = self.serve(self.config())
        self.check(plain.results == self.results,
                   "durable results differ from plain serve()")
        resumed = self.crash_and_resume()
        if resumed is not None:
            self.info.append(f"{self.name}: resume_s={resumed[0]:.4f}")
        if self.write_mb:
            self.info.append(
                f"{self.name}: write_mb={median(self.write_mb):.2f} "
                f"disk_mb={median(self.disk_mb):.3f} (per durable serve)")

    def traced(self, tracer) -> dict:
        self.last_report = None
        untraced_wall = self.call()
        untraced = self.last_report
        directory = self.fresh_dir()
        try:
            with tracer.installed():
                tracer.phase = "call"
                traced_wall = self.durable_serve(directory)
                tracer.phase = "idle"
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        self.check_windows(tracer.windows.get("call", []),
                           "traced durable serve")
        with tracer.installed():
            resumed = self.crash_and_resume(tracer)
            tracer.phase = "idle"
        traced_ok = traced_wall is not None
        return {
            "stats": untraced.stats if untraced else None,
            "untraced_s": untraced_wall,
            "traced_s": traced_wall if traced_ok else 0.0,
            "resume_s": resumed[0] if resumed else 0.0,
            "resume_stats": resumed[1].stats if resumed else None,
            "write_mb": (self.write_mb[-1] if traced_ok and self.write_mb
                         else 0.0),
            "disk_mb": self.disk_mb[-1] if traced_ok else 0.0,
        }


# ---------------------------------------------------------------------------
# Paper comparison
# ---------------------------------------------------------------------------
class PaperCompare(Workload):
    name = "paper-compare"
    why = ("five accelerators on the six Table 1 datasets at the default "
           "ExperimentConfig: the researcher's path behind Figs. 7-9")

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.runner = experiments_runner.ExperimentRunner(
            experiments_runner.ExperimentConfig(seed=seed))

    def setup(self, final: bool = True) -> None:
        """Synthesize all six datasets.

        The ``final`` set-up goes through the runner's own cached
        ``graph()``, so the timed passes price warm graphs; the others
        call ``load_dataset`` directly with the arguments ``graph()``
        passes it.
        """
        cfg = self.runner.config
        for name in self.runner.datasets():
            if final:
                self.runner.graph(name)
            else:
                graph_datasets.load_dataset(
                    name, scale=cfg.dataset_scale(name),
                    snapshots=cfg.snapshots,
                    dissimilarity=cfg.dissimilarity, seed=cfg.seed)

    def compare_all(self) -> Dict[str, dict]:
        return {name: self.runner.compare(name)
                for name in self.runner.datasets()}

    def call(self) -> float:
        pairs = len(DATASETS) * len(MODELS)
        self.attempted += pairs
        start = time.perf_counter()
        try:
            results = self.compare_all()
        except Exception:
            self.fail_call("compare", pairs)
            return time.perf_counter() - start
        wall = time.perf_counter() - start
        priced = sum(
            1 for name in DATASETS for model in MODELS
            if model in results.get(name, {})
            and math.isfinite(results[name][model].execution_cycles))
        self.failed += pairs - priced
        if getattr(self, "results", None) is None:
            self.results = results
            self.check_headline(results)
        else:
            self.check(results == self.results,
                       "compare pass differs from the first pass")
        return wall

    def check_headline(self, results: Dict[str, dict]) -> None:
        """DiTile-DGNN beats every baseline on cycles, MACs and DRAM
        bytes on every dataset (the Figs. 7-9 headline)."""
        margins = []
        for name in DATASETS:
            per_model = results.get(name, {})
            ours = per_model.get(DITILE)
            if not self.check(ours is not None,
                              f"{name}: no {DITILE} result"):
                continue
            for model in MODELS[:-1]:
                other = per_model.get(model)
                if not self.check(other is not None,
                                  f"{name}: no {model} result"):
                    continue
                for field in ("execution_cycles", "total_macs",
                              "dram_bytes"):
                    mine, theirs = getattr(ours, field), getattr(other, field)
                    self.check(mine < theirs,
                               f"{name}: {DITILE} {field} {mine:.4g} not "
                               f"below {model} {theirs:.4g}")
                    if mine > 0:
                        margins.append(theirs / mine)
        if margins:
            self.info.append(f"{self.name}: smallest DiTile margin "
                             f"{min(margins):.3f}x over the baselines")

    def describe(self, walls: List[float]) -> None:
        self.info.append(f"{self.name}: compare_s={median(walls):.4f} "
                         f"(median of {len(walls)} passes over "
                         f"{len(DATASETS)} datasets x {len(MODELS)} models)")

    def finish(self) -> None:
        pass

    def traced(self, tracer) -> dict:
        untraced_wall = self.call()
        with tracer.installed():
            tracer.phase = "call"
            traced_wall = self.call()
            tracer.phase = "idle"
        return {"stats": None, "untraced_s": untraced_wall,
                "traced_s": traced_wall}


WORKLOADS = {cls.name: cls for cls in (StreamGrowing, StreamDurable,
                                       PaperCompare)}
