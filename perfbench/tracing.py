"""Span tracing installed from outside the program, for the traced run.

:class:`Tracer` wraps named layer functions of the ``repro`` package with
timing wrappers for the duration of a ``with tracer.installed():`` block,
then puts the originals back.  Nothing under ``src/`` is edited.

* A span is ``[name, start, end, parent, thread, tag, phase, child_s]``:
  ``parent`` is the index of the enclosing span on the same thread
  (``-1`` at a thread's top), ``tag`` a window index, dataset or model
  name, ``phase`` the benchmark step that was running, and ``child_s``
  the time the span's children covered, so self time is
  ``end - start - child_s``.
* Spans stay in memory until :meth:`Tracer.write` dumps them.
* A hook whose module, class or function no longer exists marks its
  layer *absent* instead of failing, so a later change to a layer's
  internals leaves the benchmark runnable.

Functions imported by name into other modules (``from .delta import
apply_delta``) are re-bound in every loaded ``repro`` module that holds
them, so the wrapper sees the calls wherever they come from.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Hook", "HOOKS", "Tracer", "format_table", "self_time"]


@dataclass(frozen=True)
class Hook:
    """One wrapped layer function."""

    #: the layer (module) the function belongs to, as ROADMAP names it
    layer: str
    #: the span name the wrapper records
    span: str
    #: ``module:qualname`` of the function; ``Class.method`` for methods
    target: str
    #: ``"first_arg"`` tags a span with the call's first positional
    #: argument after ``self``; ``"self_name"`` with ``self.name``
    tag: Optional[str] = None
    #: wrap a generator function, one span per ``next()``
    generator: bool = False


HOOKS: Tuple[Hook, ...] = (
    Hook("serving.streams", "stream.synth",
         "repro.serving.streams:synthetic_event_stream"),
    Hook("graphs.datasets", "synth", "repro.graphs.datasets:load_dataset",
         tag="first_arg"),
    Hook("serving.ingest", "ingest.window",
         "repro.serving.ingest:WindowedIngestor.windows", generator=True),
    Hook("graphs.delta", "apply_delta", "repro.graphs.delta:apply_delta"),
    Hook("graphs.delta", "delta_counts", "repro.graphs.delta:delta_counts"),
    Hook("graphs.delta", "measure_quantities",
         "repro.baselines.algorithms:measure_quantities"),
    Hook("serving.plan_manager", "plan.resolve",
         "repro.serving.plan_manager:PlanManager.resolve"),
    Hook("core.scheduler", "scheduler.plan",
         "repro.core.scheduler:DiTileScheduler.plan"),
    Hook("serving.executor", "simulate_window",
         "repro.serving.executor:simulate_window"),
    Hook("baselines.algorithms", "build_costs",
         "repro.baselines.algorithms:build_costs"),
    Hook("accel.simulator", "accel.run",
         "repro.accel.simulator:AcceleratorSimulator.run"),
    Hook("models.workload", "label_aggregation",
         "repro.models.workload:label_aggregation"),
    Hook("experiments.runner", "compare.dataset",
         "repro.experiments.runner:ExperimentRunner.compare", tag="first_arg"),
    Hook("experiments.runner", "compare.model",
         "repro.baselines.base:AcceleratorModel.simulate", tag="self_name"),
    Hook("durability", "wal.append",
         "repro.durability.wal:WriteAheadLog.append"),
    Hook("durability", "wal.sync", "repro.durability.wal:WriteAheadLog.sync"),
    Hook("durability", "checkpoint.save",
         "repro.durability.checkpoint:CheckpointStore.save"),
    Hook("durability", "recovery.start",
         "repro.durability.recovery:DurableRun.start"),
)


def self_time(span: list) -> float:
    """A span's duration minus the part its children cover."""
    return span[2] - span[1] - span[7]


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self, hooks: Tuple[Hook, ...] = HOOKS):
        self.hooks = hooks
        self.spans: List[list] = []
        #: the benchmark step running now; stamped on every new span
        self.phase = "setup"
        #: ``(index, num_events, live_edges)`` of every window the ingest
        #: wrapper saw, per phase
        self.windows: Dict[str, List[Tuple[int, int, Optional[int]]]] = {}
        #: bytes of every checkpoint file written, per phase
        self.checkpoint_bytes: Dict[str, List[int]] = {}
        self.absent: Dict[str, str] = {}
        self._local = threading.local()
        self._append_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, tag: Any = None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else -1
        record = [name, 0.0, 0.0, parent, threading.current_thread().name,
                  tag, self.phase, 0.0]
        with self._append_lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            stack.pop()
            if parent >= 0:
                self.spans[parent][7] += record[2] - record[1]

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def installed(self):
        """Wrap every hook's function; restore the originals on exit."""
        undo: List[Callable[[], None]] = []
        try:
            for hook in self.hooks:
                try:
                    undo.extend(self._install(hook))
                except (ImportError, AttributeError) as exc:
                    self.absent[hook.span] = f"{hook.target}: {exc}"
            yield self
        finally:
            for restore in reversed(undo):
                restore()

    def _install(self, hook: Hook) -> List[Callable[[], None]]:
        module_name, _, qualname = hook.target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            if attr not in vars(owner):
                raise AttributeError(f"{owner_name} defines no {attr}")
            original = vars(owner)[attr]
            wrapper = self._wrapper(hook, original, method=True)
            setattr(owner, attr, wrapper)
            return [lambda: setattr(owner, attr, original)]
        original = getattr(module, attr)
        wrapper = self._wrapper(hook, original, method=False)
        undo = []
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    undo.append(
                        lambda m=mod, n=name: setattr(m, n, original))
        return undo

    def _wrapper(self, hook: Hook, original: Callable, method: bool):
        tracer = self
        skip = 1 if method else 0

        def tag_of(args):
            if hook.tag == "first_arg" and len(args) > skip:
                return args[skip]
            if hook.tag == "self_name" and args:
                return getattr(args[0], "name", None)
            return None

        if hook.generator:
            @functools.wraps(original)
            def gen_wrapper(*args, **kwargs):
                inner = original(*args, **kwargs)
                seen = tracer.windows.setdefault(tracer.phase, [])
                while True:
                    with tracer.span(hook.span) as record:
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        record[5] = getattr(item, "index", None)
                        snapshot = getattr(item, "snapshot", None)
                        seen.append((
                            record[5],
                            getattr(item, "num_events", None),
                            getattr(snapshot, "num_edges", None),
                        ))
                    yield item
            return gen_wrapper

        if hook.span == "checkpoint.save":
            @functools.wraps(original)
            def save_wrapper(*args, **kwargs):
                with tracer.span(hook.span):
                    path = original(*args, **kwargs)
                tracer.checkpoint_bytes.setdefault(tracer.phase, []).append(
                    os.path.getsize(path))
                return path
            return save_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(hook.span, tag_of(args)):
                return original(*args, **kwargs)
        return wrapper

    # ------------------------------------------------------------------
    # Queries and output
    # ------------------------------------------------------------------
    def select(self, name: str, phase: str) -> List[list]:
        """Spans called ``name`` recorded during ``phase``."""
        return [s for s in self.spans if s[0] == name and s[6] == phase]

    def layer_table(self, phase: str, wall_s: float) -> List[dict]:
        """Per-span-name totals for ``phase``: calls, inclusive and self
        seconds, and the self share of ``wall_s`` (summed over threads,
        so shares of concurrent layers can add past 100%)."""
        rows: Dict[str, dict] = {}
        for span in self.spans:
            if span[6] != phase:
                continue
            row = rows.setdefault(span[0], {
                "span": span[0], "calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span[2] - span[1]
            row["self_s"] += self_time(span)
        for row in rows.values():
            row["self_share"] = row["self_s"] / wall_s if wall_s > 0 else 0.0
        out = []
        for hook in self.hooks:
            if hook.span in rows:
                out.append({"layer": hook.layer, **rows[hook.span]})
            elif hook.span in self.absent:
                out.append({"layer": hook.layer, "span": hook.span,
                            "absent": self.absent[hook.span]})
        return out

    def write(self, path: str, extra: dict) -> None:
        """Dump every span (plus ``extra``) as one JSON document."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fields = ["name", "start", "end", "parent", "thread", "tag",
                  "phase", "child_s"]
        with open(path, "w") as handle:
            json.dump({"fields": fields, "spans": self.spans,
                       "absent": self.absent, **extra}, handle)


def format_table(rows: List[dict]) -> str:
    """The per-layer table as aligned text."""
    lines = [f"{'layer':<22}{'span':<20}{'calls':>8}{'total_s':>11}"
             f"{'self_s':>11}{'self%':>8}"]
    for row in rows:
        if "absent" in row:
            lines.append(f"{row['layer']:<22}{row['span']:<20}  absent "
                         f"({row['absent']})")
            continue
        lines.append(
            f"{row['layer']:<22}{row['span']:<20}{row['calls']:>8}"
            f"{row['total_s']:>11.4f}{row['self_s']:>11.4f}"
            f"{100 * row['self_share']:>7.1f}%")
    return "\n".join(lines)
