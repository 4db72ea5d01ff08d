"""Span recorder for the traced benchmark run.

A span records name, start, end, parent span and thread. Spans are kept
in memory and written out once the run ends. The recorder wraps public
nwpeval functions at the module attributes their callers look them up
through; nothing under src/ changes. A span opened on a thread with no
open span of its own (an executor worker) takes as parent the innermost
open span of the thread that opened the first span.
"""

from __future__ import annotations

import functools
import os
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

MIB = 1024 * 1024


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack: list[Span] | None = None
        self._wrapped: list[tuple] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                if self._root_stack is None:
                    self._root_stack = stack
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            root = self._root_stack
            parent = root[-1].id if root and root is not stack else None
        with self._lock:
            sp = Span(len(self.spans), name, 0.0, 0.0, parent, threading.get_ident())
            self.spans.append(sp)
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    def wrap(self, module, attr: str, name: str, on_enter=None, on_exit=None) -> None:
        """Replace module.attr by a wrapper recording a span per call.
        on_enter(*args, **kw) and on_exit(result, *args, **kw) return
        attributes for the span."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                if on_enter:
                    sp.attrs.update(on_enter(*args, **kwargs))
                result = fn(*args, **kwargs)
                if on_exit:
                    sp.attrs.update(on_exit(result, *args, **kwargs))
                return result

        self._wrapped.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put back every function `wrap` replaced."""
        while self._wrapped:
            module, attr, fn = self._wrapped.pop()
            setattr(module, attr, fn)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def rss_mb() -> float:
    """Resident set size of this process, from /proc/self/statm."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / MIB


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover.
    Children on other threads may overlap each other; they count once."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [(max(a, s.start), min(b, s.end))
                for a, b in children.get(s.id, []) if b > s.start and a < s.end]
        out[s.id] = s.duration - covered(kids)
    return out


def summary(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed wall time and summed self time."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += s.duration
        row["self_s"] += selfs[s.id]
    return out


def layer_metrics(spans: list[Span], names: list[str]) -> dict[str, float]:
    """The per-layer metrics in `names` that the spans give: all but
    process.cpu_s and trace.overhead_s, which come from the run itself.
    `<layer>.<fn>.s` and `<layer>.<fn>.calls` are 0 for a function that
    was never called."""
    rows = summary(spans)
    out: dict[str, float] = {}
    for name in names:
        base, _, kind = name.rpartition(".")
        if kind in ("s", "calls") and base.count(".") == 1:
            out[name] = rows.get(base, {}).get(kind, 0)

    def attr_sum(span_name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in spans if s.name == span_name)

    def attr_max(span_name: str, key: str) -> float:
        return max((s.attrs[key] for s in spans if s.name == span_name), default=0.0)

    for layer in ("read_archive", "ingest_raw", "write_archive"):
        out[f"archive.{layer}.mb"] = attr_sum(f"archive.{layer}", "bytes") / MIB
    out["regrid.planes"] = attr_sum("regrid.regrid_state", "planes")
    busy = sum(s.duration for s in spans
               if s.name == "regrid.regrid_state" and s.attrs.get("planes"))
    points = attr_sum("regrid.regrid_state", "points")
    out["regrid.mpts_per_s"] = points / 1e6 / busy if busy else 0.0
    out["rollout.self_s"] = rows.get("rollout.run_rollout", {}).get("self_s", 0.0)
    steps = [s.duration for s in spans if s.name == "rollout.builtin_step"]
    out["rollout.step_ms_p50"] = statistics.median(steps) * 1e3 if steps else 0.0
    out["verify.cells"] = attr_sum("verify.evaluate_run", "cells")
    eval_s = out["verify.evaluate_run.s"]
    out["verify.cells_per_s"] = out["verify.cells"] / eval_s if eval_s else 0.0
    out["experiment.rows"] = attr_sum("experiment.write_metric_csv", "rows")
    out["plots.svgs"] = attr_sum("plots.emit_plots", "svgs")
    out["rss.at_rollout_start_mb"] = attr_max("rollout.run_rollout", "rss_mb")
    out["rss.at_plots_start_mb"] = attr_max("plots.emit_plots", "rss_mb")
    return out


def instrument(rec: Recorder) -> None:
    """Wrap the public functions run_experiment reaches, where it and
    the modules it calls look them up."""
    from nwpeval import experiment, rollout, verify

    def state_bytes(result, *args, **kwargs):
        return {"bytes": result.data.nbytes}

    def regrid_work(result, state, dst):
        planes = 0 if state.grid == dst else state.data.shape[0]
        return {"planes": planes, "points": planes * dst.nlat * dst.nlon}

    def rss(*args, **kwargs):
        return {"rss_mb": rss_mb()}

    rec.wrap(experiment, "load_config", "experiment.load_config")
    rec.wrap(experiment, "run_experiment", "experiment.run_experiment")
    rec.wrap(experiment, "read_archive", "archive.read_archive", on_exit=state_bytes)
    rec.wrap(experiment, "ingest_raw", "archive.ingest_raw", on_exit=state_bytes)
    rec.wrap(experiment, "regrid_state", "regrid.regrid_state", on_exit=regrid_work)
    rec.wrap(experiment, "splice_states", "splice.splice_states")
    rec.wrap(experiment, "run_rollout", "rollout.run_rollout", on_enter=rss)
    rec.wrap(experiment, "evaluate_run", "verify.evaluate_run",
             on_exit=lambda result, *a, **k: {"cells": len(result[0])})
    rec.wrap(experiment, "write_metric_csv", "experiment.write_metric_csv",
             on_enter=lambda records, path: {"rows": len(records)})
    rec.wrap(experiment, "emit_plots", "plots.emit_plots", on_enter=rss,
             on_exit=lambda result, *a, **k: {"svgs": len(result)})
    rec.wrap(rollout, "builtin_step", "rollout.builtin_step")
    rec.wrap(rollout, "read_archive", "archive.read_archive", on_exit=state_bytes)
    rec.wrap(rollout, "write_archive", "archive.write_archive",
             on_enter=lambda state, dest: {"bytes": state.data.nbytes})
    for fn in ("lat_weights", "region_mask", "rmse_weighted", "acc_weighted"):
        rec.wrap(verify, fn, f"verify.{fn}")
