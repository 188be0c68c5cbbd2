"""Span recorder for the traced benchmark pass, attached from outside `src/`.

`install` rebinds each traced public function at the name its caller looks
up at call time (for example `momentcurve.cli.moment_exact` and
`momentcurve.moments.interval_kernel`), so the package itself is unchanged.
Every wrapped call records a span (name, start, end, parent) in memory and
adds counts taken from its arguments and return value. `layer_metrics` turns
the spans and counts into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import tracemalloc
from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return {
        sp.id: sp.duration - _covered(children.get(sp.id, []), sp.start, sp.end)
        for sp in spans
    }


class Recorder:
    """Spans and counters of one traced pass.

    Spans nest per thread. A span opened on a thread with no open span (a
    sweep pool worker) takes the open `cli.main` span as its parent: the CLI
    command that caused it.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: int | None = None

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> tuple[int, int | None, str, float]:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        sid = next(self._ids)
        stack.append(sid)
        if name == "cli.main":
            self._root = sid
        return sid, parent, name, time.perf_counter()

    def close(self, token: tuple[int, int | None, str, float]) -> float:
        end = time.perf_counter()
        sid, parent, name, start = token
        self._stack().pop()
        if sid == self._root:
            self._root = None
        self.spans.append(Span(sid, parent, name, start, end))
        return end - start

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = max(self.counts.get(key, 0), value)

    def span(self, name: str, fn, *args, **kwargs):
        token = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(token)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp)) + "\n")


# --- counts taken at each layer boundary ------------------------------------

def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_table(rec: Recorder, args, kwargs, table) -> None:
    rec.add("moments.table_entries", table.n_entries)
    rec.add("moments.n_tuples", table.n_tuples)
    token = rec.open("bench.count")
    try:
        if table.n_entries:
            fresh = np.empty(table.n_entries, dtype=bool)
            fresh[0] = True
            fresh[1:] = (table.p1[1:] != table.p1[:-1]) | (table.p2[1:] != table.p2[:-1])
            sizes = np.diff(np.append(np.flatnonzero(fresh), table.n_entries))
            rec.peak("moments.max_group", int(sizes.max()))
    finally:
        rec.close(token)


def _count_kernel(rec, args, kwargs, result) -> None:
    rec.add("moments.kernel_evals", np.size(_arg(args, kwargs, 0, "d")))


def _count_box(rec, args, kwargs, result) -> None:
    cells = int(np.prod([int(c) for c in _arg(args, kwargs, 5, "counts")]))
    rec.add("quadrature.cells", cells)
    rec.add("quadrature.flop", 8.0 * np.size(_arg(args, kwargs, 0, "xi")) * cells)


def _count_phase_row(rec, args, kwargs, result) -> None:
    entries = np.size(_arg(args, kwargs, 0, "nu")) * int(_arg(args, kwargs, 3, "count"))
    rec.add("expsums.phase_entries", entries)


def _count_geometry(rec, args, kwargs, report) -> None:
    # RescaleReport names its fields member_samples / member_violations.
    rec.add("geometry.samples", getattr(report, "samples_used", None)
            or getattr(report, "member_samples", 0))
    rec.add("geometry.violations", getattr(report, "violations", None)
            or getattr(report, "member_violations", 0))


def _count_gamma_tilde(rec, args, kwargs, result) -> None:
    rec.add("geometry.gamma_tilde_calls", 1)


# (module, attribute, span name or None for count-only, count hook)
TARGETS = [
    ("cli", "write_json", "records.write", None),
    ("cli", "write_csv", "records.write", None),
    ("cli", "mainexp_row", "sharpness.row", None),
    ("cli", "maincor_row", "sharpness.row", None),
    ("cli", "broad_narrow_check", "sharpness.broad_narrow", None),
    ("cli", "moment_exact", "moments.moment_exact", None),
    ("sharpness", "moment_exact", "moments.moment_exact", None),
    ("moments", "build_group_table", "moments.build_group_table", _count_table),
    ("moments", "interval_kernel", "moments.interval_kernel", _count_kernel),
    ("quadrature", "box_power_integral", "quadrature.box_power_integral", _count_box),
    ("sharpness", "box_power_integral", "quadrature.box_power_integral", _count_box),
    ("quadrature", "phase_row", "expsums.phase_row", _count_phase_row),
    ("cli", "check_overlap_geo1", "geometry.geo1", _count_geometry),
    ("cli", "check_cone_containment_geo2", "geometry.geo2", _count_geometry),
    ("cli", "check_cone_containment_geo3", "geometry.geo3", _count_geometry),
    ("cli", "check_partition", "geometry.partition", _count_geometry),
    ("cli", "check_rescale", "geometry.rescale", _count_geometry),
    ("geometry", "gamma_tilde", None, _count_gamma_tilde),
]


class _HeapWatch:
    """tracemalloc, running only while some traced table build is open.

    Tracing every allocation slows the Python loops of the geometry checks
    several-fold, so the heap is traced inside build_group_table spans only.
    The peak of a span is the traced heap's high-water mark above its level
    at entry; builds overlapping on two sweep threads share one high-water
    mark, so their peaks may include each other's tables.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._active = 0

    def enter(self) -> int:
        with self._lock:
            if self._active == 0:
                tracemalloc.start()
            self._active += 1
            return tracemalloc.get_traced_memory()[0]

    def leave(self, heap0: int) -> float:
        with self._lock:
            peak = tracemalloc.get_traced_memory()[1] - heap0
            self._active -= 1
            if self._active == 0:
                tracemalloc.stop()
            return peak / 2**20


def _wrap(rec: Recorder, fn, name, hook, heap: _HeapWatch):
    if name is None:
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(rec, args, kwargs, result)
            return result
        return counted

    measure_heap = name == "moments.build_group_table"

    def traced(*args, **kwargs):
        heap0 = heap.enter() if measure_heap else 0
        token = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(token)
            if measure_heap:
                rec.peak("moments.table_peak_mb", heap.leave(heap0))
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result

    return traced


def _flush_manifest_wrapper(rec: Recorder, fn):
    def traced(self, manifest):
        return rec.span("records.write", fn, self, manifest)
    return traced


def install(rec: Recorder):
    """Rebind every target; returns a function that restores the originals."""
    import importlib

    heap = _HeapWatch()
    saved = []
    for module_name, attr, name, hook in TARGETS:
        module = importlib.import_module("momentcurve." + module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, _wrap(rec, original, name, hook, heap))
    records = importlib.import_module("momentcurve.records")
    flush = records.OutputLayout.flush_manifest
    saved.append((records.OutputLayout, "flush_manifest", flush))
    records.OutputLayout.flush_manifest = _flush_manifest_wrapper(rec, flush)

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


def layer_metrics(rec: Recorder, sweep_capacity_s: float) -> dict[str, float]:
    """Per-layer metrics from one traced pass (proc.* are added by the caller).

    sweep_capacity_s is the sum over sweep commands of workers x command wall,
    the denominator of sharpness.worker_util.
    """
    busy: dict[str, float] = {}
    for sp in rec.spans:
        busy[sp.name] = busy.get(sp.name, 0.0) + sp.duration
    selfs = self_times(rec.spans)
    pair_s = sum((selfs[sp.id] for sp in rec.spans if sp.name == "moments.moment_exact"), 0.0)
    c = rec.counts
    box_s = busy.get("quadrature.box_power_integral", 0.0)
    row_s = busy.get("sharpness.row", 0.0)
    out = {
        "cli.commands": c.get("cli.commands", 0),
        "cli.nonzero_exits": c.get("cli.nonzero_exits", 0),
        "records.write_s": busy.get("records.write", 0.0),
        "records.files": c.get("records.files", 0),
        "records.bytes": c.get("records.bytes", 0),
        "sharpness.row_s": row_s,
        "sharpness.worker_util": row_s / sweep_capacity_s if sweep_capacity_s > 0 else 0.0,
        "sharpness.broad_narrow_s": busy.get("sharpness.broad_narrow", 0.0),
        "moments.table_s": busy.get("moments.build_group_table", 0.0),
        "moments.table_entries": c.get("moments.table_entries", 0),
        "moments.n_tuples": c.get("moments.n_tuples", 0),
        "moments.table_peak_mb": c.get("moments.table_peak_mb", 0.0),
        "moments.pair_s": pair_s,
        "moments.kernel_s": busy.get("moments.interval_kernel", 0.0),
        "moments.kernel_evals": c.get("moments.kernel_evals", 0),
        "moments.max_group": c.get("moments.max_group", 0),
        "quadrature.box_s": box_s,
        "quadrature.cells": c.get("quadrature.cells", 0),
        "quadrature.gflops_computed": c.get("quadrature.flop", 0.0) / box_s / 1e9 if box_s > 0 else 0.0,
        "expsums.phase_row_s": busy.get("expsums.phase_row", 0.0),
        "expsums.phase_entries": c.get("expsums.phase_entries", 0),
    }
    for check in ("geo1", "geo2", "geo3", "partition", "rescale"):
        out[f"geometry.{check}_s"] = busy.get(f"geometry.{check}", 0.0)
    for key in ("samples", "gamma_tilde_calls", "violations"):
        out[f"geometry.{key}"] = c.get(f"geometry.{key}", 0)
    return out
