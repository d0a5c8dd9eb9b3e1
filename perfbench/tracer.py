"""Timing and counting wrappers for isopencil's layer entry points.

A traced process imports isopencil, calls `install()`, does its work and then
calls `Tracer.dump()`. Nothing under `src/` knows about tracing.

Modules import each other's functions with `from .x import y`, so a wrapper
must replace the name where the caller looks it up. `install()` therefore
rebinds every attribute of every loaded `isopencil` module that is the
original function object, unless a target names the caller modules itself.
Methods are replaced on their class.

Spans are kept in memory as four parallel lists (name, start, end, parent)
and written out by `dump()`; `summarize()` turns the dumps of one pass into
per-layer metrics. Hot tiny functions (`Automorphism.apply`, the enumerator's
`make_cover`) get counts only, because a span per call would cost more than
the call.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

_MODULES = (
    "isopencil.groups",
    "isopencil.covers",
    "isopencil.atlas",
    "isopencil.classifier",
    "isopencil.sandwich",
    "isopencil.specfile",
    "isopencil.compare",
    "isopencil.reference_tables",
    "isopencil.render",
    "isopencil.parallel",
    "isopencil.cli",
)

# (defining module, attribute path, span name). The layer is the prefix of
# the span name before the first dot.
SPANS = (
    ("isopencil.groups", "FiniteAbelianGroup.automorphisms", "groups.automorphisms"),
    ("isopencil.covers", "canonical_cover_form", "covers.canonical_cover_form"),
    ("isopencil.covers", "eigen_profile", "covers.eigen_profile"),
    ("isopencil.covers", "genus", "covers.genus"),
    ("isopencil.atlas", "atlas_table", "atlas.atlas_table"),
    ("isopencil.atlas", "enumerate_actions", "atlas.enumerate_actions"),
    ("isopencil.atlas", "_actions_cell", "atlas.actions_cell"),
    ("isopencil.atlas", "canonical_profile", "atlas.canonical_profile"),
    ("isopencil.classifier", "classify", "classifier.classify"),
    ("isopencil.classifier", "classify_cell", "classifier.classify_cell"),
    ("isopencil.classifier", "_branch_solutions", "classifier.branch_solutions"),
    ("isopencil.classifier", "fit_families", "classifier.fit_families"),
    ("isopencil.sandwich", "invariants", "sandwich.invariants"),
    ("isopencil.specfile", "parse_sandwich", "specfile.parse_sandwich"),
    ("isopencil.compare", "compare_with_reference", "compare.compare_with_reference"),
    ("isopencil.compare", "compare_atlas_with_reference", "compare.compare_atlas_with_reference"),
    ("isopencil.reference_tables", "atlas_reference", "reference_tables.atlas_reference"),
    ("isopencil.reference_tables", "family_reference", "reference_tables.family_reference"),
    ("isopencil.reference_tables", "atlas_table_ids", "reference_tables.atlas_table_ids"),
    ("isopencil.reference_tables", "family_table_ids", "reference_tables.family_table_ids"),
    ("isopencil.render", "render_family_rows", "render.render_family_rows"),
    ("isopencil.render", "render_atlas_rows", "render.render_atlas_rows"),
    ("isopencil.render", "render_covers", "render.render_covers"),
    ("isopencil.render", "render_invariants", "render.render_invariants"),
    ("isopencil.render", "render_family_comparison", "render.render_family_comparison"),
    ("isopencil.render", "render_atlas_comparison", "render.render_atlas_comparison"),
    ("isopencil.parallel", "parallel_map", "parallel.parallel_map"),
)

# (defining module, attribute path, count name, caller modules or None for all)
COUNTS = (
    ("isopencil.groups", "Automorphism.apply", "groups.aut_applications", None),
    ("isopencil.groups", "Automorphism.apply_char", "groups.aut_applications", None),
    # Only the enumerator's own binding: every call there is one candidate.
    ("isopencil.covers", "make_cover", "covers.candidates", ("isopencil.covers",)),
)

ENUMERATE = ("isopencil.covers", "enumerate_covers")


class Tracer:
    """Spans and counts of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.count_cells: dict[str, list[int]] = {}
        self.aut_seen: set = set()
        self.cell_cache = None

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def add(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def dump(self, path: str) -> None:
        counts = dict(self.counts)
        for key, cell in self.count_cells.items():
            counts[key] = counts.get(key, 0) + cell[0]
        info = self.cell_cache.cache_info()
        counts["atlas.cell_cache_hits"] = info.hits
        counts["atlas.cell_cache_misses"] = info.misses
        record = {
            "names": self.names,
            "name": self.span_name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "counts": counts,
        }
        with open(path, "w") as fh:
            json.dump(record, fh, separators=(",", ":"))


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _rebind(original, replacement, owner, attr, callers) -> None:
    if isinstance(owner, type):
        setattr(owner, attr, replacement)
        return
    if callers is None:
        callers = [name for name in sys.modules if name == "isopencil" or name.startswith("isopencil.")]
    for name in callers:
        module = sys.modules[name]
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def _span(tracer: Tracer, name: str, fn, on_result=None):
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if on_result is not None:
            on_result(args, result)
        return result

    return wrapper


def _counter(cell: list[int], fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)

    return wrapper


def _enumerator(tracer: Tracer, fn):
    """enumerate_covers returns a lazy iterator: one span per step it takes."""
    call_id = tracer.name_id("covers.enumerate_covers")
    step_id = tracer.name_id("covers.enumerate_step")

    def steps(iterator):
        while True:
            index = tracer.open(step_id)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                tracer.close(index)
            tracer.add("covers.yielded")
            yield item

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(call_id)
        try:
            iterator = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        return steps(iter(iterator))

    return wrapper


def _result_hooks(tracer: Tracer) -> dict:
    def automorphisms(args, result):
        factors = args[0].factors
        if factors not in tracer.aut_seen:
            tracer.aut_seen.add(factors)
            tracer.add("groups.aut_builds")
            tracer.add("groups.aut_size_sum", len(result))

    def branch_solutions(args, result):
        tracer.add("classifier.branch_vectors", len(result))

    def classify_cell(args, result):
        tracer.add("classifier.cells")
        tracer.add("classifier.solutions", len(result))

    def fit_families(args, result):
        tracer.add("classifier.families", sum(1 for row in result if row.kind == "family"))

    def compare_family(args, result):
        tracer.add("compare.reference_rows", len(result.matched) + len(result.missing) + result.skipped)

    def compare_atlas(args, result):
        tracer.add("compare.reference_rows", len(result.matched) + len(result.missing))

    def parallel_map(args, result):
        tracer.add("parallel.cells", len(result))

    def rendered(args, result):
        tracer.add("render.bytes_out", len(result.encode()))

    hooks = {
        "groups.automorphisms": automorphisms,
        "classifier.branch_solutions": branch_solutions,
        "classifier.classify_cell": classify_cell,
        "classifier.fit_families": fit_families,
        "compare.compare_with_reference": compare_family,
        "compare.compare_atlas_with_reference": compare_atlas,
        "parallel.parallel_map": parallel_map,
    }
    for _, _, name in SPANS:
        if name.startswith("render."):
            hooks[name] = rendered
    return hooks


def install() -> Tracer:
    """Import every isopencil module and wrap its layer entry points."""
    for name in _MODULES:
        importlib.import_module(name)
    tracer = Tracer()
    hooks = _result_hooks(tracer)
    for module_name, path, name in SPANS:
        owner, attr, original = _resolve(module_name, path)
        if name == "atlas.actions_cell":
            tracer.cell_cache = original
        _rebind(original, _span(tracer, name, original, hooks.get(name)), owner, attr, None)
    for module_name, path, key, callers in COUNTS:
        owner, attr, original = _resolve(module_name, path)
        cell = tracer.count_cells.setdefault(key, [0])
        _rebind(original, _counter(cell, original), owner, attr, callers)
    owner, attr, original = _resolve(*ENUMERATE)
    _rebind(original, _enumerator(tracer, original), owner, attr, None)
    return tracer


# ---------------------------------------------------------------------------
# Summaries over the dumps of one pass.

LAYERS = (
    "groups",
    "covers",
    "atlas",
    "classifier",
    "sandwich",
    "specfile",
    "compare",
    "reference_tables",
    "render",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(dumps: list[tuple[dict, float, float]]) -> tuple[dict, dict]:
    """Per-layer metrics of one pass, and the counts that must repeat exactly.

    Each entry is a process's dump, the wall time in seconds that the spans
    sit in (the whole process for a CLI call, the pass for the batch caller),
    and the machine-speed factor that every time of that entry is scaled by.
    """
    total_ns: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_ns = dict.fromkeys(LAYERS, 0.0)
    counts: dict[str, int] = {}
    outside_s = 0.0
    critical_num = critical_den = 0.0
    for dump, wall_s, factor in dumps:
        names = dump["names"]
        start, end, parent, name = dump["start"], dump["end"], dump["parent"], dump["name"]
        duration = [(e - s) * factor for s, e in zip(start, end)]
        child_ns = [0.0] * len(duration)
        top_ns = 0.0
        cells_by_map: dict[int, list[float]] = {}
        for i, p in enumerate(parent):
            if p >= 0:
                child_ns[p] += duration[i]
            else:
                top_ns += duration[i]
        for i, n in enumerate(name):
            label = names[n]
            total_ns[label] = total_ns.get(label, 0) + duration[i]
            calls[label] = calls.get(label, 0) + 1
            layer = label.split(".", 1)[0]
            if layer in self_ns:
                self_ns[layer] += duration[i] - child_ns[i]
            if label == "classifier.classify_cell" and parent[i] >= 0:
                cells_by_map.setdefault(parent[i], []).append(duration[i])
        for durations in cells_by_map.values():
            critical_num += max(durations)
            critical_den += sum(durations)
        for key, value in dump["counts"].items():
            counts[key] = counts.get(key, 0) + value
        outside_s += max(wall_s * factor - top_ns / 1e9, 0.0)

    def secs(label: str) -> float:
        return total_ns.get(label, 0) / 1e9

    def count(label: str) -> int:
        return calls.get(label, 0)

    counts.update({f"{label}.calls": n for label, n in calls.items()})
    hits = counts.get("atlas.cell_cache_hits", 0)
    misses = counts.get("atlas.cell_cache_misses", 0)
    metrics = {
        "groups.aut_build_s": secs("groups.automorphisms"),
        "groups.aut_size_sum": counts.get("groups.aut_size_sum", 0),
        "groups.aut_applications": counts.get("groups.aut_applications", 0),
        "covers.canonical_form_s": secs("covers.canonical_cover_form"),
        "covers.canonical_form_calls": count("covers.canonical_cover_form"),
        "covers.candidates": counts.get("covers.candidates", 0),
        "covers.yielded": counts.get("covers.yielded", 0),
        "covers.yield_ratio": _ratio(counts.get("covers.yielded", 0), counts.get("covers.candidates", 0)),
        "covers.eigen_profile_calls": count("covers.eigen_profile"),
        "covers.genus_calls": count("covers.genus"),
        "atlas.cell_s": secs("atlas.actions_cell"),
        "atlas.cells_computed": misses,
        "atlas.canonical_profile_s": secs("atlas.canonical_profile"),
        "atlas.cell_cache_hit_ratio": _ratio(hits, hits + misses),
        "classifier.cell_s": secs("classifier.classify_cell"),
        "classifier.cells": counts.get("classifier.cells", 0),
        "classifier.branch_solve_s": secs("classifier.branch_solutions"),
        "classifier.branch_vectors": counts.get("classifier.branch_vectors", 0),
        "classifier.solutions": counts.get("classifier.solutions", 0),
        "classifier.dedup_ratio": _ratio(
            counts.get("classifier.solutions", 0), counts.get("classifier.branch_vectors", 0)
        ),
        "classifier.fit_s": secs("classifier.fit_families"),
        "classifier.families": counts.get("classifier.families", 0),
        "sandwich.invariants_s": secs("sandwich.invariants"),
        "sandwich.invariants_calls": count("sandwich.invariants"),
        "specfile.parse_s": secs("specfile.parse_sandwich"),
        "specfile.parse_calls": count("specfile.parse_sandwich"),
        "compare.compare_s": secs("compare.compare_with_reference")
        + secs("compare.compare_atlas_with_reference"),
        "compare.reference_rows": counts.get("compare.reference_rows", 0),
        "reference_tables.load_s": sum(
            ns for label, ns in total_ns.items() if label.startswith("reference_tables.")
        ) / 1e9,
        "render.render_s": sum(ns for label, ns in total_ns.items() if label.startswith("render.")) / 1e9,
        "render.bytes_out": counts.get("render.bytes_out", 0),
        "parallel.cells": counts.get("parallel.cells", 0),
        "parallel.critical_share": _ratio(critical_num, critical_den),
        "process.outside_s": outside_s,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_ns[layer] / 1e9
    return metrics, counts
