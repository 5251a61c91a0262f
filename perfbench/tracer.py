"""Span tracer that wraps the public entry points of each ``extremal`` layer.

The tracer lives in the benchmark, not in the program: ``install`` replaces
each wrapped function by a timing wrapper in its defining module *and* in
every loaded ``extremal.*`` module that holds the same object, so bindings
made by ``from .isomorphism import canonical_form`` and call-time imports
(``symmetrization`` imports ``maximize`` inside a function) all see it.  A
name that a later version of the program removes or renames is recorded as
absent and its metrics are left out; nothing crashes.

Each call becomes one span (id, parent id, name, start, end) kept in memory
and written out by ``write_spans`` when the run ends.  A span's self time is
its duration minus the time covered by wrapped child spans.  Leaves called
too often to time (``project_to_simplex``) are only counted.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

TIMED = {
    "isomorphism": ("canonical_form", "enumerate_rgraphs"),
    "morphism": ("is_free", "contains_subgraph", "has_homomorphism", "find_generalized_triangle"),
    "symmetrization": ("symmetrize", "free_representatives", "ex_bruteforce", "ex_via_patterns"),
    "stability": ("in_hull", "krl_coloring", "rainbow_partition", "vertex_deletion_distance",
                  "edge_deletion_distance", "check_vertex_extendable", "scan_stability"),
    "lagrangian": ("maximize",),
    "workbench": ("run",),
}
COUNTED = {"lagrangian": ("project_to_simplex",)}

# Imported before wrapping so that every binding of a wrapped object exists.
MODULES = ("errors", "rgraph", "hgr", "isomorphism", "morphism", "constructions",
           "lagrangian", "symmetrization", "stability", "workbench", "cli")

# derived metric -> (function it describes, numerator counter, denominator
# counter or None for the function's own calls)
RATIOS = {
    "isomorphism.candidates_per_class": (
        "isomorphism.enumerate_rgraphs", "canonical_form_in_enumeration", "enumerated_classes"),
    "isomorphism.canonical_form.repeat_ratio": (
        "isomorphism.canonical_form", "canonical_form_repeats", None),
    "morphism.is_free.free_ratio": ("morphism.is_free", "free_verdicts", None),
    "symmetrization.steps_per_call": ("symmetrization.symmetrize", "symmetrize_steps", None),
    "stability.edge_deletion_distance.inexact_ratio": (
        "stability.edge_deletion_distance", "inexact_edge_distances", None),
    "lagrangian.maximize.converged_ratio": ("lagrangian.maximize", "converged_maxima", None),
    "lagrangian.maximize.miss_ratio": ("lagrangian.maximize", "misses", "referenced_multistart"),
}


def metric_names() -> list[str]:
    """Every per-layer metric the tracer can report, in a fixed order."""
    names = []
    for layer, fns in TIMED.items():
        for fn in fns:
            names += [f"{layer}.{fn}.calls", f"{layer}.{fn}.self_s", f"{layer}.{fn}.failed"]
    for layer, fns in COUNTED.items():
        names += [f"{layer}.{fn}.calls" for fn in fns]
    return names + list(RATIOS)


@dataclass
class FnStats:
    calls: int = 0
    self_s: float = 0.0
    failed: int = 0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, FnStats] = {}
        self.absent: list[str] = []
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.counters = {
            "canonical_form_repeats": 0,
            "canonical_form_in_enumeration": 0,
            "enumerated_classes": 0,
            "free_verdicts": 0,
            "symmetrize_steps": 0,
            "inexact_edge_distances": 0,
            "converged_maxima": 0,
        }
        self._stack: list[list] = []  # open spans: [span id, seconds covered by children]
        self._next_id = 0
        self._seen_graphs: set = set()
        self._enumerating = 0
        self._counted_only: set[str] = set()
        self.origin = time.perf_counter()

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        for name in MODULES:
            try:
                importlib.import_module(f"extremal.{name}")
            except ModuleNotFoundError:
                pass  # a removed module leaves its functions absent
        for layer, fns in TIMED.items():
            for fn in fns:
                self._wrap(f"{layer}.{fn}", self._timed)
        for layer, fns in COUNTED.items():
            for fn in fns:
                self._wrap(f"{layer}.{fn}", self._counted)
        return self

    def _wrap(self, qual: str, make: Callable) -> None:
        layer, fn = qual.split(".")
        original = getattr(sys.modules.get(f"extremal.{layer}"), fn, None)
        if not callable(original):
            self.absent.append(qual)
            return
        self.stats[qual] = FnStats()
        wrapper = make(qual, original)
        for modname, module in list(sys.modules.items()):
            if modname == "extremal" or modname.startswith("extremal."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _counted(self, qual: str, original: Callable) -> Callable:
        stats = self.stats[qual]
        self._counted_only.add(qual)

        def wrapper(*args, **kwargs):
            stats.calls += 1
            return original(*args, **kwargs)

        return wrapper

    def _timed(self, qual: str, original: Callable) -> Callable:
        stats = self.stats[qual]
        name_id = len(self.names)
        self.names.append(qual)
        observe = self._observers.get(qual)
        enumerates = qual == "isomorphism.enumerate_rgraphs"
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            stats.calls += 1
            if qual == "isomorphism.canonical_form":
                self._note_canonical_form(args[0])
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            self._enumerating += enumerates
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                stats.failed += 1
                raise
            finally:
                end = clock()
                self._enumerating -= enumerates
                stack.pop()
                stats.self_s += (end - start) - frame[1]
                if stack:
                    stack[-1][1] += end - start
                spans.append((span_id, parent, name_id, start, end))
            if observe is not None:
                self.counters[observe[0]] += observe[1](result)
            return result

        return wrapper

    def _note_canonical_form(self, h) -> None:
        key = (h.r, h.n, h.edges)
        if key in self._seen_graphs:
            self.counters["canonical_form_repeats"] += 1
        else:
            self._seen_graphs.add(key)
        if self._enumerating:
            self.counters["canonical_form_in_enumeration"] += 1

    # wrapped function -> (counter, amount to add for one returned value)
    _observers = {
        "isomorphism.enumerate_rgraphs": ("enumerated_classes", len),
        "morphism.is_free": ("free_verdicts", bool),
        "symmetrization.symmetrize": ("symmetrize_steps", lambda trace: len(trace.steps)),
        "stability.edge_deletion_distance": ("inexact_edge_distances", lambda res: not res[1]),
        "lagrangian.maximize": ("converged_maxima", lambda res: bool(res.converged)),
    }

    # -- results -----------------------------------------------------------

    def metrics(self, tally: dict[str, int]) -> dict[str, float]:
        """Per-layer metrics by name.  ``tally`` holds counters filled by the
        workload's reference checks.  A ratio whose base is 0 reads 0; metrics
        of absent functions are left out."""
        out: dict[str, float] = {}
        for qual, st in self.stats.items():
            out[f"{qual}.calls"] = st.calls
            if qual not in self._counted_only:
                out[f"{qual}.self_s"] = st.self_s
                out[f"{qual}.failed"] = st.failed
        counts = {**self.counters, **tally}
        for name, (qual, num, den) in RATIOS.items():
            if qual in self.stats:
                base = self.stats[qual].calls if den is None else counts.get(den, 0)
                out[name] = counts.get(num, 0) / base if base else 0.0
        return out

    def write_spans(self, path: Path) -> None:
        """One CSV line per span: id, parent id (-1 for a root), name, and
        start and end in seconds since the tracer was created."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for span_id, parent, name_id, start, end in sorted(self.spans):
                fh.write(f"{span_id},{parent},{self.names[name_id]},"
                         f"{start - self.origin:.9f},{end - self.origin:.9f}\n")
