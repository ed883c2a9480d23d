"""Spans around the calls into each pgk layer, recorded from outside the
program by replacing the module attributes the CLI calls through.

Only the traced run installs them.  A span records its name, start, end,
parent span and job id; spans stay in memory until the run ends.  With
memory=True each span also records the tracemalloc peak above the level
at which it opened (tracemalloc slows jobs severalfold, so the timed
spans come from passes without it).
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc


def _edges(graph):
    return {"edges": len(getattr(graph, "edges", None) or getattr(graph, "arcs", ()))}


def _marking(marking):
    return {
        "candidates": len(marking.processing_order),
        "cc": len(marking.cc_vertices),
    }


# (module, attribute, span name, counts read off the result)
PATCHES = [
    ("pgk.cli", "parse_group_spec", "group_core.spec", None),
    ("pgk.group_core", "load_cayley_file", "group_core.load", None),
    ("pgk.group_core", "group_from_cayley_table", "group_core.validate", None),
    ("pgk.cli", "power_graph", "powergraph_build", _edges),
    ("pgk.cli", "enhanced_power_graph", "powergraph_build", _edges),
    ("pgk.cli", "directed_power_graph", "powergraph_build", _edges),
    ("pgk.graph_core", "relabel", "graph_core.relabel", None),
    ("pgk.cli", "format_graph", "graph_core.format", None),
    ("pgk.cli", "load_graph", "graph_core.parse", None),
    ("pgk.cli", "mark_ccg_power", "ccg_detection", _marking),
    ("pgk.cli", "mark_ccg_enhanced", "ccg_detection", _marking),
    ("pgk.cli", "r4_from_marked_graph", "reconstruction.r4", lambda r: {"m": r.m}),
    ("pgk.cli", "r3_from_r4", "reconstruction.r3", lambda r: {"r3_vertices": r.n}),
    ("pgk.cli", "r2_from_r3", "reconstruction.r2", None),
    ("pgk.cli", "r1_from_r2", "reconstruction.r1", None),
    ("pgk.cli", "cdpow_from_r1", "reconstruction.cdpow", lambda r: {"out_arcs": len(r.arcs)}),
    ("pgk.cli", "graph_iso_nilpotent", "nilpotent_iso", None),
    ("pgk.nilpotent_iso", "dpow_iso_nilpotent", "nilpotent_iso.dpow", None),
    ("pgk.nilpotent_iso", "reduce_r1", "reductions.r1", None),
    ("pgk.nilpotent_iso", "reduce_r2", "reductions.r2", None),
    ("pgk.nilpotent_iso", "reduce_r3", "reductions.r3", None),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "counts", "base", "peak", "child_s")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.job = job
        self.counts = {}
        self.base = self.peak = 0
        self.child_s = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s

    @property
    def peak_mib(self):
        return (self.peak - self.base) / 2**20

    def as_dict(self, index):
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "job": self.job,
            "counts": self.counts,
            "peak_mib": self.peak_mib,
        }


class Tracer:
    def __init__(self, memory: bool):
        self.memory = memory
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job = None

    def open(self, name) -> int:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, 0.0, parent, self.job)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                self.spans[parent].peak = max(self.spans[parent].peak, peak)
            tracemalloc.reset_peak()
            span.base = span.peak = current
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        return self.stack[-1]

    def close(self, index):
        span = self.spans[index]
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration
        if self.memory:
            span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
            if span.parent is not None:
                parent = self.spans[span.parent]
                parent.peak = max(parent.peak, span.peak)
            tracemalloc.reset_peak()

    def wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    try:
                        self.spans[index].counts = counter(result)
                    except (AttributeError, TypeError):
                        pass
                return result
            finally:
                self.close(index)

        return traced

    def install(self):
        """Patch every attribute in PATCHES that exists; return a function
        that restores them, and the names that were missing."""
        saved, missing = [], []
        for module_name, attr, name, counter in PATCHES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name, counter))

        def restore():
            for module, attr, fn in saved:
                setattr(module, attr, fn)

        return restore, missing


# --- per-layer metrics from one pass's spans -------------------------------

# metric -> span names whose self time it sums
SELF_TIME = {
    "group_core.load_s": ("group_core.spec", "group_core.load"),
    "group_core.validate_s": ("group_core.validate",),
    "powergraph_build.s": ("powergraph_build",),
    "graph_core.parse_s": ("graph_core.parse",),
    "graph_core.format_s": ("graph_core.format",),
    "graph_core.relabel_s": ("graph_core.relabel",),
    "ccg_detection.s": ("ccg_detection",),
    "reconstruction.r4_s": ("reconstruction.r4",),
    "reconstruction.r3_s": ("reconstruction.r3",),
    "reconstruction.r2_s": ("reconstruction.r2",),
    "reconstruction.r1_s": ("reconstruction.r1",),
    "reconstruction.cdpow_s": ("reconstruction.cdpow",),
    "nilpotent_iso.s": ("nilpotent_iso", "nilpotent_iso.dpow"),
    "reductions.r1_s": ("reductions.r1",),
    "reductions.r2_s": ("reductions.r2",),
    "reductions.r3_s": ("reductions.r3",),
    "cli.other_s": ("job",),
}
# metric -> (count key, span names)
COUNTS = {
    "powergraph_build.edges": ("edges", ("powergraph_build",)),
    "ccg_detection.candidates": ("candidates", ("ccg_detection",)),
    "ccg_detection.cc": ("cc", ("ccg_detection",)),
    "reconstruction.m": ("m", ("reconstruction.r4",)),
    "reconstruction.r3_vertices": ("r3_vertices", ("reconstruction.r3",)),
    "reconstruction.out_arcs": ("out_arcs", ("reconstruction.cdpow",)),
}
# metric -> span-name prefixes whose largest tracemalloc peak it reports
PEAKS = {
    "group_core.peak_mib": ("group_core.",),
    "powergraph_build.peak_mib": ("powergraph_build",),
    "graph_core.parse_mib": ("graph_core.parse",),
    "graph_core.format_mib": ("graph_core.format",),
    "graph_core.peak_mib": ("graph_core.",),
    "ccg_detection.peak_mib": ("ccg_detection",),
    "reconstruction.peak_mib": ("reconstruction.",),
    "nilpotent_iso.peak_mib": ("nilpotent_iso",),
}


def times_and_counts(spans: list[Span]) -> dict:
    out = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(s.self_s for s in spans if s.name in names)
    for metric, (key, names) in COUNTS.items():
        out[metric] = sum(s.counts.get(key, 0) for s in spans if s.name in names)
    cand = out["ccg_detection.candidates"]
    out["ccg_detection.cc_per_candidate"] = out["ccg_detection.cc"] / cand if cand else 0.0
    out["group_core.calls"] = sum(1 for s in spans if s.name.startswith("group_core."))
    out["nilpotent_iso.calls"] = sum(1 for s in spans if s.name == "nilpotent_iso")
    return out


def peaks(spans: list[Span]) -> dict:
    return {
        metric: max((s.peak_mib for s in spans if s.name.startswith(prefixes)), default=0.0)
        for metric, prefixes in PEAKS.items()
    }
