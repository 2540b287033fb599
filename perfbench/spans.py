"""In-memory spans around cgprune's public functions, wrapped from outside.

A `Tracer` replaces a function name in the module namespace that imports it
(for example `cgprune.pipeline.propagate`), so calls the program makes
through that name open a span: layer, function, start, end, parent span and
counters computed from the call's arguments and return value.  Nothing under
`src/` changes.  Spans stay in memory until `dump` writes them out.

A span's self time is its duration minus the durations of its direct child
spans.  The program is single-threaded, so children never overlap each
other and always lie inside their parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable

@dataclass
class Span:
    """One call at a layer boundary."""

    layer: str
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child_time)]


# Counters per wrapped function: (args, kwargs, result) -> counts.  They read
# only arguments, return values and the sizes of files named in arguments.

def _load_hierarchy(args, kwargs, h):
    return {"records_read": len(h.types) + 1, "bytes_read": os.path.getsize(args[0])}


def _load_call_graph(args, kwargs, cg):
    # one header, one record per node, one per edge (saved graphs are canonical)
    return {
        "records_read": 1 + cg.node_count + cg.edge_count,
        "bytes_read": os.path.getsize(args[0]),
    }


def _save(args, kwargs, result):
    return {"bytes_written": os.path.getsize(args[1])}


def _model_call(args, kwargs, result):
    return {"calls": 1}


def _find_origins(args, kwargs, om):
    return {"targets": len(om.entries), "ambiguous": len(om.ambiguous)}


def _label_all(args, kwargs, labels):
    return {"nodes_labelled": len(labels)}


def _prune(args, kwargs, pr):
    return {
        "calls": 1,
        "edges_scanned": args[0].edge_count,
        "candidate_edges": pr.candidate_edges,
        "pruned_edges": pr.pruned_edges,
    }


def _propagate(args, kwargs, rr):
    warmup = kwargs.get("warmup", 0)
    repetitions = kwargs.get("repetitions", 1)
    cves = len(args[1].vulnerable)
    return {
        "calls": 1,
        "useful_traversals": cves,
        "traversals": (warmup + repetitions) * cves,
        "reachable_pairs": rr.reachable_pairs,
    }


def _generate_call_graph(args, kwargs, cg):
    return {"edges_generated": cg.edge_count}


# (module, name) -> (layer, counter) for every public function the workloads
# reach.  Each name is wrapped where the calling module imported it, so
# nested calls such as io -> model and vulnsim -> model open child spans.
WRAPPED: dict[tuple[str, str], tuple[str, Callable | None]] = {
    ("cgprune.cli", "main"): ("cli", None),
}
for _mod in ("cgprune.cli", "cgprune.pipeline"):
    WRAPPED.update({
        (_mod, "load_hierarchy"): ("io", _load_hierarchy),
        (_mod, "load_call_graph"): ("io", _load_call_graph),
        (_mod, "find_origins"): ("origins", _find_origins),
        (_mod, "origin_edge_frequencies"): ("origins", None),
        (_mod, "build_exclusion_list"): ("origins", None),
        (_mod, "label_all"): ("localness", _label_all),
        (_mod, "localness_distribution"): ("localness", None),
        (_mod, "prune_exhaustive"): ("pruning", _prune),
        (_mod, "inject_artificial_cves"): ("vulnsim", None),
        (_mod, "propagate"): ("vulnsim", _propagate),
        (_mod, "compare"): ("vulnsim", None),
    })
WRAPPED.update({
    ("cgprune.cli", "save_call_graph"): ("io", _save),
    ("cgprune.cli", "unique_derivative_counts"): ("origins", None),
    ("cgprune.cli", "run_pipeline"): ("pipeline", None),
    ("cgprune.cli", "write_report_csv"): ("pipeline", None),
    ("cgprune.cli", "write_aggregates_csv"): ("pipeline", None),
    ("cgprune.cli", "write_report_json"): ("pipeline", None),
    ("cgprune.io", "build_call_graph"): ("model", _model_call),
    ("cgprune.io", "validate_call_graph"): ("model", _model_call),
    ("cgprune.io", "validate_hierarchy"): ("model", _model_call),
    ("cgprune.vulnsim", "reverse_adjacency"): ("model", _model_call),
    ("cgprune.synth", "build_call_graph"): ("model", _model_call),
    # the benchmark's own set-up calls these through their home modules
    ("cgprune.synth", "generate_hierarchy"): ("synth", None),
    ("cgprune.synth", "generate_call_graph_cha"): ("synth", _generate_call_graph),
    ("cgprune.io", "save_hierarchy"): ("io", _save),
    ("cgprune.io", "save_call_graph"): ("io", _save),
})


class Tracer:
    """Records spans for the wrapped names while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn: Callable, counter: Callable | None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(layer, name, time.perf_counter(), parent)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Replace every name in WRAPPED with its traced version."""
        for (mod_name, attr), (layer, counter) in WRAPPED.items():
            module = importlib.import_module(mod_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(layer, f"{layer}.{fn.__name__}", fn, counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    @staticmethod
    def dump(groups: list[list[Span]], path: str) -> None:
        """Write span groups (one per traced run) as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([[vars(s) for s in group] for group in groups], fh)


def summarize(spans: list[Span]) -> dict[str, float]:
    """Totals for one traced run: busy time per function (`<name>_s`), self
    time per layer (`<layer>.self_s`) and the counters summed per layer."""
    out: dict[str, float] = {}
    for s, self_s in zip(spans, self_times(spans)):
        out[f"{s.name}_s"] = out.get(f"{s.name}_s", 0.0) + s.duration
        out[f"{s.layer}.self_s"] = out.get(f"{s.layer}.self_s", 0.0) + self_s
        for key, value in s.counts.items():
            out[f"{s.layer}.{key}"] = out.get(f"{s.layer}.{key}", 0) + value
    return out
