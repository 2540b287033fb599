"""Batch pipeline: load or generate graphs, analyze, prune, measure, report.

One run walks every graph in the corpus through the same stages: origin
analysis, frequency ranking, localness labelling, then for each Top-N in the
sweep: build the exclusion list, prune, re-run vulnerability propagation, and
diff against the unpruned baseline.  A stage that fails on bad input drops
that graph from the report with a logged reason and the run continues; a
bug in the analysis itself is raised, not recorded.

Reports carry one record per (graph, N) plus per-N aggregates, recomputable
from the records: the mean is ``math.fsum(column) / len(column)``, the
population standard deviation is `statistics.pstdev`'s and exactly ``0.0``
for a constant column, and a column holding inf or nan raises a ValueError.
Everything except elapsed-time columns is deterministic for a fixed config;
timing columns are the ones whose names end in ``_s``.  `report.json` is
streamed item by item, each record or aggregate row encoded by one C
encoder call.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
from collections import Counter
from dataclasses import dataclass, fields, replace
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Mapping

from .io import apply_core_prefixes, checked, checked_list, load_call_graph, load_hierarchy
from .localness import LocalnessOptions, label_all, localness_distribution
from .model import CallGraph, GraphError, TypeHierarchy
from .origins import build_exclusion_list, find_origins, origin_edge_frequencies
from .pruning import ORACLES, prune_exhaustive, prune_selective
from .synth import GenParams, generate_call_graph_cha, generate_hierarchy
from .vulnsim import ProjectRoleMap, compare, inject_artificial_cves, propagate

log = logging.getLogger(__name__)

DEFAULT_SWEEP = (1, 2, 3, 5, 10, 25, 50, 100, 1000)

MODES = ("exhaustive", "selective")


class ConfigError(ValueError):
    """The pipeline config file is malformed or inconsistent."""


# Each scalar config key: its JSON kind, then its least and greatest allowed
# values, if any.  `mode` and `oracle` are names from a fixed set.
_SCALARS: dict[str, tuple] = {
    "corpus": (str,),
    "threshold": (float, 0, 1),
    "cve_count": (int, 1),
    "cve_seed": (int,),
    "include_core_cves": (bool,),
    "application_project": (str,),
    "warmup": (int, 0),
    "repetitions": (int, 1),
    "localness_top": (int, 0),
    "extended_hierarchy": (bool,),
    "package_boundary": (bool,),
}


@dataclass(frozen=True)
class GraphInput:
    """One on-disk graph: an id plus its hierarchy and call-graph files."""

    graph_id: str
    hierarchy_path: str
    callgraph_path: str


@dataclass(frozen=True)
class SyntheticSpec:
    """Generate `count` graphs from `params`, bumping the seed per graph."""

    count: int
    params: GenParams


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one pipeline run needs, loadable from a JSON object whose
    keys are these fields."""

    corpus: str = "corpus"
    inputs: tuple[GraphInput, ...] = ()
    synthetic: SyntheticSpec | None = None
    sweep: tuple[int, ...] = DEFAULT_SWEEP
    mode: str = "exhaustive"
    threshold: float = 0.95
    oracle: str = "keep-all"
    cve_count: int = 100
    cve_seed: int = 0
    include_core_cves: bool = False
    application_project: str = "p1"
    warmup: int = 1
    repetitions: int = 3
    localness_top: int = 10
    extended_hierarchy: bool = True
    package_boundary: bool = False
    core_prefixes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # The stages reject bad values too, but only per graph: checked
        # here, they fail the config once instead of every graph.
        try:
            for name, rule in _SCALARS.items():
                checked(name, getattr(self, name), *rule)
            # a JSON array arrives as a list; the fields hold tuples
            object.__setattr__(self, "sweep", checked_list("sweep", self.sweep, int))
            object.__setattr__(
                self, "core_prefixes", checked_list("core_prefixes", self.core_prefixes, str)
            )
            for n in self.sweep:
                checked("sweep values", n, int, 0)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.oracle not in tuple(ORACLES):
            raise ConfigError(
                f"oracle must be one of {tuple(ORACLES)}, got {self.oracle!r}"
            )
        if not self.inputs and self.synthetic is None:
            raise ConfigError("config names no input graphs and no synthetic spec")
        if not self.sweep:
            raise ConfigError("sweep must name at least one Top-N")
        # a repeated id or N would give rows that cannot be told apart
        for name, values in (("graph ids", self.graph_ids), ("sweep values", self.sweep)):
            repeated = [v for v, k in Counter(values).items() if k > 1]
            if repeated:
                raise ConfigError(
                    f"{name} must be distinct, got {repeated[0]!r} more than once"
                )

    @property
    def graph_ids(self) -> tuple[str, ...]:
        """Every graph's id in run order: the inputs' ids, then ``syn000``,
        ``syn001``, ... for the synthetic graphs."""
        count = self.synthetic.count if self.synthetic is not None else 0
        return (*(g.graph_id for g in self.inputs), *(f"syn{i:03d}" for i in range(count)))

    @classmethod
    def from_mapping(cls, data: Mapping, base_dir: str = ".") -> "PipelineConfig":
        """The config of a JSON object: `inputs` and `synthetic` are built
        here, every other key goes to its field as it is."""
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

        def resolve(p: str) -> str:
            return p if os.path.isabs(p) else os.path.join(base_dir, p)

        inputs = []
        synthetic = None
        try:
            for i, item in enumerate(checked_list("inputs", data.get("inputs", []), dict)):
                entry = {"id": item.get("id", f"g{i:03d}")}
                try:
                    entry.update((k, item[k]) for k in ("hierarchy", "callgraph"))
                except KeyError as exc:
                    raise ValueError(f"inputs[{i}] missing field {exc.args[0]!r}") from None
                graph_id, hierarchy, callgraph = (
                    checked(f"inputs[{i}].{key}", value, str) for key, value in entry.items()
                )
                inputs.append(GraphInput(graph_id, resolve(hierarchy), resolve(callgraph)))
            if "synthetic" in data:
                spec = data["synthetic"]
                params = spec.get("params", {}) if isinstance(spec, dict) else None
                if not isinstance(params, dict):
                    raise TypeError(
                        f"synthetic must be an object with an object 'params', got {spec!r}"
                    )
                sites = params.get("call_sites_per_method")
                if type(sites) is list:  # a JSON array; the field is a pair
                    params = {**params, "call_sites_per_method": tuple(sites)}
                try:
                    params = GenParams(**params)
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"synthetic.params: {exc}") from None
                count = checked("synthetic.count", spec.get("count", 1), int, 1)
                synthetic = SyntheticSpec(count=count, params=params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        return cls(**{**data, "inputs": tuple(inputs), "synthetic": synthetic})

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        """The config of a UTF-8 JSON file; bytes that are not UTF-8 and bad
        JSON fail as ``path:line:``, as in the input files."""
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            data = json.loads(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            line = raw.count(b"\n", 0, exc.start) + 1
            raise ConfigError(
                f"{path}:{line}: invalid UTF-8: byte 0x{raw[exc.start]:02x}"
            ) from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        return cls.from_mapping(data, base_dir=os.path.dirname(path) or ".")


@dataclass(frozen=True)
class GraphSummary:
    """Baseline facts about one graph before any pruning."""

    graph_id: str
    nodes: int
    edges: int
    duplicate_edges: int
    localness_levels: tuple[int, int, int, int]
    top_origins: tuple[tuple[str, int], ...]
    origin_localness: tuple[tuple[str, tuple[float, float, float, float] | None], ...]
    vulnerable_count: int
    base_pairs: int
    base_fraction: float
    base_elapsed_s: float


@dataclass(frozen=True)
class SweepRecord:
    """One (graph, Top-N) measurement row."""

    graph_id: str
    top_n: int
    nodes: int
    edges: int
    reduction_ratio: float
    reachable_pairs: int
    reachable_fraction: float
    pair_delta: int
    fraction_delta: float
    analysis_elapsed_s: float
    prune_elapsed_s: float


@dataclass(frozen=True)
class PipelineError:
    """Why one graph produced no records; `error_type` is the exception's class."""

    graph_id: str
    stage: str
    message: str
    error_type: str


REPORT_COLUMNS = tuple(f.name for f in fields(SweepRecord))
AGGREGATE_COLUMNS = REPORT_COLUMNS[2:]
TIMING_COLUMNS = ("analysis_elapsed_s", "prune_elapsed_s")
_AGGREGATE_FIELDS = attrgetter(*AGGREGATE_COLUMNS)


@dataclass(frozen=True)
class AnalysisReport:
    """Everything one pipeline run produced."""

    corpus: str
    graphs: tuple[GraphSummary, ...]
    records: tuple[SweepRecord, ...]
    errors: tuple[PipelineError, ...]

    def aggregates(self) -> dict[int, dict[str, tuple[float, float]]]:
        """Per Top-N mean and population standard deviation of each column.

        The mean is ``math.fsum(column) / len(column)``, the body of
        `statistics.fmean` and so its float; the deviation is
        `statistics.pstdev`'s, exactly ``0.0`` for a column whose values
        are all equal.  A column holding inf or nan has neither: it is a
        ValueError that names the column and the Top-N.  Computed once per
        report and shared by every caller, so treat the result as read-only.
        """
        return self._aggregates

    @cached_property
    def _aggregates(self) -> dict[int, dict[str, tuple[float, float]]]:
        # rows become columns and every per-value step (finiteness, sum,
        # count) is one C-level call per column
        by_n: dict[int, list[tuple]] = {}
        for r in self.records:
            by_n.setdefault(r.top_n, []).append(_AGGREGATE_FIELDS(r))
        out: dict[int, dict[str, tuple[float, float]]] = {}
        for n in sorted(by_n):
            cols: dict[str, tuple[float, float]] = {}
            for name, values in zip(AGGREGATE_COLUMNS, zip(*by_n[n])):
                if not all(map(math.isfinite, values)):
                    bad = next(v for v in map(float, values) if not math.isfinite(v))
                    raise ValueError(f"cannot aggregate {name} at Top-N {n}: it holds {bad!r}")
                count = len(values)
                # every column of a one-graph run is constant and skips
                # pstdev's exact fraction arithmetic
                if values.count(values[0]) == count:
                    std = 0.0
                else:
                    # imported here: `import cgprune.cli` must not load
                    # statistics, fractions and decimal (~5.6 ms under
                    # `-X importtime` on a 2-core Xeon)
                    from statistics import pstdev

                    std = pstdev(map(float, values))
                cols[name] = (math.fsum(values) / count, std)
            out[n] = cols
        return out


def _sources(
    config: PipelineConfig,
) -> list[tuple[str, Callable[[], tuple[TypeHierarchy, CallGraph]]]]:
    loaders: list[Callable[[], tuple[TypeHierarchy, CallGraph]]] = []
    for gin in config.inputs:
        def load(gin: GraphInput = gin) -> tuple[TypeHierarchy, CallGraph]:
            h = load_hierarchy(gin.hierarchy_path)
            h = apply_core_prefixes(h, list(config.core_prefixes))
            return h, load_call_graph(gin.callgraph_path, h)
        loaders.append(load)
    if config.synthetic is not None:
        base = config.synthetic.params
        for i in range(config.synthetic.count):
            params = replace(base, seed=base.seed + i)
            def gen(params: GenParams = params) -> tuple[TypeHierarchy, CallGraph]:
                h = generate_hierarchy(params)
                return h, generate_call_graph_cha(h, params)
            loaders.append(gen)
    return list(zip(config.graph_ids, loaders))


def run_pipeline(config: PipelineConfig) -> AnalysisReport:
    """Run every configured graph through the full analysis.

    Deterministic given the config (and input files), except for elapsed
    times.  A graph that fails with a domain error (`GraphError`,
    `ValueError` or `OSError`) is reported under `errors` and skipped whole,
    so aggregates never mix complete and partial sweeps; any other exception
    is a bug and propagates.
    """
    graphs: list[GraphSummary] = []
    records: list[SweepRecord] = []
    errors: list[PipelineError] = []
    roles = ProjectRoleMap(application_project_id=config.application_project)
    options = LocalnessOptions(
        extended_hierarchy=config.extended_hierarchy,
        package_boundary=config.package_boundary,
    )
    for index, (graph_id, load) in enumerate(_sources(config)):
        stage = "load"
        try:
            h, cg = load()
            stage = "origins"
            origins = find_origins(cg, h)
            stage = "frequencies"
            table = origin_edge_frequencies(cg, origins)
            stage = "localness"
            labels = label_all(cg, h, options)
            level_counts = Counter(labels.values())
            top_rows = table.top(config.localness_top)
            top = [origin for origin, _ in top_rows]
            dist = localness_distribution(origins, labels, top)
            stage = "inject"
            assignment = inject_artificial_cves(
                cg, h, roles, config.cve_count, config.cve_seed + index,
                include_core=config.include_core_cves,
            )
            stage = "propagate-base"
            base = propagate(
                cg, assignment, roles, h,
                warmup=config.warmup, repetitions=config.repetitions,
            )
            summary = GraphSummary(
                graph_id=graph_id,
                nodes=cg.node_count,
                edges=cg.edge_count,
                duplicate_edges=cg.duplicate_count,
                localness_levels=tuple(level_counts.get(v, 0) for v in range(4)),
                top_origins=tuple(
                    (origin.render(h), count) for origin, count in top_rows
                ),
                origin_localness=tuple(
                    (origin.render(h), dist.per_origin[origin]) for origin in top
                ),
                vulnerable_count=len(assignment.vulnerable),
                base_pairs=base.reachable_pairs,
                base_fraction=base.reachable_vuln_fraction,
                base_elapsed_s=base.elapsed,
            )
            graph_records = []
            for n in config.sweep:
                stage = f"prune-top{n}"
                excl = build_exclusion_list(table, n)
                if config.mode == "exhaustive":
                    pr = prune_exhaustive(cg, excl, h)
                else:
                    pr = prune_selective(
                        cg, excl, h, ORACLES[config.oracle](), config.threshold
                    )
                stage = f"propagate-top{n}"
                prop = propagate(
                    pr.pruned_graph, assignment, roles, h,
                    warmup=config.warmup, repetitions=config.repetitions,
                )
                delta = compare(base, prop)
                graph_records.append(SweepRecord(
                    graph_id=graph_id,
                    top_n=n,
                    nodes=pr.pruned_graph.node_count,
                    edges=pr.pruned_graph.edge_count,
                    reduction_ratio=pr.reduction_ratio,
                    reachable_pairs=prop.reachable_pairs,
                    reachable_fraction=prop.reachable_vuln_fraction,
                    pair_delta=delta.pair_delta,
                    fraction_delta=delta.fraction_delta,
                    analysis_elapsed_s=prop.elapsed,
                    prune_elapsed_s=pr.elapsed,
                ))
        except (GraphError, ValueError, OSError) as exc:
            log.warning("graph %s failed at stage %s: %s", graph_id, stage, exc)
            errors.append(PipelineError(graph_id, stage, str(exc), type(exc).__name__))
            continue
        graphs.append(summary)
        records.extend(graph_records)
    return AnalysisReport(
        corpus=config.corpus,
        graphs=tuple(graphs),
        records=tuple(records),
        errors=tuple(errors),
    )


def write_report_csv(report: AnalysisReport, path: str) -> None:
    """Per-(graph, N) records, one row each, in run order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for r in report.records:
            writer.writerow(vars(r).values())


def write_aggregates_csv(report: AnalysisReport, path: str) -> None:
    """Per-N aggregate rows: `<column>_mean` and `<column>_std` pairs."""
    header = ["top_n"]
    for name in AGGREGATE_COLUMNS:
        header.extend([f"{name}_mean", f"{name}_std"])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for n, cols in sorted(report.aggregates().items()):
            row: list[object] = [n]
            for name in AGGREGATE_COLUMNS:
                mean, std = cols[name]
                row.extend([mean, std])
            writer.writerow(row)


def _object_template(keys: Iterable[str], depth: int, value: str = "%s") -> str:
    """A sorted-keys ``indent=2`` JSON object whose opening brace sits
    `depth` levels deep, with `value` (a %-template) for every key."""
    pad = "\n" + "  " * depth
    items = ",".join(
        f"{pad}  {encode_basestring_ascii(k)}: {value}" for k in sorted(keys)
    )
    return "{" + items + pad + "}"


def _json_items(open_: str, close: str, items: Iterable[str]) -> Iterator[str]:
    """A top-level value's array or object in the ``indent=2`` layout: the
    items as given (each indented and without its comma), or ``[]``/``{}``."""
    separator = open_ + "\n"
    for item in items:
        yield separator
        yield item
        separator = ",\n"
    yield "\n  " + close if separator == ",\n" else open_ + close


def _nested_json(row: object) -> str:
    """A dataclass row as an item of a top-level array, as `json.dump` writes it."""
    return "    " + json.dumps(vars(row), sort_keys=True, indent=2).replace("\n", "\n    ")


# `write_report_json` fills one template per record and one per Top-N, with
# the values in sorted-key order
_RECORD_FIELDS = attrgetter(*sorted(REPORT_COLUMNS))
_RECORD_ITEM = "    " + _object_template(REPORT_COLUMNS, 2)
_AGGREGATE_NAMES = sorted(AGGREGATE_COLUMNS)
_AGGREGATE_PAIRS = itemgetter(*_AGGREGATE_NAMES)
_AGGREGATE_ITEM = '    "%s": ' + _object_template(
    _AGGREGATE_NAMES, 2, _object_template(("mean", "std"), 3)
)
# With ensure_ascii a NUL inside a string is written \u0000, so in this
# encoder's output a raw NUL can only be a separator.
_encode_row = json.JSONEncoder(separators=("\0", ":"), check_circular=False).encode


def _json_row(values: list | tuple) -> tuple[str, ...]:
    """Each value as `json.dump` writes it, from one C encoder call."""
    return tuple(_encode_row(values)[1:-1].split("\0"))


def write_report_json(report: AnalysisReport, path: str) -> None:
    """The full report as `json.dump(payload, sort_keys=True, indent=2)`
    writes it (tuples as lists), plus a newline, byte for byte.

    Records and aggregates, the bulk of a report, are filled into per-item
    templates, each item's values encoded by one C encoder call, and
    streamed to the file one item at a time; the one-per-graph summaries
    and errors go through `json.dumps`.
    """
    aggregates = report.aggregates()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n  "aggregates": ')
        # a list, not tuple(): a tuple of an iterator is grown by resizing,
        # and every resized 18-tuple then stays on the tuple free list
        fh.writelines(_json_items("{", "}", (
            _AGGREGATE_ITEM % (
                n, *_json_row([*chain.from_iterable(_AGGREGATE_PAIRS(aggregates[n]))])
            )
            for n in sorted(aggregates, key=str)  # json sorts the keys as strings
        )))
        fh.write(f',\n  "corpus": {json.dumps(report.corpus)},\n  "errors": ')
        fh.writelines(_json_items("[", "]", map(_nested_json, report.errors)))
        fh.write(',\n  "graphs": ')
        fh.writelines(_json_items("[", "]", map(_nested_json, report.graphs)))
        fh.write(',\n  "records": ')
        fh.writelines(_json_items("[", "]", (
            _RECORD_ITEM % _json_row(_RECORD_FIELDS(r)) for r in report.records
        )))
        fh.write("\n}\n")
