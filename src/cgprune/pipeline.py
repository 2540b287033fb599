"""Batch pipeline: load or generate graphs, analyze, prune, measure, report.

One run walks every graph in the corpus through the same stages: origin
analysis, frequency ranking, localness labelling, then for each Top-N in the
sweep: build the exclusion list, prune, re-run vulnerability propagation, and
diff against the unpruned baseline.  A stage that fails on bad input drops
that graph from the report with a logged reason and the run continues; a
bug in the analysis itself is raised, not recorded.

Reports carry one record per (graph, N) plus per-N aggregates (mean and
population standard deviation, recomputable from the records).  Everything
except elapsed-time columns is deterministic for a fixed config; timing
columns are the ones whose names end in ``_s``.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import statistics
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Callable, Mapping

from .io import apply_core_prefixes, load_call_graph, load_hierarchy
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


# Each scalar config key: its JSON type and its least allowed value (None for
# no bound).  The localness keys are fields of `PipelineConfig.localness`.
_SCALARS: dict[str, tuple[type, int | None]] = {
    "corpus": (str, None),
    "application_project": (str, None),
    "include_core_cves": (bool, None),
    "extended_hierarchy": (bool, None),
    "package_boundary": (bool, None),
    "cve_count": (int, 1),
    "cve_seed": (int, None),
    "warmup": (int, 0),
    "repetitions": (int, 1),
    "localness_top": (int, 0),
}
_LOCALNESS_KEYS = ("extended_hierarchy", "package_boundary")
_TYPE_NAMES = {str: "a string", bool: "a boolean", int: "an integer"}


def _json_list(name: str, value: object, kind: type, what: str) -> tuple:
    """`value` as a tuple, if it is a JSON array of `kind` items (booleans
    never count as integers)."""
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(v, kind) and not isinstance(v, bool) for v in value
    ):
        raise ConfigError(f"{name} must be a list of {what}, got {value!r}")
    return tuple(value)


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
    """Everything one pipeline run needs, loadable from a JSON file."""

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
    localness: LocalnessOptions = field(default_factory=LocalnessOptions)
    core_prefixes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.oracle, str) or self.oracle not in ORACLES:
            raise ConfigError(
                f"oracle must be one of {tuple(ORACLES)}, got {self.oracle!r}"
            )
        if not self.inputs and self.synthetic is None:
            raise ConfigError("config names no input graphs and no synthetic spec")
        if any(n < 0 for n in self.sweep):
            raise ConfigError(f"sweep values must be non-negative, got {self.sweep}")
        # a repeated id or N would give rows that cannot be told apart
        for name, values in (("graph ids", self.graph_ids), ("sweep values", self.sweep)):
            repeated = [v for v, k in Counter(values).items() if k > 1]
            if repeated:
                raise ConfigError(
                    f"{name} must be distinct, got {repeated[0]!r} more than once"
                )
        # The stages reject these values too, but only per graph: checked
        # here, they fail the config once instead of every graph.
        threshold = self.threshold
        if (isinstance(threshold, bool) or not isinstance(threshold, (int, float))
                or not 0.0 <= threshold <= 1.0):
            raise ConfigError(f"threshold must be in [0, 1], got {threshold!r}")
        for name, (kind, low) in _SCALARS.items():
            value = getattr(self.localness if name in _LOCALNESS_KEYS else self, name)
            # a boolean is an int to Python but never a number here
            if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
                raise ConfigError(f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")
            if low is not None and value < low:
                rule = "positive" if low else "non-negative"
                raise ConfigError(f"{name} must be {rule}, got {value!r}")

    @property
    def graph_ids(self) -> tuple[str, ...]:
        """Every graph's id in run order: the inputs' ids, then ``syn000``,
        ``syn001``, ... for the synthetic graphs."""
        count = self.synthetic.count if self.synthetic is not None else 0
        return (*(g.graph_id for g in self.inputs), *(f"syn{i:03d}" for i in range(count)))

    @classmethod
    def from_mapping(cls, data: Mapping, base_dir: str = ".") -> "PipelineConfig":
        known = {f.name for f in fields(cls)} - {"localness"} | set(_SCALARS)
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

        def resolve(p: str) -> str:
            return p if os.path.isabs(p) else os.path.join(base_dir, p)

        inputs = []
        items = _json_list("inputs", data.get("inputs", []), dict, "objects")
        for i, item in enumerate(items):
            entry = {"id": item.get("id", f"g{i:03d}")}
            try:
                entry.update((k, item[k]) for k in ("hierarchy", "callgraph"))
            except KeyError as exc:
                raise ConfigError(
                    f"inputs[{i}] missing field {exc.args[0]!r}"
                ) from None
            for key, value in entry.items():
                if not isinstance(value, str):
                    raise ConfigError(
                        f"inputs[{i}].{key} must be a string, got {value!r}"
                    )
            inputs.append(GraphInput(
                graph_id=entry["id"],
                hierarchy_path=resolve(entry["hierarchy"]),
                callgraph_path=resolve(entry["callgraph"]),
            ))
        synthetic = None
        if "synthetic" in data:
            spec = data["synthetic"]
            params_data = spec.get("params", {}) if isinstance(spec, dict) else None
            if not isinstance(params_data, dict):
                raise ConfigError(
                    f"synthetic must be an object with an object 'params', got {spec!r}"
                )
            params_data = dict(params_data)
            sites = params_data.get("call_sites_per_method")
            if isinstance(sites, list):
                params_data["call_sites_per_method"] = tuple(sites)
            try:
                params = GenParams(**params_data)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"synthetic.params: {exc}") from None
            count = spec.get("count", 1)
            if not isinstance(count, int) or isinstance(count, bool):
                raise ConfigError(f"synthetic.count must be an integer, got {count!r}")
            if count < 1:
                raise ConfigError(f"synthetic.count must be positive, got {count}")
            synthetic = SyntheticSpec(count=count, params=params)
        kwargs = {
            k: data[k] for k in ("mode", "threshold", "oracle", *_SCALARS)
            if k in data and k not in _LOCALNESS_KEYS
        }
        if "sweep" in data:
            kwargs["sweep"] = _json_list("sweep", data["sweep"], int, "integers")
        if "core_prefixes" in data:
            kwargs["core_prefixes"] = _json_list(
                "core_prefixes", data["core_prefixes"], str, "strings"
            )
        localness = LocalnessOptions(
            **{k: data[k] for k in _LOCALNESS_KEYS if k in data}
        )
        return cls(
            inputs=tuple(inputs),
            synthetic=synthetic,
            localness=localness,
            **kwargs,
        )

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON: {exc.msg}") from None
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


@dataclass(frozen=True)
class AnalysisReport:
    """Everything one pipeline run produced."""

    corpus: str
    graphs: tuple[GraphSummary, ...]
    records: tuple[SweepRecord, ...]
    errors: tuple[PipelineError, ...]

    def aggregates(self) -> dict[int, dict[str, tuple[float, float]]]:
        """Per Top-N mean and population standard deviation of each column.

        Computed once per report and shared by every caller, so treat the
        result as read-only.
        """
        return self._aggregates

    @cached_property
    def _aggregates(self) -> dict[int, dict[str, tuple[float, float]]]:
        by_n: dict[int, list[SweepRecord]] = {}
        for r in self.records:
            by_n.setdefault(r.top_n, []).append(r)
        out: dict[int, dict[str, tuple[float, float]]] = {}
        for n in sorted(by_n):
            rows = by_n[n]
            cols: dict[str, tuple[float, float]] = {}
            for name in AGGREGATE_COLUMNS:
                values = [float(getattr(r, name)) for r in rows]
                cols[name] = (statistics.fmean(values), statistics.pstdev(values))
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
    for index, (graph_id, load) in enumerate(_sources(config)):
        stage = "load"
        try:
            h, cg = load()
            stage = "origins"
            origins = find_origins(cg, h)
            stage = "frequencies"
            table = origin_edge_frequencies(cg, origins)
            stage = "localness"
            labels = label_all(cg, h, config.localness)
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


def write_report_json(report: AnalysisReport, path: str) -> None:
    """The full report as one sorted-keys JSON document (tuples as lists)."""
    payload = {
        "corpus": report.corpus,
        "graphs": [vars(g) for g in report.graphs],
        "records": [vars(r) for r in report.records],
        "aggregates": {
            str(n): {
                name: {"mean": mean, "std": std}
                for name, (mean, std) in cols.items()
            }
            for n, cols in report.aggregates().items()
        },
        "errors": [vars(e) for e in report.errors],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
