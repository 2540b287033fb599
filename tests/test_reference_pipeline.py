"""End-to-end oracle: `run_pipeline` plus `write_report_json` against a slow
pipeline built from the reference implementations.

The reference finds origins by `reference.brute_force_origins`, prunes by
filtering every edge through `reference.not_excluded`, counts reachability
with one breadth-first search per vulnerable method (`vulnsim._reach_one`),
aggregates with `statistics.fmean`/`statistics.pstdev`, and writes its
payload with `json.dumps`.  Localness labelling and CVE injection have no
separate reference, so both sides call the same functions.  The two reports
must be byte-identical once every timing value (a key ending in ``_s``) is
masked.
"""

import json
import re
import statistics
from collections import Counter
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from cgprune.localness import LocalnessOptions, label_all, localness_distribution
from cgprune.origins import ExclusionList
from cgprune.pipeline import (
    AGGREGATE_COLUMNS,
    MODES,
    PipelineConfig,
    run_pipeline,
    write_report_json,
)
from cgprune.pruning import ORACLES
from cgprune.synth import generate_call_graph_cha, generate_hierarchy
from cgprune.model import GraphError
from cgprune.vulnsim import (
    ProjectRoleMap,
    _reach_one,
    inject_artificial_cves,
)

from reference import brute_force_origins, is_application, not_excluded


def _reachability(edges, vulnerable, h, roles) -> tuple[int, float]:
    """(application, vulnerable) pairs and the fraction of vulnerable methods
    reached, one reverse search per vulnerable method; a method never pairs
    with itself."""
    preds = {}
    for e in edges:
        preds.setdefault(e.target, []).append(e.source)
    pairs = reached = 0
    for vuln in vulnerable:
        visited, _ = _reach_one(preds, vuln)
        apps = sum(1 for n in visited if n != vuln and is_application(roles, h, n))
        pairs += apps
        reached += apps > 0
    return pairs, reached / len(vulnerable) if vulnerable else 0.0


def _graph(config: PipelineConfig, index: int, graph_id: str, roles, options):
    """One synthetic graph's summary and records, as `run_pipeline` reports
    them, with every timing 0.0."""
    params = replace(config.synthetic.params, seed=config.synthetic.params.seed + index)
    h = generate_hierarchy(params)
    cg = generate_call_graph_cha(h, params)
    origins = brute_force_origins(cg, h)
    counts = Counter(origins.entries[e.target] for e in cg.edges)
    rows = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    labels = label_all(cg, h, options)
    levels = Counter(labels.values())
    shown = rows[: config.localness_top]
    top = [origin for origin, _ in shown]
    dist = localness_distribution(origins, labels, top)
    if not any(
        t.project_id == roles.application_project_id and not t.is_core_lib
        for t in h.types.values()
    ):
        raise GraphError(f"project {roles.application_project_id!r} has no application type")
    assignment = inject_artificial_cves(
        cg, h, roles, config.cve_count, config.cve_seed + index,
        include_core=config.include_core_cves,
    )
    vulnerable = assignment.vulnerable
    base_pairs, base_fraction = _reachability(cg.edges, vulnerable, h, roles)
    summary = {
        "graph_id": graph_id,
        "nodes": len(cg.nodes),
        "edges": len(cg.edges),
        "duplicate_edges": cg.duplicate_count,
        "localness_levels": [levels.get(v, 0) for v in range(4)],
        "top_origins": [[origin.render(h), count] for origin, count in shown],
        "origin_localness": [[origin.render(h), dist.per_origin[origin]] for origin in top],
        "vulnerable_count": len(vulnerable),
        "base_pairs": base_pairs,
        "base_fraction": base_fraction,
        "base_elapsed_s": 0.0,
    }
    oracle = ORACLES[config.oracle]() if config.mode == "selective" else None
    records = []
    for n in config.sweep:
        excl = ExclusionList(frozenset(origin for origin, _ in rows[:n]), n)
        kept = []
        for e in cg.edges:
            if not_excluded(excl, e.target.signature, e.target.defining_type, h):
                kept.append(e)
            elif oracle is not None:
                decision = oracle.decide(e)
                if not (decision.prune and decision.confidence > config.threshold):
                    kept.append(e)
        pruned = len(cg.edges) - len(kept)
        pairs, fraction = _reachability(kept, vulnerable, h, roles)
        records.append({
            "graph_id": graph_id,
            "top_n": n,
            "nodes": len(cg.nodes),
            "edges": len(kept),
            "reduction_ratio": pruned / len(cg.edges) if cg.edges else 0.0,
            "reachable_pairs": pairs,
            "reachable_fraction": fraction,
            "pair_delta": pairs - base_pairs,
            "fraction_delta": fraction - base_fraction,
            "analysis_elapsed_s": 0.0,
            "prune_elapsed_s": 0.0,
        })
    return summary, records


def reference_report(config: PipelineConfig) -> str:
    """The `report.json` of a synthetic config, by the slow reference route."""
    roles = ProjectRoleMap(application_project_id=config.application_project)
    options = LocalnessOptions(
        extended_hierarchy=config.extended_hierarchy,
        package_boundary=config.package_boundary,
    )
    graphs, records, errors = [], [], []
    for index, graph_id in enumerate(config.graph_ids):
        try:
            summary, graph_records = _graph(config, index, graph_id, roles, options)
        except GraphError as exc:
            # synthetic graphs are valid, so the one failure is at inject: a
            # graph with no application type, or a CVE draw that finds no
            # eligible method
            errors.append({
                "graph_id": graph_id, "stage": "inject",
                "message": str(exc), "error_type": type(exc).__name__,
            })
            continue
        graphs.append(summary)
        records.extend(graph_records)
    aggregates = {}
    for n in sorted({r["top_n"] for r in records}):
        rows = [r for r in records if r["top_n"] == n]
        aggregates[str(n)] = {}
        for name in AGGREGATE_COLUMNS:
            values = [float(r[name]) for r in rows]
            aggregates[str(n)][name] = {
                "mean": statistics.fmean(values), "std": statistics.pstdev(values),
            }
    payload = {
        "aggregates": aggregates, "corpus": config.corpus,
        "errors": errors, "graphs": graphs, "records": records,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# a timing value: a scalar, or the {mean, std} object of a timing column
_TIMING = re.compile(r'("\w+_s": )(\{[^}]*\}|[^,\n]+)')


def mask_timings(text: str) -> str:
    return _TIMING.sub(r"\1_", text)


_configs = st.fixed_dictionaries({
    "corpus": st.just("syn"),
    "synthetic": st.fixed_dictionaries({
        "count": st.integers(1, 3),
        "params": st.fixed_dictionaries({
            "seed": st.integers(0, 10**6),
            "type_count": st.integers(1, 40),
            "call_sites_per_method": st.sampled_from([[0, 0], [0, 3], [1, 4]]),
            "project_count": st.integers(1, 3),
        }),
    }),
    "sweep": st.lists(st.integers(0, 30), min_size=1, max_size=6, unique=True),
    "mode": st.sampled_from(MODES),
    "oracle": st.sampled_from(sorted(ORACLES)),
    "threshold": st.sampled_from([0.0, 0.5, 1.0]),
    "cve_count": st.integers(1, 15),
    "cve_seed": st.integers(0, 1000),
    "include_core_cves": st.booleans(),
    "localness_top": st.integers(0, 5),
    "extended_hierarchy": st.booleans(),
    "package_boundary": st.booleans(),
    "warmup": st.just(0),
    "repetitions": st.just(1),
}).map(PipelineConfig.from_mapping)


def test_mask_covers_scalars_and_aggregate_objects():
    text = '{\n  "a_s": 1e-05,\n  "b_s": {\n    "mean": 2.0,\n    "std": 0.0\n  },\n  "c": 3\n}'
    assert mask_timings(text) == '{\n  "a_s": _,\n  "b_s": _,\n  "c": 3\n}'


@settings(max_examples=25, deadline=None)
@given(_configs)
def test_pipeline_report_matches_reference(tmp_path_factory, config):
    path = tmp_path_factory.mktemp("report") / "report.json"
    write_report_json(run_pipeline(config), str(path))
    assert mask_timings(path.read_text(encoding="utf-8")) == mask_timings(
        reference_report(config)
    )
