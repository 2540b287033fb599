"""Acceptance gate: one test per shipped guarantee.

Each test carries a `criterion` marker; the terminal summary prints one
PASS/FAIL line per criterion.  Synthetic-corpus criteria share a module-wide
corpus so generation cost is paid once.
"""

import csv
import json
import math
import statistics
import time

import pytest

from cgprune import (
    CallEdge,
    FixedTableOracle,
    GenParams,
    KeepAllOracle,
    OriginRef,
    ProjectRoleMap,
    PruneAllOracle,
    PruneDecision,
    TypeHierarchy,
    TypeNode,
    build_call_graph,
    build_exclusion_list,
    find_origins,
    generate_call_graph_cha,
    generate_hierarchy,
    inject_artificial_cves,
    label_all,
    not_excluded,
    origin_edge_frequencies,
    propagate,
    prune_exhaustive,
    prune_selective,
    validate_call_graph,
    validate_hierarchy,
)
from cgprune.cli import main
from cgprune.pipeline import TIMING_COLUMNS
from cgprune.synth import brute_force_origins

from conftest import f1_edges, m, make_f1_callgraph, make_f1_hierarchy, sig

SWEEP = (0, 1, 2, 5, 10)


def corpus_params(i: int) -> GenParams:
    return GenParams(
        type_count=30 + i * 15,
        max_parents_per_type=1 + i % 3,
        signature_pool_size=3 + i % 7,
        override_probability=(0.25, 0.5, 0.75)[i % 3],
        call_sites_per_method=(0, 2 + i % 3),
        project_count=2 + i % 3,
        core_type_fraction=(0.1, 0.2, 0.3)[i % 3],
        seed=100 + i,
    )


@pytest.fixture(scope="module")
def corpus():
    graphs = []
    for i in range(12):
        p = corpus_params(i)
        h = generate_hierarchy(p)
        graphs.append((h, generate_call_graph_cha(h, p)))
    return graphs


@pytest.mark.criterion(1, "F1 exactness: origins, labels, 7->5 edge prune, "
                          "reachable fraction 1.0->0.0, under 1s")
def test_f1_exactness():
    start = time.perf_counter()
    h = make_f1_hierarchy()
    cg = make_f1_callgraph()
    edges = f1_edges()

    origins = find_origins(cg, h)
    assert origins.ambiguous == {}
    assert {
        (t.defining_type, t.signature.name): (o.origin_type, o.signature.name)
        for t, o in origins.entries.items()
    } == {
        ("T2", "next"): ("T1", "next"),
        ("T3", "next"): ("T1", "next"),
        ("T2", "helper"): ("T2", "helper"),
        ("T0", "hashCode"): ("T0", "hashCode"),
        ("T4", "run"): ("T4", "run"),
        ("T5", "fmt"): ("T5", "fmt"),
    }

    labels = label_all(cg, h)
    assert labels == {
        m("T0", "hashCode"): 0, m("T0", "toString"): 0,
        m("T1", "next"): 0, m("T1", "hasNext"): 0,
        m("T2", "next"): 1, m("T2", "helper"): 0,
        m("T3", "next"): 3,
        m("T4", "run"): 3, m("T4", "use"): 2,
        m("T5", "fmt"): 0,
    }

    table = origin_edge_frequencies(cg, origins)
    excl = build_exclusion_list(table, 1)
    assert excl.origins == {OriginRef("T1", sig("next"))}
    result = prune_exhaustive(cg, excl, h)
    assert (cg.edge_count, result.pruned_graph.edge_count) == (7, 5)
    assert set(cg.edges) - set(result.pruned_graph.edges) == \
        {edges["cs1a"], edges["cs1b"]}
    assert result.reduction_ratio == 2 / 7

    roles = ProjectRoleMap(application_project_id="app")
    assignment = inject_artificial_cves(cg, h, roles, 1, seed=0)
    assert assignment.vulnerable == frozenset({m("T3", "next")})
    base = propagate(cg, assignment, roles, h)
    pruned = propagate(result.pruned_graph, assignment, roles, h)
    assert (base.reachable_pairs, base.reachable_vuln_fraction) == (2, 1.0)
    assert (pruned.reachable_pairs, pruned.reachable_vuln_fraction) == (0, 0.0)

    assert time.perf_counter() - start < 1.0


@pytest.mark.criterion(2, "origin finder equals brute-force oracle on 100 "
                          "seeded corpora, under 60s")
def test_oracle_equivalence():
    start = time.perf_counter()
    for i in range(100):
        p = GenParams(
            type_count=20 + (i * 13) % 181,
            max_parents_per_type=1 + i % 3,
            signature_pool_size=1 + i % 10,
            override_probability=(i % 5) / 4,
            call_sites_per_method=(i % 3, 2 + i % 4),
            project_count=1 + i % 4,
            core_type_fraction=(i % 4) / 5,
            seed=i,
        )
        h = generate_hierarchy(p)
        cg = generate_call_graph_cha(h, p)
        fast = find_origins(cg, h)
        slow = brute_force_origins(cg, h)
        assert fast.entries == slow.entries, f"corpus seed {i}"
        assert fast.ambiguous == slow.ambiguous, f"corpus seed {i}"
    assert time.perf_counter() - start < 60.0


@pytest.mark.criterion(3, "pruning invariants: node preservation, edge "
                          "subset, Top-N monotonicity, completeness, "
                          "idempotence")
def test_pruning_invariants(corpus):
    for h, cg in corpus:
        table = origin_edge_frequencies(cg, find_origins(cg, h))
        previous_edges = None
        for n in SWEEP:
            excl = build_exclusion_list(table, n)
            result = prune_exhaustive(cg, excl, h)
            kept = result.pruned_graph
            assert set(kept.nodes) == set(cg.nodes)
            assert set(kept.edges) <= set(cg.edges)
            if n == 0:
                assert kept.edges == cg.edges
            if cg.edge_count:
                assert result.reduction_ratio == \
                    result.pruned_edges / cg.edge_count
            for edge in kept.edges:
                assert not_excluded(
                    excl, edge.target.signature, edge.target.defining_type, h
                )
            again = prune_exhaustive(kept, excl, h)
            assert again.pruned_edges == 0
            assert again.pruned_graph.edges == kept.edges
            if previous_edges is not None:
                assert kept.edge_count <= previous_edges
            previous_edges = kept.edge_count


@pytest.mark.criterion(4, "selective pruning keeps a superset of exhaustive; "
                          "prune-all at threshold 0 matches exhaustive")
def test_selective_conservatism(corpus):
    for h, cg in corpus:
        table = origin_edge_frequencies(cg, find_origins(cg, h))
        excl = build_exclusion_list(table, 2)
        exhaustive = prune_exhaustive(cg, excl, h)
        exhaustive_kept = set(exhaustive.pruned_graph.edges)

        candidates = [
            e for e in cg.edges
            if not not_excluded(excl, e.target.signature, e.target.defining_type, h)
        ]
        stub = FixedTableOracle({
            e: PruneDecision(prune=True, confidence=0.9)
            for e in candidates[::3]
        })
        oracles = [KeepAllOracle(), PruneAllOracle(), stub]
        for oracle in oracles:
            for threshold in (0.0, 0.5, 0.95):
                selective = prune_selective(cg, excl, h, oracle, threshold)
                assert set(selective.pruned_graph.edges) >= exhaustive_kept

        equal = prune_selective(cg, excl, h, PruneAllOracle(), 0.0)
        assert set(equal.pruned_graph.edges) == exhaustive_kept


@pytest.mark.criterion(5, "pruning never increases reachable pairs or "
                          "fraction; every reported pair has a verifiable "
                          "witness path")
def test_reachability_anti_monotonicity(corpus):
    def check_witnesses(result, graph, roles, h):
        assert result.witnesses is not None
        assert len(result.witnesses) == result.reachable_pairs
        adjacency = {(e.source, e.target) for e in graph.edges}
        for (app, vuln), path in result.witnesses.items():
            assert roles.is_application(h, app)
            assert vuln in result.vulnerable
            assert path[0] == app and path[-1] == vuln
            for a, b in zip(path, path[1:]):
                assert (a, b) in adjacency

    roles = ProjectRoleMap(application_project_id="p1")
    for h, cg in corpus:
        table = origin_edge_frequencies(cg, find_origins(cg, h))
        for seed in (0, 1):
            assignment = inject_artificial_cves(cg, h, roles, 10, seed=seed)
            base = propagate(cg, assignment, roles, h, collect_witnesses=True)
            check_witnesses(base, cg, roles, h)
            for n in SWEEP:
                excl = build_exclusion_list(table, n)
                kept = prune_exhaustive(cg, excl, h).pruned_graph
                pruned = propagate(
                    kept, assignment, roles, h, collect_witnesses=True
                )
                assert pruned.reachable_pairs <= base.reachable_pairs
                assert pruned.reachable_vuln_fraction <= \
                    base.reachable_vuln_fraction
                check_witnesses(pruned, kept, roles, h)


@pytest.mark.criterion(6, "engineered corpus: pruning Top-1 reduces edges by "
                          "exactly the top origin's frequency fraction")
def test_top1_reduction_equals_frequency_fraction():
    types = {
        "O": TypeNode("O", "java.lang.Object", (),
                      frozenset({sig("toString")}),
                      project_id="jre", package_name="java.lang",
                      is_core_lib=True),
        "B": TypeNode("B", "lib.Base", ("O",), frozenset({sig("hot")}),
                      project_id="lib", package_name="lib"),
        "D1": TypeNode("D1", "lib.D1", ("B",), frozenset({sig("hot")}),
                       project_id="lib", package_name="lib"),
        "D2": TypeNode("D2", "lib.D2", ("B",), frozenset({sig("hot")}),
                       project_id="lib", package_name="lib"),
        "D3": TypeNode("D3", "lib.D3", ("B",), frozenset({sig("hot")}),
                       project_id="lib", package_name="lib"),
        "D4": TypeNode("D4", "lib.D4", ("B",), frozenset({sig("hot")}),
                       project_id="lib", package_name="lib"),
        "A": TypeNode("A", "app.Main", ("O",), frozenset({sig("main")}),
                      project_id="app", package_name="app"),
        "C": TypeNode("C", "app.Misc", ("O",),
                      frozenset({sig("misc1"), sig("misc2")}),
                      project_id="app", package_name="app"),
    }
    h = TypeHierarchy(types=types, core_project_id="jre")
    validate_hierarchy(h)
    caller = m("A", "main")
    cg = build_call_graph([], [
        CallEdge(caller, m("B", "hot"), "B"),
        CallEdge(caller, m("D1", "hot"), "B"),
        CallEdge(caller, m("D2", "hot"), "B"),
        CallEdge(caller, m("D3", "hot"), "B"),
        CallEdge(caller, m("D4", "hot"), "B"),
        CallEdge(caller, m("C", "misc1"), "C"),
        CallEdge(m("C", "misc1"), m("C", "misc2"), "C"),
        CallEdge(m("C", "misc2"), m("O", "toString"), "O"),
    ])
    assert validate_call_graph(cg, h) == []

    origins = find_origins(cg, h)
    assert origins.ambiguous == {}
    table = origin_edge_frequencies(cg, origins)
    ((top_origin, count),) = table.top(1)
    assert (top_origin.origin_type, top_origin.signature) == ("B", sig("hot"))
    f = count / table.total_edges

    result = prune_exhaustive(cg, build_exclusion_list(table, 1), h)
    assert result.reduction_ratio == f
    assert result.pruned_edges == count


@pytest.mark.criterion(7, "pipeline runs with identical config are "
                          "byte-identical apart from positive timing columns")
def test_pipeline_determinism(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "corpus": "det",
        "synthetic": {"count": 4, "params": {"seed": 11, "type_count": 50}},
        "sweep": [1, 5, 10],
        "cve_count": 10,
        "application_project": "p1",
        "warmup": 1,
        "repetitions": 2,
    }))
    dirs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["pipeline", "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        dirs.append(out)

    timings: list[float] = []

    def masked_csv(path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        timed = [
            i for i, name in enumerate(header)
            if name in TIMING_COLUMNS
            or name.rsplit("_", 1)[0] in TIMING_COLUMNS
        ]
        for row in rows[1:]:
            for i in timed:
                if not header[i].endswith("_std"):
                    timings.append(float(row[i]))
                row[i] = "masked"
        return rows

    def masked_json(path):
        payload = json.loads(path.read_text())
        for g in payload["graphs"]:
            timings.append(g.pop("base_elapsed_s"))
        for r in payload["records"]:
            for col in TIMING_COLUMNS:
                timings.append(r.pop(col))
        for cols in payload["aggregates"].values():
            for col in TIMING_COLUMNS:
                timings.append(cols.pop(col)["mean"])
        return json.dumps(payload, sort_keys=True)

    assert masked_csv(dirs[0] / "report.csv") == \
        masked_csv(dirs[1] / "report.csv")
    assert masked_csv(dirs[0] / "aggregates.csv") == \
        masked_csv(dirs[1] / "aggregates.csv")
    assert masked_json(dirs[0] / "report.json") == \
        masked_json(dirs[1] / "report.json")
    assert timings and all(t > 0 for t in timings)


@pytest.mark.criterion(8, "prune time scales linearly in edge count: log-log "
                          "slope 1.0 +/- 0.15 across two orders of magnitude")
def test_prune_time_scaling():
    base = dict(
        type_count=150, max_parents_per_type=2, signature_pool_size=8,
        override_probability=0.5, project_count=3, core_type_fraction=0.2,
        seed=42,
    )
    edge_counts = []
    best_times = []
    for sites in (1, 3, 8, 20, 60, 200):
        p = GenParams(call_sites_per_method=(sites, sites), **base)
        h = generate_hierarchy(p)
        cg = generate_call_graph_cha(h, p)
        table = origin_edge_frequencies(cg, find_origins(cg, h))
        excl = build_exclusion_list(table, 1)
        best = min(prune_exhaustive(cg, excl, h).elapsed for _ in range(5))
        edge_counts.append(cg.edge_count)
        best_times.append(best)

    assert max(edge_counts) / min(edge_counts) >= 100
    slope = statistics.linear_regression(
        list(map(math.log10, edge_counts)), list(map(math.log10, best_times))
    ).slope
    assert 0.85 <= slope <= 1.15, f"log-log slope {slope:.3f}"
