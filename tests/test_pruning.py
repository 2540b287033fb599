"""Pruning: exclusion-list matching, exhaustive and oracle-gated modes."""

import gc
import os
import tempfile
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    SIGS, hierarchies_with_graphs, m, make_f1_callgraph, make_f1_hierarchy, predecessor_map, sig,
)
from reference import FixedTableOracle, not_excluded, predecessor_lists

from cgprune import (
    CallEdge,
    ExclusionList,
    GenParams,
    GraphError,
    KeepAllOracle,
    MethodNode,
    OriginRef,
    PruneAllOracle,
    ProjectRoleMap,
    PruneDecision,
    RecordFormatError,
    TypeHierarchy,
    TypeNode,
    UnknownTypeError,
    VulnerabilityAssignment,
    build_call_graph,
    build_exclusion_list,
    find_origins,
    generate_call_graph_cha,
    generate_hierarchy,
    inject_artificial_cves,
    load_exclusion_list,
    origin_edge_frequencies,
    prune_exhaustive,
    propagate,
    prune_selective,
    reverse_adjacency,
    save_exclusion_list,
)


def excl_of(*pairs: tuple[str, str], size: int | None = None) -> ExclusionList:
    """The list of the origins given as (signature name, origin type id)."""
    return ExclusionList(
        origins=frozenset(OriginRef(tid, sig(name)) for name, tid in pairs),
        declared_size=size if size is not None else len(pairs),
    )


class TestNotExcluded:
    def test_derivative_of_listed_origin(self, f1):
        excl = excl_of(("next", "T1"))
        assert not_excluded(excl, sig("next"), "T3", f1.h) is False

    def test_signature_not_listed(self, f1):
        excl = excl_of(("next", "T1"))
        assert not_excluded(excl, sig("run"), "T4", f1.h) is True

    def test_origin_type_itself_is_excluded(self, f1):
        excl = excl_of(("next", "T1"))
        assert not_excluded(excl, sig("next"), "T1", f1.h) is False

    def test_same_signature_outside_cone_survives(self, f1):
        # T5 declares nothing named next and is no descendant of T1
        excl = excl_of(("next", "T1"))
        assert not_excluded(excl, sig("next"), "T5", f1.h) is True

    def test_unknown_type_in_list_raises(self, f1):
        excl = excl_of(("next", "T9"))
        with pytest.raises(UnknownTypeError):
            not_excluded(excl, sig("next"), "T3", f1.h)


class TestPruneExhaustive:
    def test_f1_top1_prunes_both_next_edges(self, f1):
        result = prune_exhaustive(f1.cg, excl_of(("next", "T1")), f1.h)
        assert result.pruned_graph.edge_count == 5
        assert result.pruned_edges == 2
        assert result.candidate_edges == 2
        assert result.reduction_ratio == pytest.approx(2 / 7)
        gone = {f1.edges["cs1a"], f1.edges["cs1b"]}
        assert set(f1.cg.edges) - set(result.pruned_graph.edges) == gone

    def test_empty_exclusion_list_is_identity(self, f1):
        result = prune_exhaustive(f1.cg, excl_of(size=0), f1.h)
        assert result.pruned_graph.edges == f1.cg.edges
        assert result.reduction_ratio == 0.0

    def test_origin_own_declaration_is_pruned(self, f1):
        # run() originates in T4 itself; cs4 and cs5 both target m(T4,run)
        result = prune_exhaustive(f1.cg, excl_of(("run", "T4")), f1.h)
        assert result.pruned_graph.edge_count == 5
        gone = {f1.edges["cs4"], f1.edges["cs5"]}
        assert set(f1.cg.edges) - set(result.pruned_graph.edges) == gone

    def test_node_set_preserved(self, f1):
        result = prune_exhaustive(f1.cg, excl_of(("next", "T1")), f1.h)
        assert result.pruned_graph.nodes == f1.cg.nodes

    def test_completeness_no_surviving_candidates(self, f1):
        excl = excl_of(("next", "T1"), ("run", "T4"))
        result = prune_exhaustive(f1.cg, excl, f1.h)
        for e in result.pruned_graph.edges:
            assert not_excluded(
                excl, e.target.signature, e.target.defining_type, f1.h
            )

    def test_idempotence(self, f1):
        excl = excl_of(("next", "T1"))
        once = prune_exhaustive(f1.cg, excl, f1.h)
        twice = prune_exhaustive(once.pruned_graph, excl, f1.h)
        assert twice.pruned_graph.edges == once.pruned_graph.edges
        assert twice.pruned_edges == 0

    def test_top_n_monotonicity(self, f1):
        table = origin_edge_frequencies(f1.cg, find_origins(f1.cg, f1.h))
        sizes = [
            prune_exhaustive(
                f1.cg, build_exclusion_list(table, n), f1.h
            ).pruned_graph.edge_count
            for n in (0, 1, 2, 5, 10)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_elapsed_is_positive(self, f1):
        assert prune_exhaustive(f1.cg, excl_of(("next", "T1")), f1.h).elapsed > 0

    def test_unknown_origin_type_raises(self, f1):
        with pytest.raises(UnknownTypeError):
            prune_exhaustive(f1.cg, excl_of(("next", "T9")), f1.h)
        # also when no edge targets the listed signature
        with pytest.raises(UnknownTypeError, match="T9"):
            prune_exhaustive(f1.cg, excl_of(("ghost", "T9")), f1.h)

    def test_target_of_unknown_type_is_no_candidate(self, f1):
        e = CallEdge(m("T4", "run"), m("T9", "next"), "T1")
        cg = build_call_graph([], [e])
        result = prune_exhaustive(cg, excl_of(("next", "T1")), f1.h)
        assert result.pruned_graph.edges == (e,)
        assert result.candidate_edges == 0

    @pytest.mark.parametrize("oracle", [None, PruneAllOracle()], ids=["exhaustive", "selective"])
    def test_overlapping_cones_of_one_signature_count_each_edge_once(self, f1, oracle):
        # T2's cone lies inside T1's: both hold the edge into T2's next
        reverse_adjacency(f1.cg)  # the pruned graphs derive theirs
        alone = prune_selective(f1.cg, excl_of(("next", "T1")), f1.h, oracle)
        both = prune_selective(f1.cg, excl_of(("next", "T1"), ("next", "T2")), f1.h, oracle)
        assert both.candidate_edges == both.pruned_edges == 2
        assert both.pruned_graph.edges == alone.pruned_graph.edges
        assert_index_matches_edges(both.pruned_graph)

    def test_dangling_parent_of_target_type_is_ignored(self, f1):
        # hand-built only: loaded and generated hierarchies have no dangling
        # parents.  Cones walk the children index, which leaves GHOST out.
        types = dict(f1.h.types)
        types["T2"] = types["T2"]._replace(parents=("T1", "GHOST"))
        h = TypeHierarchy(types, f1.h.core_project_id)
        result = prune_exhaustive(f1.cg, excl_of(("next", "T1")), h)
        assert result.pruned_edges == 2
        assert f1.edges["cs1a"] not in result.pruned_graph.edges


class TestPruneSelective:
    def test_prune_all_oracle_matches_exhaustive(self, f1):
        excl = excl_of(("next", "T1"))
        exhaustive = prune_exhaustive(f1.cg, excl, f1.h)
        selective = prune_selective(f1.cg, excl, f1.h, PruneAllOracle(), 0.95)
        assert selective.pruned_graph.edges == exhaustive.pruned_graph.edges
        assert selective.candidate_edges == 2
        assert selective.pruned_edges == 2

    def test_keep_all_oracle_prunes_nothing(self, f1):
        excl = excl_of(("next", "T1"))
        result = prune_selective(f1.cg, excl, f1.h, KeepAllOracle(), 0.95)
        assert result.pruned_graph.edges == f1.cg.edges
        assert result.candidate_edges == 2
        assert result.pruned_edges == 0

    def test_fixed_table_prunes_only_listed_edge(self, f1):
        excl = excl_of(("next", "T1"))
        oracle = FixedTableOracle(
            {f1.edges["cs1a"]: PruneDecision(prune=True, confidence=1.0)}
        )
        result = prune_selective(f1.cg, excl, f1.h, oracle, 0.95)
        assert result.pruned_graph.edge_count == 6
        assert set(f1.cg.edges) - set(result.pruned_graph.edges) == {f1.edges["cs1a"]}

    def test_confidence_must_beat_threshold_strictly(self, f1):
        excl = excl_of(("next", "T1"))
        oracle = FixedTableOracle({
            f1.edges["cs1a"]: PruneDecision(prune=True, confidence=0.95),
            f1.edges["cs1b"]: PruneDecision(prune=True, confidence=0.96),
        })
        result = prune_selective(f1.cg, excl, f1.h, oracle, 0.95)
        assert set(f1.cg.edges) - set(result.pruned_graph.edges) == {f1.edges["cs1b"]}

    def test_oracle_failure_keeps_edge_and_is_counted(self, f1):
        class Exploding:
            def decide(self, edge):
                raise RuntimeError("model unavailable")

        excl = excl_of(("next", "T1"))
        result = prune_selective(f1.cg, excl, f1.h, Exploding(), 0.5)
        assert result.pruned_graph.edges == f1.cg.edges
        assert result.oracle_failures == 2
        assert result.candidate_edges == 2

    def test_conservatism_superset_of_exhaustive(self, f1):
        excl = excl_of(("next", "T1"), ("run", "T4"))
        exhaustive = set(prune_exhaustive(f1.cg, excl, f1.h).pruned_graph.edges)
        for oracle in (KeepAllOracle(), PruneAllOracle(), FixedTableOracle({})):
            for threshold in (0.0, 0.5, 0.95, 1.0):
                kept = set(
                    prune_selective(
                        f1.cg, excl, f1.h, oracle, threshold
                    ).pruned_graph.edges
                )
                assert kept >= exhaustive

    def test_threshold_one_keeps_everything(self, f1):
        excl = excl_of(("next", "T1"))
        result = prune_selective(f1.cg, excl, f1.h, PruneAllOracle(), 1.0)
        assert result.pruned_edges == 0

    def test_threshold_out_of_range_rejected(self, f1):
        with pytest.raises(ValueError):
            prune_selective(f1.cg, excl_of(), f1.h, KeepAllOracle(), 1.5)


class TestPruneDecision:
    def test_confidence_range_checked(self):
        with pytest.raises(ValueError):
            PruneDecision(prune=True, confidence=1.5)


class TestExclusionListFile:
    def test_round_trip(self, f1, tmp_path):
        table = origin_edge_frequencies(f1.cg, find_origins(f1.cg, f1.h))
        excl = build_exclusion_list(table, 3)
        path = tmp_path / "excl.txt"
        save_exclusion_list(excl, str(path), f1.h)
        loaded = load_exclusion_list(str(path), f1.h)
        assert loaded == excl

    def test_file_format_is_tab_separated_fq_names(self, f1, tmp_path):
        path = tmp_path / "excl.txt"
        save_exclusion_list(excl_of(("next", "T1")), str(path), f1.h)
        lines = path.read_text().splitlines()
        assert lines[0] == "# declared-size: 1"
        assert lines[1] == "next():void\tjava.util.Iterator"

    def test_unknown_fq_name_rejected(self, f1, tmp_path):
        path = tmp_path / "excl.txt"
        path.write_text("next():void\tno.such.Type\n")
        with pytest.raises(ValueError, match="unknown type name"):
            load_exclusion_list(str(path), f1.h)

    def test_malformed_line_positioned(self, f1, tmp_path):
        path = tmp_path / "excl.txt"
        path.write_text("next():void java.util.Iterator\n")
        with pytest.raises(ValueError, match="excl.txt:1"):
            load_exclusion_list(str(path), f1.h)

    def test_malformed_signature_positioned(self, f1, tmp_path):
        path = tmp_path / "excl.txt"
        path.write_text("# declared-size: 1\nnext\tjava.util.Iterator\n")
        with pytest.raises(ValueError, match="excl.txt:2: malformed signature"):
            load_exclusion_list(str(path), f1.h)

    def test_non_integer_size_header_positioned(self, f1, tmp_path):
        path = tmp_path / "excl.txt"
        path.write_text("# declared-size: ten\nnext():void\tjava.util.Iterator\n")
        with pytest.raises(ValueError, match="excl.txt:1: header 'declared-size: ten'"):
            load_exclusion_list(str(path), f1.h)

    def test_negative_size_header_positioned(self, f1, tmp_path):
        path = tmp_path / "excl.txt"
        path.write_text("# declared-size: -7\nnext():void\tjava.util.Iterator\n")
        with pytest.raises(RecordFormatError) as info:
            load_exclusion_list(str(path), f1.h)
        assert str(info.value) == (
            f"{path}:1: header 'declared-size' must be non-negative, got -7"
        )

    def test_zero_size_header_loads(self, f1, tmp_path):
        path = tmp_path / "excl.txt"
        path.write_text("# declared-size: 0\n")
        assert load_exclusion_list(str(path), f1.h).declared_size == 0

    def test_missing_size_header_defaults_to_entry_count(self, f1, tmp_path):
        path = tmp_path / "excl.txt"
        path.write_text("next():void\tjava.util.Iterator\n")
        loaded = load_exclusion_list(str(path), f1.h)
        assert loaded.declared_size == 1

    @pytest.mark.parametrize("renamed, problem", [
        # T3 takes T1's name, which then names two types
        ({"T3": "java.util.Iterator"},
         "type name 'java.util.Iterator' is ambiguous in this hierarchy"),
        # a tab splits the line into three fields
        ({"T1": "java.util\tIterator"},
         "expected 'signature<TAB>type name', got 'next():void\\tjava.util\\tIterator'"),
        # a line break splits the record in two
        ({"T1": "java.util.Iterator\nnext():void\tcom.app.a.MyIter"},
         "it would read back as another entry"),
        # stripped, the line names T2
        ({"T1": "com.app.a.MyIter "}, "it would read back as another entry"),
        # a lone surrogate does not encode as UTF-8
        ({"T1": "java.util.\ud800Iterator"},
         "'utf-8' codec can't encode character '\\ud800' in position 22: "
         "surrogates not allowed"),
    ], ids=["shared-name", "tab", "line-break", "trailing-space", "lone-surrogate"])
    def test_a_list_that_would_not_read_back_is_refused(
        self, f1, tmp_path, renamed, problem
    ):
        types = {tid: t._replace(fq_name=renamed.get(tid, t.fq_name))
                 for tid, t in f1.h.types.items()}
        h = TypeHierarchy(types, f1.h.core_project_id)
        path = tmp_path / "excl.txt"
        with pytest.raises(GraphError) as info:
            save_exclusion_list(excl_of(("next", "T1")), str(path), h)
        fq = h.types["T1"].fq_name
        assert str(info.value) == f"{path}: cannot save type name {fq!r}: {problem}"
        assert not path.exists()
        # an entry whose name reads back is saved, shared names elsewhere or not
        save_exclusion_list(excl_of(("run", "T4")), str(path), h)
        assert load_exclusion_list(str(path), h) == excl_of(("run", "T4"))


class TestExclusionListProperties:
    """On drawn graphs, whose type names are unique: a Top-N list holds the
    origins of the first N frequency rows, and a saved list reads back equal."""

    @settings(
        max_examples=200, derandomize=True, database=None, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(hierarchies_with_graphs())
    def test_top_n_origins_and_file_round_trip(self, case):
        h, cg, _ = case
        assert len({t.fq_name for t in h.types.values()}) == len(h.types)
        table = origin_edge_frequencies(cg, find_origins(cg, h))
        refs = [origin for origin, _count in table.rows]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "excl.txt")
            for n in range(len(refs) + 3):
                excl = build_exclusion_list(table, n)
                assert excl.origins == frozenset(refs[:n])
                assert excl.declared_size == n
                save_exclusion_list(excl, path, h)
                assert load_exclusion_list(path, h) == excl


# Differential test of the indexed prune against `not_excluded`, one edge at
# a time.  Exclusion lists may name several origin types per signature,
# origin types that declare nothing, and a signature that no edge targets.
@st.composite
def graphs_with_exclusion_lists(draw):
    h, cg, type_ids = draw(hierarchies_with_graphs())
    origins = set()
    for name in (*SIGS, "ghost"):
        types = draw(st.frozensets(st.sampled_from(type_ids), max_size=3))
        origins.update(OriginRef(tid, sig(name)) for tid in types)
    excl = ExclusionList(origins=frozenset(origins), declared_size=len(origins))
    condemned = draw(st.frozensets(st.sampled_from(type_ids)))
    return cg, h, excl, condemned


class TestIndexedPruneMatchesPerEdgeReference:
    @settings(
        max_examples=200, derandomize=True, database=None, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(graphs_with_exclusion_lists())
    def test_kept_edges_counts_and_oracle_calls(self, case):
        cg, h, excl, condemned = case
        candidates = [
            e for e in cg.edges
            if not not_excluded(excl, e.target.signature, e.target.defining_type, h)
        ]
        is_candidate = set(candidates)

        result = prune_exhaustive(cg, excl, h)
        assert result.pruned_graph.edges == tuple(
            e for e in cg.edges if e not in is_candidate
        )
        assert result.candidate_edges == result.pruned_edges == len(candidates)
        assert result.pruned_graph.nodes is cg.nodes

        calls = []

        class Recording:
            def decide(self, edge):
                calls.append(edge)
                return PruneDecision(edge.receiver_type in condemned, 1.0)

        result = prune_selective(cg, excl, h, Recording(), 0.5)
        assert calls == candidates  # once per candidate, in edge order
        dropped = {e for e in candidates if e.receiver_type in condemned}
        assert result.pruned_graph.edges == tuple(
            e for e in cg.edges if e not in dropped
        )
        assert result.candidate_edges == len(candidates)
        assert result.pruned_edges == len(dropped)
        assert result.pruned_graph.nodes is cg.nodes


# Differential test of the indexes a pruned graph inherits from its parent,
# at every Top-N of a sweep, against a fresh graph on the same nodes and
# edges, which builds its own from the edges.  Every type of the drawn
# hierarchies is in project "p", so every node is application code.
ALL_APPLICATION = ProjectRoleMap(application_project_id="p")


@st.composite
def sweeps_with_marked_edges(draw):
    """(hierarchy, graph, marked edges, vulnerable nodes)."""
    h, cg, _ = draw(hierarchies_with_graphs())
    marked = draw(st.frozensets(st.sampled_from(cg.edges))) if cg.edges else frozenset()
    nodes = cg.sorted_nodes()
    vulnerable = draw(st.frozensets(st.sampled_from(nodes))) if nodes else frozenset()
    return h, cg, marked, vulnerable


class FailingOracle:
    """Raises on the marked edges and condemns every other candidate."""

    def __init__(self, marked):
        self.marked = marked

    def decide(self, edge):
        if edge in self.marked:
            raise RuntimeError(f"no verdict for {edge}")
        return PruneDecision(True, 1.0)


def prune_in_mode(mode, cg, excl, h, marked):
    if mode == "exhaustive":
        return prune_exhaustive(cg, excl, h).pruned_graph
    if mode == "table":  # condemns the marked edges only: groups go in part
        oracle = FixedTableOracle({e: PruneDecision(True, 1.0) for e in marked})
    else:
        oracle = FailingOracle(marked)
    return prune_selective(cg, excl, h, oracle, 0.5).pruned_graph


def assert_index_matches_edges(g):
    """`reverse_adjacency(g)` against the reference built from `g.edges`:
    every node numbered once, the same targets, each with its sources in
    edge order and multiplicity, no entry without sources; one index of
    tuples per graph."""
    preds = reverse_adjacency(g)
    assert len(preds.nodes) == len(preds.sources) == len(g.nodes)
    assert preds.nodes == tuple(preds.ids) and set(preds.nodes) == g.nodes
    assert list(preds.ids.values()) == list(range(len(preds.nodes)))
    assert all(type(ss) is tuple for ss in preds.sources)
    want = predecessor_lists(g)
    assert predecessor_map(preds) == {t: tuple(ss) for t, ss in want.items()}
    assert reverse_adjacency(g) is preds


def assert_inherits_like_a_fresh_build(pruned, base, h, vulnerable):
    fresh = build_call_graph(pruned.nodes, pruned.edges)
    assert fresh.edges == pruned.edges
    assert_index_matches_edges(pruned)
    assert predecessor_map(reverse_adjacency(pruned)) == predecessor_map(reverse_adjacency(fresh))
    assert reverse_adjacency(pruned).ids is reverse_adjacency(base).ids
    assert pruned.node_types == fresh.node_types
    assert pruned.node_types is base.node_types
    assignment = VulnerabilityAssignment(vulnerable, seed=0, requested=len(vulnerable))
    got, want = (
        propagate(g, assignment, ALL_APPLICATION, h, collect_witnesses=True)
        for g in (pruned, fresh)
    )
    assert got.reachable_pairs == want.reachable_pairs
    assert got.reachable_vuln_fraction == want.reachable_vuln_fraction
    assert got.reached_vulnerable == want.reached_vulnerable
    assert got.witnesses == want.witnesses


class TestPrunedGraphInheritsIndexes:
    @pytest.mark.parametrize("mode", ["exhaustive", "table", "failing"])
    @settings(
        max_examples=200, derandomize=True, database=None, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=sweeps_with_marked_edges())
    def test_derived_index_matches_a_fresh_build_at_every_n(self, mode, case):
        h, cg, marked, vulnerable = case
        assert_index_matches_edges(cg)
        table = origin_edge_frequencies(cg, find_origins(cg, h))
        full = build_exclusion_list(table, len(table.rows))
        for n in range(len(table.rows) + 1):
            pruned = prune_in_mode(mode, cg, build_exclusion_list(table, n), h, marked)
            # pruned again at the full list: its index is derived from the
            # one its parent was given when it was built
            nested = prune_in_mode(mode, pruned, full, h, marked)
            for g in (pruned, nested):
                assert_inherits_like_a_fresh_build(g, cg, h, vulnerable)
        # deriving never changed the base graph's own index
        base_preds = predecessor_map(reverse_adjacency(cg))
        fresh = build_call_graph(cg.nodes, cg.edges)
        assert base_preds == predecessor_map(reverse_adjacency(fresh))
        assert base_preds == {t: tuple(ss) for t, ss in predecessor_lists(cg).items()}
        assert_index_matches_edges(cg)

    @pytest.mark.parametrize("mode", ["table", "failing"])
    def test_a_partly_pruned_target_keeps_its_other_sources(self, f1, mode):
        # T4.run has two callers and loses only the edge from T4.use: the
        # table condemns it alone, the failing oracle raises on the other
        run = excl_of(("run", "T4"))
        if mode == "table":
            oracle = FixedTableOracle({f1.edges["cs4"]: PruneDecision(True, 1.0)})
        else:
            oracle = FailingOracle({f1.edges["cs5"]})
        # indexed first, so each pruned graph derives its index from its parent's
        reverse_adjacency(f1.cg)
        pruned = prune_selective(f1.cg, run, f1.h, oracle, 0.5).pruned_graph
        assert predecessor_map(reverse_adjacency(pruned))[m("T4", "run")] == (m("T3", "next"),)
        nested = prune_exhaustive(pruned, excl_of(("next", "T1")), f1.h).pruned_graph
        assert m("T3", "next") not in predecessor_map(reverse_adjacency(nested))
        for g in (nested, pruned, f1.cg):
            assert_index_matches_edges(g)
            assert reverse_adjacency(g).ids is reverse_adjacency(f1.cg).ids


class TestPrunedGraphsHoldNoParent:
    """A pruned graph is whole when built: it holds no reference to its
    parent, so a chain of prunes never walks back up to the root."""

    @pytest.mark.parametrize("root_indexed", [True, False])
    def test_a_deep_chain_of_prunes_propagates_like_a_fresh_build(self, root_indexed):
        params = GenParams(type_count=60, seed=3)
        h = generate_hierarchy(params)
        cg = generate_call_graph_cha(h, params)
        table = origin_edge_frequencies(cg, find_origins(cg, h))
        if root_indexed:
            reverse_adjacency(cg)
        g = cg
        for i in range(1500):
            g = prune_exhaustive(g, build_exclusion_list(table, min(i, 20)), h).pruned_graph
        top20 = build_exclusion_list(table, 20)
        assert g.edges == prune_exhaustive(cg, top20, h).pruned_graph.edges
        # the root's ids reach the last graph if and only if the root was indexed
        assert ("predecessors" in vars(g)) is root_indexed
        fresh = build_call_graph(g.nodes, g.edges)
        assert (reverse_adjacency(g).ids is reverse_adjacency(cg).ids) is root_indexed
        assert predecessor_map(reverse_adjacency(g)) == predecessor_map(reverse_adjacency(fresh))
        roles = ProjectRoleMap(application_project_id="p1")
        assignment = inject_artificial_cves(cg, h, roles, 10, seed=0)
        got, want = (propagate(x, assignment, roles, h) for x in (g, fresh))
        assert got.reachable_pairs == want.reachable_pairs > 0
        assert got.reachable_vuln_fraction == want.reachable_vuln_fraction

    @pytest.mark.parametrize("parent_indexed", [True, False])
    def test_a_dropped_parent_is_collected(self, f1, parent_indexed):
        parent = make_f1_callgraph()
        if parent_indexed:
            reverse_adjacency(parent)
        child = prune_exhaustive(parent, excl_of(("next", "T1")), f1.h).pruned_graph
        ref = weakref.ref(parent)
        del parent
        gc.collect()
        assert ref() is None
        assert_index_matches_edges(child)


# The candidate memo against the per-edge reference: exclusion lists drawn
# independently (not the prefixes of one frequency table), pruned against
# the drawn hierarchy and, alternately, against a hierarchy on other parents
# that is built afresh and dropped every round.
@st.composite
def memo_rounds(draw):
    """(hierarchy, graph, exclusion lists, per list the parents of a fresh
    hierarchy).  Signature f cycles through origin sets A, A | B and B in a
    drawn order, so from one list to the next its set grows, shrinks or
    turns disjoint."""
    h, cg, type_ids = draw(hierarchies_with_graphs())
    types = st.sampled_from(type_ids)
    a = draw(st.frozensets(types, min_size=1, max_size=3))
    rest = [t for t in type_ids if t not in a]
    b = draw(st.frozensets(st.sampled_from(rest), min_size=1, max_size=3)) if rest else a
    f_sets = draw(st.lists(st.sampled_from([a, a | b, b]), min_size=2, max_size=6))
    lists, fresh_parents = [], []
    for f_set in f_sets:
        origins = set()
        for name in draw(st.permutations(("f", "g", "h", "ghost"))):
            origin_types = f_set if name == "f" else draw(st.frozensets(types, max_size=3))
            origins.update(OriginRef(tid, sig(name)) for tid in origin_types)
        lists.append(ExclusionList(frozenset(origins), len(origins)))
        fresh_parents.append({
            tid: tuple(draw(st.lists(st.sampled_from(type_ids[:i]), max_size=3, unique=True)))
            if i else ()
            for i, tid in enumerate(type_ids)
        })
    return h, cg, lists, fresh_parents


class TestCandidateMemo:
    @settings(
        max_examples=200, derandomize=True, database=None, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(memo_rounds())
    def test_alternating_hierarchies_keep_the_reference_edges(self, case):
        h, cg, lists, fresh_parents = case

        def check(excl, hierarchy):
            kept = prune_exhaustive(cg, excl, hierarchy).pruned_graph.edges
            assert kept == tuple(
                e for e in cg.edges
                if not_excluded(excl, e.target.signature, e.target.defining_type, hierarchy)
            )

        for r, (excl, parents) in enumerate(zip(lists, fresh_parents)):
            # on even rounds a fresh hierarchy follows the one just dropped,
            # which may leave its address (and `id`) to the new one
            if r % 2:
                check(excl, h)
            fresh = TypeHierarchy({
                tid: t._replace(parents=parents[tid])
                for tid, t in h.types.items()
            })
            check(excl, fresh)
            check(lists[r - 1], fresh)
            del fresh
        for excl in lists:  # one hierarchy throughout: the memo answers
            check(excl, h)

    def test_a_sweep_step_walks_cones_for_new_pairs_only(self, f1, monkeypatch):
        asked = []
        real = TypeHierarchy.descendant_cone

        def counting(self, type_id):
            asked.append(type_id)
            return real(self, type_id)

        monkeypatch.setattr(TypeHierarchy, "descendant_cone", counting)
        prune_exhaustive(f1.cg, excl_of(("next", "T1"), ("run", "T4")), f1.h)
        assert sorted(asked) == ["T1", "T4"]
        asked.clear()
        # run gains an origin type, and only that origin is new
        prune_exhaustive(f1.cg, excl_of(("next", "T1"), ("run", "T4"), ("run", "T0")), f1.h)
        assert asked == ["T0"]
        asked.clear()
        for pairs in ([("next", "T1"), ("run", "T4"), ("run", "T0")],  # repeated
                      [("next", "T1"), ("run", "T4")],  # shrunk
                      [("run", "T0")]):  # an origin on its own, memoised with others
            prune_exhaustive(f1.cg, excl_of(*pairs), f1.h)
        assert asked == []
        memo = vars(f1.cg)["_candidate_memo"][1]
        assert sorted(memo) == [
            OriginRef("T0", sig("run")), OriginRef("T1", sig("next")),
            OriginRef("T4", sig("run")),
        ]
        # another hierarchy, even an equal one, starts the memo afresh
        prune_exhaustive(f1.cg, excl_of(("next", "T1"), ("run", "T4")), make_f1_hierarchy())
        assert sorted(asked) == ["T1", "T4"]
