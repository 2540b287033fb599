"""Localness levels: the highest per-edge level of each method's calls.

The full-graph expectations for the fixture are pinned under the default
options (extended hierarchy rule, project boundary).  Note m(T4,run): its
first target is same-project (level 2) but its second target lives in
another project, which escalates to 3 with early exit; the level-3 dominance
property below checks the same rule graph-wide.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import m, sig
from reference import _in_one_hierarchy, reference_label

from cgprune import (
    CallEdge,
    LocalnessOptions,
    MethodNode,
    TypeHierarchy,
    TypeNode,
    UnknownTypeError,
    build_call_graph,
    categorize,
    find_origins,
    label_all,
    localness_distribution,
    origin_edge_frequencies,
    same_hierarchy,
    OriginRef,
)

STRICT = LocalnessOptions(extended_hierarchy=False)

F1_LABELS = {
    m("T0", "hashCode"): 0,
    m("T0", "toString"): 0,
    m("T1", "next"): 0,
    m("T1", "hasNext"): 0,
    m("T2", "next"): 1,
    m("T2", "helper"): 0,
    m("T3", "next"): 3,
    m("T4", "run"): 3,
    m("T4", "use"): 2,
    m("T5", "fmt"): 0,
}


def _type(tid, parents=(), declares=("f",), project="p", package="p.x", core=False):
    return TypeNode(
        type_id=tid,
        fq_name=f"{package}.{tid}",
        parents=tuple(parents),
        declared=frozenset(sig(n) for n in declares),
        project_id="core" if core else project,
        package_name=package,
        is_core_lib=core,
    )


class TestCategorize:
    def test_core_method_fast_path(self, f1):
        assert categorize(m("T0", "hashCode"), f1.cg, f1.h) == 0

    def test_only_core_targets_stay_level_0(self, f1):
        assert categorize(m("T2", "helper"), f1.cg, f1.h) == 0

    def test_self_call_is_same_hierarchy(self, f1):
        assert categorize(m("T2", "next"), f1.cg, f1.h) == 1

    def test_same_project_out_of_hierarchy(self, f1):
        assert categorize(m("T4", "use"), f1.cg, f1.h) == 2

    def test_cross_project_forces_3(self, f1):
        assert categorize(m("T3", "next"), f1.cg, f1.h) == 3

    def test_no_outgoing_edges_is_0(self, f1):
        assert categorize(m("T5", "fmt"), f1.cg, f1.h) == 0

    def test_label_does_not_depend_on_target_type_ids(self):
        # A.f calls C.f (A's child, another project) and X.f (A's project,
        # another hierarchy); canonical order visits X first when it sorts
        # before C
        def label(unrelated):
            h = TypeHierarchy({
                "A": _type("A", project="p1"),
                unrelated: _type(unrelated, project="p1"),
                "C": _type("C", parents=["A"], project="p2"),
            })
            cg = build_call_graph([], [
                CallEdge(m("A", "f"), m(unrelated, "f"), unrelated),
                CallEdge(m("A", "f"), m("C", "f"), "C"),
            ])
            return categorize(m("A", "f"), cg, h)

        assert label("B") == label("Z")

    def test_dangling_target_type_raises(self, f1):
        cg = build_call_graph(
            [], [CallEdge(m("T4", "run"), m("T9", "ghost"), "T4")]
        )
        with pytest.raises(UnknownTypeError):
            categorize(m("T4", "run"), cg, f1.h)


class TestLabelAll:
    def test_f1_pinned_labels(self, f1):
        assert label_all(f1.cg, f1.h) == F1_LABELS

    def test_empty_graph(self, f1):
        assert label_all(build_call_graph([], []), f1.h) == {}

    def test_all_core_graph_is_all_zero(self, f1):
        cg = build_call_graph(
            [m("T1", "hasNext")],
            [CallEdge(m("T1", "next"), m("T0", "toString"), "T0")],
        )
        assert set(label_all(cg, f1.h).values()) == {0}

    def test_level_3_dominance(self, f1):
        # a non-core node with any cross-project out-of-hierarchy non-core
        # target must be exactly 3
        labels = label_all(f1.cg, f1.h)
        for node in f1.cg.sorted_nodes():
            if f1.h.node(node.defining_type).is_core_lib:
                continue
            forcing = [
                e for e in f1.cg.outgoing_edges(node)
                if not f1.h.node(e.target.defining_type).is_core_lib
                and not _in_one_hierarchy(
                    f1.h, node.defining_type, e.target.defining_type, extended=True
                )
                and f1.h.node(e.target.defining_type).project_id
                != f1.h.node(node.defining_type).project_id
            ]
            if forcing:
                assert labels[node] == 3

    def test_monotone_evidence_under_edge_removal(self, f1):
        # removing any single edge never raises its source's level
        full = label_all(f1.cg, f1.h)
        for dropped in f1.cg.edges:
            rest = [e for e in f1.cg.edges if e != dropped]
            smaller = build_call_graph(f1.cg.nodes, rest)
            assert label_all(smaller, f1.h)[dropped.source] <= full[dropped.source]


@st.composite
def relabelled_corpora(draw):
    """(hierarchy, graph, options, a renaming of the type ids).  Types sit
    in two projects of two packages each, some of them core; parents come
    from the types before, so the hierarchy is acyclic."""
    n = draw(st.integers(1, 8))
    ids = [f"T{i}" for i in range(n)]
    types = {}
    for i, tid in enumerate(ids):
        project = draw(st.sampled_from(["p1", "p2"]))
        types[tid] = _type(
            tid, parents=draw(st.lists(st.sampled_from(ids[:i]), max_size=2, unique=True))
            if i else (),
            declares=("f", "g"), project=project,
            package=f"{project}.{draw(st.sampled_from('ab'))}",
            core=draw(st.integers(0, 4)) == 0,
        )
    methods = st.builds(MethodNode, st.sampled_from(ids), st.sampled_from([sig("f"), sig("g")]))
    edges = draw(st.lists(st.builds(CallEdge, methods, methods, st.sampled_from(ids)),
                          max_size=25))
    options = LocalnessOptions(draw(st.booleans()), draw(st.booleans()))
    renaming = dict(zip(ids, draw(st.permutations(ids))))
    return TypeHierarchy(types), build_call_graph([], edges), options, renaming


def relabel(h, cg, renaming):
    """The same corpus with every type id replaced through `renaming`."""
    def node(n):
        return MethodNode(renaming[n.defining_type], n.signature)

    types = {
        renaming[tid]: t._replace(
            type_id=renaming[tid], parents=tuple(renaming[p] for p in t.parents)
        )
        for tid, t in h.types.items()
    }
    edges = [CallEdge(node(e.source), node(e.target), renaming[e.receiver_type])
             for e in cg.edges]
    return TypeHierarchy(types), build_call_graph(map(node, cg.nodes), edges), node


class TestLabelIsTheHighestEdgeLevel:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(relabelled_corpora())
    def test_labels_match_the_reference_and_ignore_type_ids(self, case):
        h, cg, options, renaming = case
        labels = label_all(cg, h, options)
        assert labels == {n: reference_label(n, cg, h, options) for n in cg.nodes}
        h2, cg2, node = relabel(h, cg, renaming)
        assert label_all(cg2, h2, options) == {node(n): level for n, level in labels.items()}


class TestSameHierarchy:
    def test_ancestor_descendant_and_self(self, f1):
        assert same_hierarchy(f1.h, "T2", "T1")
        assert same_hierarchy(f1.h, "T1", "T2")
        assert same_hierarchy(f1.h, "T3", "T3")

    def test_core_common_ancestor_does_not_connect(self, f1):
        # T4 and T5 share only java.lang.Object
        assert not same_hierarchy(f1.h, "T4", "T5")

    def test_siblings_under_non_core_ancestor_extended_only(self, f1):
        # T2 and T3 share the core ancestor T1, so they are unrelated even
        # under the extended rule
        assert not same_hierarchy(f1.h, "T2", "T3")
        h = TypeHierarchy({
            "P": _type("P"),
            "A": _type("A", parents=["P"]),
            "B": _type("B", parents=["P"]),
        })
        assert same_hierarchy(h, "A", "B")
        assert not same_hierarchy(h, "A", "B", STRICT)


class TestOptionFlags:
    def _sibling_corpus(self):
        h = TypeHierarchy({
            "P": _type("P", package="p.base"),
            "A": _type("A", parents=["P"], declares=["f"], package="p.a"),
            "B": _type("B", parents=["P"], declares=["g"], package="p.b"),
        })
        cg = build_call_graph(
            [], [CallEdge(m("A", "f"), m("B", "g"), "B")]
        )
        return h, cg

    def test_extended_vs_strict_hierarchy(self):
        h, cg = self._sibling_corpus()
        # siblings under non-core P: extended rule keeps the call level 1
        assert categorize(m("A", "f"), cg, h) == 1
        # strict rule drops to same-project evidence
        assert categorize(m("A", "f"), cg, h, STRICT) == 2

    def test_package_boundary(self):
        h, cg = self._sibling_corpus()
        strict_by_package = LocalnessOptions(
            extended_hierarchy=False, package_boundary=True
        )
        # same project but different packages: the boundary flag decides 2 vs 3
        assert categorize(m("A", "f"), cg, h, STRICT) == 2
        assert categorize(m("A", "f"), cg, h, strict_by_package) == 3


class TestLocalnessDistribution:
    def test_f1_top_origin_distribution(self, f1):
        origins = find_origins(f1.cg, f1.h)
        labels = label_all(f1.cg, f1.h)
        dist = localness_distribution(
            origins, labels, [OriginRef("T1", sig("next"))]
        )
        assert dist.per_origin[OriginRef("T1", sig("next"))] == (0.0, 0.5, 0.0, 0.5)

    def test_single_level0_derivative(self, f1):
        origins = find_origins(f1.cg, f1.h)
        labels = label_all(f1.cg, f1.h)
        ref = OriginRef("T2", sig("helper"))
        dist = localness_distribution(origins, labels, [ref])
        assert dist.per_origin[ref] == (1.0, 0.0, 0.0, 0.0)

    def test_zero_derivatives_flagged_empty(self, f1):
        origins = find_origins(f1.cg, f1.h)
        labels = label_all(f1.cg, f1.h)
        ghost = OriginRef("T1", sig("hasNext"))
        dist = localness_distribution(origins, labels, [ghost])
        assert dist.per_origin[ghost] is None

    def test_rows_are_probability_vectors(self, f1):
        origins = find_origins(f1.cg, f1.h)
        labels = label_all(f1.cg, f1.h)
        table = origin_edge_frequencies(f1.cg, origins)
        dist = localness_distribution(origins, labels, [o for o, _ in table.rows])
        for levels in dist.per_origin.values():
            assert levels is not None
            assert all(0.0 <= x <= 1.0 for x in levels)
            assert abs(sum(levels) - 1.0) < 1e-9

    def test_missing_label_raises(self, f1):
        origins = find_origins(f1.cg, f1.h)
        with pytest.raises(KeyError, match="labels do not cover"):
            localness_distribution(origins, {}, [OriginRef("T1", sig("next"))])
