"""Origin analysis: first declarations, frequency ranking, exclusion lists."""

import pickle
from collections import Counter
from itertools import chain

import pytest
from hypothesis import HealthCheck, given, settings

from conftest import SIGS, WriteCountingDict, hierarchies_with_graphs, m, sig
from reference import _reflexive_ancestor_depths, brute_force_origins

from cgprune import (
    CallEdge,
    GenParams,
    OriginRef,
    TypeHierarchy,
    TypeNode,
    UnknownTypeError,
    build_call_graph,
    build_exclusion_list,
    find_origins,
    generate_call_graph_cha,
    generate_hierarchy,
    origin_edge_frequencies,
    unique_derivative_counts,
)
from cgprune import model


def _type(tid, parents=(), declares=()):
    return TypeNode(
        type_id=tid,
        fq_name=f"x.{tid}",
        parents=tuple(parents),
        declared=frozenset(sig(n) for n in declares),
        project_id="p",
    )


class TestFindOrigins:
    def test_f1_override_maps_to_first_declarer(self, f1):
        origins = find_origins(f1.cg, f1.h)
        assert origins.entries[m("T2", "next")] == OriginRef("T1", sig("next"))
        assert origins.entries[m("T3", "next")] == OriginRef("T1", sig("next"))

    def test_f1_self_origin(self, f1):
        origins = find_origins(f1.cg, f1.h)
        assert origins.entries[m("T2", "helper")] == OriginRef("T2", sig("helper"))

    def test_total_over_targets_only(self, f1):
        origins = find_origins(f1.cg, f1.h)
        targets = {e.target for e in f1.cg.edges}
        assert set(origins.entries) == targets
        # m(T1,next) is never a target, so it gets no entry
        assert m("T1", "next") not in origins.entries

    def test_origin_minimality(self, f1):
        origins = find_origins(f1.cg, f1.h)
        for ref in origins.entries.values():
            assert f1.h.types[ref.origin_type].declares(ref.signature)
            for anc in _reflexive_ancestor_depths(f1.h, ref.origin_type).keys() - {ref.origin_type}:
                assert not f1.h.types[anc].declares(ref.signature)

    def test_skips_intermediate_non_declarer(self):
        # C overrides f() first declared in A; B in between declares nothing
        h = TypeHierarchy({
            "A": _type("A", declares=["f"]),
            "B": _type("B", parents=["A"]),
            "C": _type("C", parents=["B"], declares=["f"]),
        })
        cg = build_call_graph([], [CallEdge(m("A", "f"), m("C", "f"), "A")])
        origins = find_origins(cg, h)
        assert origins.entries[m("C", "f")] == OriginRef("A", sig("f"))

    def test_ambiguous_diamond_reports_candidates(self):
        # two unrelated interfaces declare f(); D sees both at depth 1
        h = TypeHierarchy({
            "IA": _type("IA", declares=["f"]),
            "IB": _type("IB", declares=["f"]),
            "D": _type("D", parents=["IA", "IB"], declares=["f"]),
        })
        cg = build_call_graph([], [CallEdge(m("IA", "f"), m("D", "f"), "D")])
        origins = find_origins(cg, h)
        assert origins.entries[m("D", "f")] == OriginRef("IA", sig("f"))
        assert origins.ambiguous[m("D", "f")] == (
            OriginRef("IA", sig("f")),
            OriginRef("IB", sig("f")),
        )

    def test_ambiguity_prefers_smaller_depth(self):
        # near declarer at depth 1, independent far declarer at depth 2
        h = TypeHierarchy({
            "Far": _type("Far", declares=["f"]),
            "Mid": _type("Mid", parents=["Far"]),
            "Near": _type("Near", declares=["f"]),
            "D": _type("D", parents=["Mid", "Near"], declares=["f"]),
        })
        cg = build_call_graph([], [CallEdge(m("Far", "f"), m("D", "f"), "D")])
        origins = find_origins(cg, h)
        assert origins.entries[m("D", "f")] == OriginRef("Near", sig("f"))
        assert origins.ambiguous[m("D", "f")] == (
            OriginRef("Near", sig("f")),
            OriginRef("Far", sig("f")),
        )

    def test_f1_has_no_ambiguity(self, f1):
        assert find_origins(f1.cg, f1.h).ambiguous == {}

    def test_unknown_defining_type_raises(self, f1):
        cg = build_call_graph(
            [], [CallEdge(m("T4", "run"), m("T9", "next"), "T1")]
        )
        with pytest.raises(UnknownTypeError):
            find_origins(cg, f1.h)

    def test_dangling_parent_above_a_declarer_is_skipped(self, f1):
        # hand-built only: loaded and generated hierarchies have no dangling
        # parents.  The root declarers of `next` walk the ancestors of every
        # declarer, T6 too, although no target descends from T6.
        types = dict(f1.h.types, T6=_type("T6", parents=("GHOST",), declares=("next",)))
        h = TypeHierarchy(types, f1.h.core_project_id)
        assert find_origins(f1.cg, h) == brute_force_origins(f1.cg, h)
        assert find_origins(f1.cg, h) == find_origins(f1.cg, f1.h)

    def test_empty_graph(self, f1):
        origins = find_origins(build_call_graph([], []), f1.h)
        assert origins.entries == {}

    def test_restriction_idempotence(self, f1):
        # origins of a pruned graph = restriction of the original map
        origins = find_origins(f1.cg, f1.h)
        kept = [e for e in f1.cg.edges if e.target.signature != sig("next")]
        pruned = build_call_graph(f1.cg.nodes, kept)
        pruned_origins = find_origins(pruned, f1.h)
        targets = {e.target for e in pruned.edges}
        assert pruned_origins.entries == {
            t: origins.entries[t] for t in targets
        }

    def test_one_ancestor_walk_per_type(self):
        params = GenParams(type_count=120, seed=4)
        h = generate_hierarchy(params)
        cg = generate_call_graph_cha(h, params)
        expected = find_origins(cg, h)
        fresh = generate_hierarchy(params)
        vars(fresh)["_ancestors"] = ancestors = WriteCountingDict()  # a new, empty memo
        assert find_origins(cg, fresh) == expected
        targets = {e.target for e in cg.edges}
        # several signatures share most target types, yet each is walked once
        assert len(targets) > len({t.defining_type for t in targets})
        assert set(ancestors.writes.values()) == {1}
        assert {t.defining_type for t in targets} <= ancestors.writes.keys()

    def test_one_root_declarer_call_per_signature(self, monkeypatch):
        # the per-call table is the one root-declarer cache: the hierarchy
        # keeps none, so a call per target would repeat its declarer walks
        params = GenParams(type_count=120, seed=4)
        h = generate_hierarchy(params)
        cg = generate_call_graph_cha(h, params)
        asked = Counter()
        real = TypeHierarchy.root_declarers

        def counting(self, signature):
            asked[signature] += 1
            return real(self, signature)

        monkeypatch.setattr(TypeHierarchy, "root_declarers", counting)
        signatures = {e.target.signature for e in cg.edges}
        # several targets share each of many signatures
        assert len({e.target for e in cg.edges}) > len(signatures)
        # a fresh hierarchy, the same one reused, then another fresh one
        for hierarchy in (h, h, generate_hierarchy(params)):
            asked.clear()
            find_origins(cg, hierarchy)
            assert asked.keys() == signatures
            assert set(asked.values()) == {1}


class TestSharedOriginRefs:
    def test_one_object_per_origin_in_one_call(self):
        params = GenParams(type_count=120, seed=4)
        h = generate_hierarchy(params)
        origins = find_origins(generate_call_graph_cha(h, params), h)
        refs = [*origins.entries.values(), *chain.from_iterable(origins.ambiguous.values())]
        assert origins.ambiguous and len(set(refs)) < len(origins.entries)
        first: dict[OriginRef, OriginRef] = {}
        for ref in refs:
            assert first.setdefault(ref, ref) is ref

    def test_hash_follows_the_value(self):
        ref = OriginRef("T1", sig("next"))
        assert hash(ref) == hash(("T1", sig("next")))
        assert {OriginRef("T1", model.MethodSignature("next")): 1}[ref] == 1
        moved = ref._replace(origin_type="T2")
        assert hash(moved) == hash(OriginRef("T2", sig("next"))) != hash(ref)
        copy = pickle.loads(pickle.dumps(ref))
        assert copy == ref and hash(copy) == hash(ref)
        assert sorted([moved, ref]) == [ref, moved]
        assert repr(ref) == f"OriginRef(origin_type='T1', signature={sig('next')!r})"


def _shapes(h, cg, ambiguous):
    """The hierarchy shapes of one example that the differential must meet."""
    shapes = set()
    above = {t: set(_reflexive_ancestor_depths(h, t)) for t in h.types}
    parents = {t: [p for p in h.types[t].parents if p in h.types] for t in h.types}
    if any(above[p] & above[q] for t in h.types
           for p in parents[t] for q in parents[t] if p < q):
        shapes.add("diamond")
    if any(len(parents[t]) < len(h.types[t].parents) for t in h.types):
        shapes.add("dangling parent")
    if ambiguous:
        shapes.add("independent roots")
    for s in SIGS:
        declarers = {t for t in h.types if h.types[t].declares(sig(s))}
        if any(len(above[d] & declarers) > 1 for d in declarers):
            shapes.add("declarer above declarer")
        targeted = {e.target.defining_type for e in cg.edges if e.target.signature == sig(s)}
        if targeted and any(all(d not in above[t] for t in targeted) for d in declarers):
            shapes.add("untargeted declarer")
    return shapes


class TestMatchesBruteForce:
    def test_random_dags(self):
        seen = set()

        @settings(
            max_examples=200, derandomize=True, database=None, deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(hierarchies_with_graphs())
        def check(case):
            h, cg, _ = case
            origins = find_origins(cg, h)
            assert origins == brute_force_origins(cg, h)
            for s in SIGS:
                declarers = {t for t in h.types if h.types[t].declares(sig(s))}
                assert h.root_declarers(sig(s)) == {
                    d for d in declarers
                    if declarers.isdisjoint(_reflexive_ancestor_depths(h, d).keys() - {d})
                }
            seen.update(_shapes(h, cg, origins.ambiguous))

        check()
        assert seen == {
            "diamond", "independent roots", "declarer above declarer", "untargeted declarer",
            "dangling parent",
        }


class TestOriginEdgeFrequencies:
    def test_f1_table(self, f1):
        origins = find_origins(f1.cg, f1.h)
        table = origin_edge_frequencies(f1.cg, origins)
        assert table.rows == (
            (OriginRef("T1", sig("next")), 2),
            (OriginRef("T4", sig("run")), 2),
            (OriginRef("T0", sig("hashCode")), 1),
            (OriginRef("T2", sig("helper")), 1),
            (OriginRef("T5", sig("fmt")), 1),
        )

    def test_counts_conserve_edges(self, f1):
        table = origin_edge_frequencies(f1.cg, find_origins(f1.cg, f1.h))
        assert sum(count for _, count in table.rows) == f1.cg.edge_count

    def test_empty_graph_empty_table(self, f1):
        cg = build_call_graph([], [])
        assert origin_edge_frequencies(cg, find_origins(cg, f1.h)).rows == ()

    def test_partial_origin_map_rejected(self, f1):
        from cgprune import OriginMap

        with pytest.raises(KeyError, match="not total"):
            origin_edge_frequencies(f1.cg, OriginMap(entries={}))


class TestUniqueDerivativeCounts:
    def test_f1_counts(self, f1):
        origins = find_origins(f1.cg, f1.h)
        counts = unique_derivative_counts(f1.cg, origins)
        assert counts == [
            (OriginRef("T1", sig("next")), 2),
            (OriginRef("T0", sig("hashCode")), 1),
            (OriginRef("T2", sig("helper")), 1),
            (OriginRef("T4", sig("run")), 1),
            (OriginRef("T5", sig("fmt")), 1),
        ]

    def test_distinct_nodes_not_edges(self, f1):
        # m(T4,run) is the target of two edges but is one derivative
        origins = find_origins(f1.cg, f1.h)
        counts = dict(unique_derivative_counts(f1.cg, origins))
        assert counts[OriginRef("T4", sig("run"))] == 1


class TestBuildExclusionList:
    def test_f1_top_1(self, f1):
        table = origin_edge_frequencies(f1.cg, find_origins(f1.cg, f1.h))
        excl = build_exclusion_list(table, 1)
        assert excl.origins == {OriginRef("T1", sig("next"))}
        assert excl.declared_size == 1

    def test_n_zero_is_empty(self, f1):
        table = origin_edge_frequencies(f1.cg, find_origins(f1.cg, f1.h))
        excl = build_exclusion_list(table, 0)
        assert excl.origins == frozenset()

    def test_prefix_saturates_at_table_length(self, f1):
        table = origin_edge_frequencies(f1.cg, find_origins(f1.cg, f1.h))
        excl = build_exclusion_list(table, 1000)
        assert excl.origins == {origin for origin, _count in table.rows}
        assert len(excl.origins) == len(table.rows)
        assert excl.declared_size == 1000

    def test_same_signature_origins_group(self):
        # two independent hierarchies both originate f(); Top-2 groups them
        h = TypeHierarchy({
            "A": _type("A", declares=["f"]),
            "B": _type("B", parents=["A"], declares=["f"]),
            "C": _type("C", declares=["f"]),
            "D": _type("D", parents=["C"], declares=["f"]),
        })
        cg = build_call_graph([], [
            CallEdge(m("A", "f"), m("B", "f"), "A"),
            CallEdge(m("C", "f"), m("D", "f"), "C"),
        ])
        table = origin_edge_frequencies(cg, find_origins(cg, h))
        excl = build_exclusion_list(table, 2)
        assert excl.origins == {OriginRef("A", sig("f")), OriginRef("C", sig("f"))}

    def test_negative_n_rejected(self, f1):
        table = origin_edge_frequencies(f1.cg, find_origins(f1.cg, f1.h))
        with pytest.raises(ValueError):
            build_exclusion_list(table, -1)
