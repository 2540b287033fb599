"""Synthetic corpus generation and the brute-force origin oracle."""

import pytest

from conftest import m, sig
from reference import _reflexive_ancestor_depths, brute_force_origins

from cgprune import (
    CallEdge,
    GenParams,
    TypeHierarchy,
    TypeNode,
    build_call_graph,
    cha_targets,
    find_origins,
    generate_call_graph_cha,
    generate_hierarchy,
    save_call_graph,
    save_hierarchy,
    validate_call_graph,
    validate_hierarchy,
)


class TestGenParams:
    def test_defaults_are_valid(self):
        GenParams()

    def test_counts_must_be_positive(self):
        for field in ("type_count", "signature_pool_size", "project_count",
                      "max_parents_per_type"):
            with pytest.raises(ValueError, match=field):
                GenParams(**{field: 0})

    def test_probabilities_in_range(self):
        with pytest.raises(ValueError):
            GenParams(override_probability=1.5)
        with pytest.raises(ValueError):
            GenParams(core_type_fraction=-0.1)

    def test_call_site_range_checked(self):
        with pytest.raises(ValueError):
            GenParams(call_sites_per_method=(3, 1))
        GenParams(call_sites_per_method=(0, 0))

    def test_a_list_of_call_sites_is_kept_as_a_tuple(self):
        params = GenParams(call_sites_per_method=[0, 3])
        assert params.call_sites_per_method == (0, 3)
        assert params == GenParams()
        assert hash(params) == hash(GenParams())


class TestGenerateHierarchy:
    def test_single_type_is_a_root(self):
        h = generate_hierarchy(GenParams(type_count=1, seed=5))
        (node,) = h.types.values()
        assert node.parents == ()

    def test_always_passes_validation(self):
        for seed in range(10):
            h = generate_hierarchy(GenParams(seed=seed))
            assert validate_hierarchy(h) == []

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_hierarchy(generate_hierarchy(GenParams(seed=9)), str(a))
        save_hierarchy(generate_hierarchy(GenParams(seed=9)), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self):
        assert generate_hierarchy(GenParams(seed=1)) != generate_hierarchy(
            GenParams(seed=2)
        )

    def test_zero_override_probability_forces_self_origins(self):
        h = generate_hierarchy(GenParams(override_probability=0.0, seed=4))
        for tid, node in h.types.items():
            inherited = set()
            for anc in _reflexive_ancestor_depths(h, tid).keys() - {tid}:
                inherited |= h.types[anc].declared
            assert not (node.declared & inherited)

    def test_core_slice_sits_in_core_project(self):
        p = GenParams(type_count=40, core_type_fraction=0.25, seed=3)
        h = generate_hierarchy(p)
        core = [t for t in h.types.values() if t.is_core_lib]
        assert len(core) == 10
        assert all(t.project_id == h.core_project_id for t in core)

    def test_parents_only_from_earlier_indices(self):
        h = generate_hierarchy(GenParams(type_count=60, seed=8))
        for tid, node in h.types.items():
            assert all(p < tid for p in node.parents)


class TestChaTargets:
    def test_f1_next_cone(self, f1):
        targets = cha_targets(f1.h, "T1", sig("next"))
        assert targets == [m("T1", "next"), m("T2", "next"), m("T3", "next")]

    def test_receiver_without_declaration_excluded(self):
        # receiver's own type lacks f(); only the declaring child appears
        h = TypeHierarchy({
            "R": TypeNode("R", "x.R", (), frozenset({sig("g")}), "p"),
            "C": TypeNode("C", "x.C", ("R",), frozenset({sig("f")}), "p"),
        })
        assert cha_targets(h, "R", sig("f")) == [m("C", "f")]


class TestGenerateCallGraphCha:
    def test_zero_call_sites_gives_edgeless_graph(self):
        p = GenParams(call_sites_per_method=(0, 0), seed=2)
        h = generate_hierarchy(p)
        cg = generate_call_graph_cha(h, p)
        assert cg.edge_count == 0
        assert cg.node_count > 0

    def test_same_seed_identical_edges(self, tmp_path):
        p = GenParams(seed=6)
        h = generate_hierarchy(p)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_call_graph(generate_call_graph_cha(h, p), str(a))
        save_call_graph(generate_call_graph_cha(h, p), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_valid_against_its_hierarchy(self):
        for seed in range(5):
            p = GenParams(seed=seed)
            h = generate_hierarchy(p)
            cg = generate_call_graph_cha(h, p)
            assert validate_call_graph(cg, h) == []

    def test_every_declared_method_is_a_node(self):
        p = GenParams(seed=11)
        h = generate_hierarchy(p)
        cg = generate_call_graph_cha(h, p)
        declared = {
            m_
            for tid, t in h.types.items()
            for m_ in (type(next(iter(cg.nodes)))(tid, s) for s in t.declared)
        }
        assert declared <= cg.nodes

    def test_cha_expansion_covers_full_cone(self):
        # every edge's (receiver, signature) cone is fully present
        p = GenParams(seed=13, call_sites_per_method=(1, 2))
        h = generate_hierarchy(p)
        cg = generate_call_graph_cha(h, p)
        by_site = {}
        for e in cg.edges:
            by_site.setdefault(
                (e.source, e.receiver_type, e.target.signature), set()
            ).add(e.target)
        for (source, receiver, s), targets in by_site.items():
            assert targets == set(cha_targets(h, receiver, s))


class TestBruteForceOrigins:
    def test_agrees_with_find_origins_on_f1(self, f1):
        assert brute_force_origins(f1.cg, f1.h) == find_origins(f1.cg, f1.h)

    def test_single_type_hierarchy_all_self_origins(self):
        h = TypeHierarchy({
            "T": TypeNode("T", "x.T", (), frozenset({sig("f"), sig("g")}), "p"),
        })
        cg = build_call_graph([], [CallEdge(m("T", "f"), m("T", "g"), "T")])
        origins = brute_force_origins(cg, h)
        assert origins.entries[m("T", "g")].origin_type == "T"

    def test_agrees_on_random_corpora(self):
        for seed in range(15):
            p = GenParams(type_count=120, signature_pool_size=6, seed=seed)
            h = generate_hierarchy(p)
            cg = generate_call_graph_cha(h, p)
            fast = find_origins(cg, h)
            slow = brute_force_origins(cg, h)
            assert fast.entries == slow.entries
            assert fast.ambiguous == slow.ambiguous
