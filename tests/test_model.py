"""Domain model: hierarchy validation, ancestor walks, graph construction."""

import itertools
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WriteCountingDict, f1_edges, m, make_f1_hierarchy, sig
from reference import _reflexive_ancestor_depths, is_reflexive_descendant

from cgprune import (
    CallEdge,
    GenParams,
    MethodNode,
    MethodSignature,
    OriginRef,
    PipelineConfig,
    TypeHierarchy,
    TypeNode,
    UnknownTypeError,
    build_call_graph,
    build_exclusion_list,
    find_origins,
    generate_call_graph_cha,
    generate_hierarchy,
    origin_edge_frequencies,
    prune_exhaustive,
    reverse_adjacency,
    run_pipeline,
    save_call_graph,
    save_hierarchy,
    validate_call_graph,
    validate_hierarchy,
)
from cgprune import cli, model


def _type(tid, parents=(), declared=(), project="p", core=False, core_project="core"):
    return TypeNode(
        type_id=tid,
        fq_name=f"x.{tid}",
        parents=tuple(parents),
        declared=frozenset(declared),
        project_id=core_project if core else project,
        is_core_lib=core,
    )


class TestMethodSignature:
    def test_structural_equality_across_types(self):
        assert MethodSignature("next", (), "obj") == MethodSignature("next", (), "obj")
        assert MethodSignature("next") != MethodSignature("next", ("int",))

    def test_name_must_be_non_empty(self):
        with pytest.raises(ValueError):
            MethodSignature("")

    def test_text_round_trip(self):
        original = MethodSignature("get", ("int", "java.lang.String"), "V")
        assert MethodSignature.from_text(original.to_text()) == original
        assert original.to_text() == "get(int,java.lang.String):V"

    def test_from_text_rejects_garbage(self):
        for bad in ["", "noparens", "():x", "f()", "f():"]:
            with pytest.raises(ValueError):
                MethodSignature.from_text(bad)


class TestMethodNode:
    def test_uid_round_trip(self):
        node = m("T2", "next")
        assert MethodNode.from_uid(node.uid) == node

    def test_from_uid_rejects_missing_separator(self):
        with pytest.raises(ValueError):
            MethodNode.from_uid("T2/next():void")


class TestIdentity:
    """A signature's or a node's hash follows its value."""

    def test_separately_built_equal_objects_hash_equal(self):
        one = MethodNode("T2", MethodSignature("get", ("int",), "V"))
        two = MethodNode.from_uid("T2::get(int):V")
        assert one is not two and one.signature is not two.signature
        assert one.signature == two.signature
        assert hash(one.signature) == hash(two.signature)
        assert one == two
        assert hash(one) == hash(two)
        assert {one: 1}[two] == 1

    def test_replace_rehashes(self):
        node = MethodNode("T2", MethodSignature("get", ("int",), "V"))
        moved = node._replace(defining_type="T3")
        renamed = node.signature._replace(name="put")
        assert moved == MethodNode("T3", node.signature)
        assert hash(moved) == hash(MethodNode("T3", node.signature))
        assert renamed == MethodSignature("put", ("int",), "V")
        assert hash(renamed) == hash(MethodSignature("put", ("int",), "V"))
        assert moved not in {node}

    def test_unpickled_in_another_process_rehashes(self):
        # string hashes are salted per process, so a pickled cache would be
        # stale in a process with another salt
        code = (
            "import pickle, sys; from cgprune import MethodNode; "
            "sys.stdout.buffer.write(pickle.dumps(MethodNode.from_uid('T2::get(int):V')))"
        )
        env = dict(os.environ, PYTHONHASHSEED="1")
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        payload = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, check=True
        ).stdout
        loaded = pickle.loads(payload)
        original = MethodNode.from_uid("T2::get(int):V")
        assert hash(loaded) == hash(original)
        assert loaded in {original}
        assert loaded.signature in {original.signature}


class TestValidateHierarchy:
    def test_f1_is_clean(self):
        assert validate_hierarchy(make_f1_hierarchy()) == []

    def test_self_parent_is_a_cycle(self):
        h = TypeHierarchy({"T2": _type("T2", parents=["T2"])})
        violations = validate_hierarchy(h)
        assert [(v.rule, v.type_id) for v in violations] == [("cycle", "T2")]

    def test_dangling_parent(self):
        h = TypeHierarchy({"T2": _type("T2", parents=["T9"])})
        violations = validate_hierarchy(h)
        assert [(v.rule, v.type_id) for v in violations] == [("dangling-parent", "T2")]
        assert "T9" in violations[0].message

    def test_two_type_cycle_names_both(self):
        h = TypeHierarchy({
            "A": _type("A", parents=["B"]),
            "B": _type("B", parents=["A"]),
        })
        rules = {(v.rule, v.type_id) for v in validate_hierarchy(h)}
        assert rules == {("cycle", "A"), ("cycle", "B")}

    def test_core_type_outside_core_project(self):
        node = TypeNode("T1", "x.T1", (), frozenset(), "app", is_core_lib=True)
        violations = validate_hierarchy(TypeHierarchy({"T1": node}))
        assert [v.rule for v in violations] == ["core-project"]


class TestIsReflexiveDescendant:
    def test_f1_cases(self):
        h = make_f1_hierarchy()
        assert is_reflexive_descendant(h, "T1", "T2") is True
        assert is_reflexive_descendant(h, "T1", "T1") is True
        assert is_reflexive_descendant(h, "T2", "T1") is False

    def test_antisymmetry_on_f1(self):
        h = make_f1_hierarchy()
        for a in h.sorted_ids():
            for t in h.sorted_ids():
                if a != t:
                    assert not (
                        is_reflexive_descendant(h, a, t)
                        and is_reflexive_descendant(h, t, a)
                    )

    def test_unknown_ids_raise(self):
        h = make_f1_hierarchy()
        with pytest.raises(UnknownTypeError):
            is_reflexive_descendant(h, "T9", "T1")
        with pytest.raises(UnknownTypeError):
            is_reflexive_descendant(h, "T1", "T9")


@st.composite
def hierarchies_with_roots(draw):
    """Random hierarchies with multiple parents, hence diamonds, plus a few
    roots; `cyclic` also allows parent links to later types and to self."""
    n = draw(st.integers(1, 12))
    cyclic = draw(st.booleans())
    types = {}
    for i in range(n):
        pool = [f"T{j}" for j in (range(n) if cyclic else range(i))]
        parents = draw(st.lists(st.sampled_from(pool), max_size=3, unique=True)) if pool else []
        types[f"T{i}"] = _type(f"T{i}", parents)
    h = TypeHierarchy(types)
    roots = draw(st.lists(st.sampled_from(sorted(types)), min_size=1, max_size=3))
    return h, roots


class TestDescendants:
    def test_children_index_inverts_parents(self):
        h = make_f1_hierarchy()
        idx = h.children
        assert idx["T0"] == ["T1", "T4", "T5"]
        assert idx["T1"] == ["T2", "T3"]
        assert idx["T5"] == []
        assert h.children is h.children

    def test_reflexive_descendants(self):
        h = make_f1_hierarchy()
        assert h.descendant_cone("T1") == {"T1", "T2", "T3"}
        assert h.descendant_cone("T5") == {"T5"}

    def test_diamond(self):
        h = TypeHierarchy({
            "A": _type("A"), "B": _type("B", ["A"]), "C": _type("C", ["A"]),
            "D": _type("D", ["B", "C"]),
        })
        assert h.descendant_cone("A") == {"A", "B", "C", "D"}
        assert h.descendant_cone("B") == {"B", "D"}
        assert h.descendant_cone("C") == {"C", "D"}
        assert h.reflexive_ancestors("D") == {"A", "B", "C", "D"}

    def test_unknown_root_raises(self):
        h = make_f1_hierarchy()
        with pytest.raises(UnknownTypeError, match="T9"):
            h.reflexive_ancestors("T9")
        with pytest.raises(UnknownTypeError, match="T9"):
            h.descendant_cone("T9")
        assert "T9" not in h._ancestors
        assert "T9" not in h._cones

    def test_reflexive_ancestors_memoised(self):
        h = make_f1_hierarchy()
        assert h.reflexive_ancestors("T3") == {"T3", "T1", "T0"}
        assert h.reflexive_ancestors("T3") is h.reflexive_ancestors("T3")
        # filled lazily: only the types asked for are held
        assert set(h._ancestors) == {"T3"}

    @settings(max_examples=300, deadline=None)
    @given(hierarchies_with_roots())
    def test_cone_matches_pairwise_reference(self, case):
        h, roots = case
        for r in roots:
            expected = {u for u in h.types if is_reflexive_descendant(h, r, u)}
            assert h.descendant_cone(r) == expected

    @settings(max_examples=300, deadline=None)
    @given(hierarchies_with_roots())
    def test_descendant_cone_memo(self, case):
        h, _ = case
        for t in h.sorted_ids():
            cone = h.descendant_cone(t)
            assert cone == {u for u in h.types if is_reflexive_descendant(h, t, u)}
            assert h.descendant_cone(t) is cone
        assert set(h._cones) == set(h.types)

    def test_prune_sweep_walks_each_origin_cone_once(self, monkeypatch):
        params = GenParams(type_count=120, seed=4)
        h = generate_hierarchy(params)
        cg = generate_call_graph_cha(h, params)
        table = origin_edge_frequencies(cg, find_origins(cg, h))

        def forbidden(self, type_id):
            raise AssertionError(f"ancestor walk of {type_id}")

        monkeypatch.setattr(TypeHierarchy, "reflexive_ancestors", forbidden)
        fresh = generate_hierarchy(params)
        vars(fresh)["_cones"] = cones = WriteCountingDict()  # a new, empty memo
        for n in range(100):
            prune_exhaustive(cg, build_exclusion_list(table, n), fresh)
        origin_types = {ref.origin_type for ref, _count in table.top(99)}
        # rows share origin types, and every N lists the rows before it again
        assert len(table.top(99)) > len(origin_types)
        assert cones.writes.keys() == origin_types
        assert set(cones.writes.values()) == {1}

    def test_ancestor_depths_share_the_memo(self):
        diamond = TypeHierarchy({
            "Top": _type("Top"),
            "L": _type("L", parents=["Top"]),
            "R": _type("R", parents=["Top"]),
            "Bot": _type("Bot", parents=["L", "R"]),
        })
        for h, tid, depths in [
            (make_f1_hierarchy(), "T3", {"T3": 0, "T1": 1, "T0": 2}),
            (diamond, "Bot", {"Bot": 0, "L": 1, "R": 1, "Top": 2}),
        ]:
            # deduplicated, in discovery order (breadth first, parents as listed)
            found = h.reflexive_ancestors(tid).mapping
            assert list(found.items()) == list(depths.items())
            assert list(_reflexive_ancestor_depths(h, tid).items()) == list(depths.items())
            assert set(h._ancestors) == {tid}
            assert h.reflexive_ancestors(tid) == set(depths)
            with pytest.raises(TypeError):
                found[tid] = 5  # the memo is read-only
            assert h.reflexive_ancestors(tid).mapping == depths

    @settings(max_examples=300, deadline=None)
    @given(hierarchies_with_roots())
    def test_ancestors_match_reference(self, case):
        h, _ = case
        for t in h.sorted_ids():
            depths = _reflexive_ancestor_depths(h, t)
            found = h.reflexive_ancestors(t)
            # the same depths, in the same discovery order
            assert list(found.mapping.items()) == list(depths.items())
            assert found == {a for a in h.types if is_reflexive_descendant(h, a, t)}
            # a second request answers from the memo
            assert h.reflexive_ancestors(t) is found


class TestCycleRule:
    @settings(max_examples=300, deadline=None)
    @given(hierarchies_with_roots())
    def test_cycle_violations_match_reference(self, case):
        # a type is on a cycle iff one of its parents has it as an ancestor;
        # a type merely between two cycles, or below one, is not
        h, _ = case
        expected = [
            t for t in h.sorted_ids()
            if any(t in _reflexive_ancestor_depths(h, p) for p in h.types[t].parents)
        ]
        found = [v.type_id for v in validate_hierarchy(h) if v.rule == "cycle"]
        assert found == expected


class TestCallGraphConstruction:
    def test_duplicates_collapse_and_are_counted(self):
        edges = list(f1_edges().values())
        cg = build_call_graph([], edges + edges[:3])
        assert cg.edge_count == 7
        assert cg.duplicate_count == 3

    def test_endpoints_become_nodes(self):
        e = CallEdge(m("T4", "run"), m("T2", "next"), "T1")
        cg = build_call_graph([], [e])
        assert cg.nodes == {m("T4", "run"), m("T2", "next")}

    def test_edges_are_canonically_sorted(self, f1):
        assert list(f1.cg.edges) == sorted(f1.cg.edges)

    def test_outgoing_view(self, f1):
        outgoing = f1.cg.outgoing_edges(m("T4", "use"))
        assert {e.target for e in outgoing} == {m("T4", "run"), m("T5", "fmt")}
        assert f1.cg.outgoing_edges(m("T5", "fmt")) == ()

    def test_target_positions_group_every_edge_once(self, f1):
        index = f1.cg.target_positions
        seen = []
        for target_sig, by_type in index.items():
            for tid, positions in by_type.items():
                assert list(positions) == sorted(positions)
                for i in positions:
                    target = f1.cg.edges[i].target
                    assert (target.signature, target.defining_type) == (target_sig, tid)
                seen.extend(positions)
        assert sorted(seen) == list(range(f1.cg.edge_count))
        assert index[sig("next")] == {
            "T2": (f1.cg.edges.index(f1.edges["cs1a"]),),
            "T3": (f1.cg.edges.index(f1.edges["cs1b"]),),
        }
        assert f1.cg.target_positions is index


# Small alphabets with shared prefixes ("T1" < "T10" < "T2", "get" < "getX"),
# so keys tie on leading fields and compare on later ones.
_IDS = st.sampled_from(["T", "T1", "T10", "T2"])
_NAMES = st.sampled_from(["get", "getX", "g"])
_PARAMS = st.lists(st.sampled_from(["int", "in", "java.lang.String"]), max_size=3)


@st.composite
def method_uids(draw):
    """`type::name(params):ret` texts, sometimes non-canonical: empty
    parameter slots such as ``f(,int)`` parse away."""
    slots = []
    for p in draw(_PARAMS):
        if draw(st.booleans()):
            slots.append("")
        slots.append(p)
    if not slots and draw(st.booleans()):
        slots = ["", ""]
    ret = draw(st.sampled_from(["V", "int", "Vx"]))
    return f"{draw(_IDS)}::{draw(_NAMES)}({','.join(slots)}):{ret}"


@st.composite
def nodes_and_edges(draw):
    """Nodes and edges parsed afresh from uids, so equal values are often
    distinct objects; some edges repeat, by object or by value."""
    uids = draw(st.lists(method_uids(), min_size=1, max_size=8))
    nodes = [MethodNode.from_uid(u) for u in uids]
    triples = draw(st.lists(
        st.tuples(st.sampled_from(uids), st.sampled_from(uids), _IDS), max_size=25
    ))
    edges = [CallEdge(MethodNode.from_uid(a), MethodNode.from_uid(b), r)
             for a, b, r in triples]
    edges += draw(st.lists(st.sampled_from(edges), max_size=5)) if edges else []
    return nodes, edges


def _flat_signature(s):
    return (s.name, s.param_types, s.return_type)


def _flat_node(n):
    return (n.defining_type, *_flat_signature(n.signature))


# each value type's order spelled out field by field, signatures flattened
_FLAT_KEYS = {
    MethodSignature: _flat_signature,
    MethodNode: _flat_node,
    OriginRef: lambda r: (r.origin_type, *_flat_signature(r.signature)),
    CallEdge: lambda e: (*_flat_node(e.source), *_flat_node(e.target), e.receiver_type),
}

# each value as plain nested tuples of its fields
_PLAIN = {
    MethodSignature: _flat_signature,
    MethodNode: lambda n: (n.defining_type, _flat_signature(n.signature)),
    OriginRef: lambda r: (r.origin_type, _flat_signature(r.signature)),
    CallEdge: lambda e: (
        _PLAIN[MethodNode](e.source), _PLAIN[MethodNode](e.target), e.receiver_type
    ),
}


@pytest.mark.parametrize(
    "cls", [MethodSignature, TypeNode, MethodNode, CallEdge, OriginRef],
    ids=lambda cls: cls.__name__,
)
def test_value_types_hash_compare_and_order_in_c(cls):
    # tuple's own slots, not Python methods, and no per-object __dict__
    assert cls.__hash__ is tuple.__hash__
    assert cls.__eq__ is tuple.__eq__
    assert cls.__lt__ is tuple.__lt__
    assert cls.__slots__ == ()
    assert cls.__dictoffset__ == 0


class TestCanonicalOrder:
    """Tuple order against explicit field keys, the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(nodes_and_edges())
    def test_build_matches_generated_order(self, case):
        nodes, edges = case
        cg = build_call_graph(nodes, edges)
        assert cg.edges == tuple(sorted(set(edges)))
        assert cg.duplicate_count == len(edges) - len(set(edges))
        endpoints = {n for e in edges for n in (e.source, e.target)}
        assert cg.nodes == set(nodes) | endpoints
        assert cg.sorted_nodes() == sorted(cg.nodes)

    @settings(max_examples=300, deadline=None)
    @given(nodes_and_edges())
    def test_order_and_hash_are_the_fields(self, case):
        nodes, edges = case
        groups = {
            MethodSignature: [n.signature for n in nodes],
            MethodNode: nodes,
            OriginRef: [OriginRef(n.defining_type, n.signature) for n in nodes],
            CallEdge: edges,
        }
        for cls, values in groups.items():
            key, plain = _FLAT_KEYS[cls], _PLAIN[cls]
            assert sorted(values) == sorted(values, key=key)
            for a, b in itertools.product(values, repeat=2):
                assert (a < b) == (key(a) < key(b))
                assert (a == b) == (key(a) == key(b))
            for v in values:
                assert hash(v) == hash(plain(v))

    @pytest.mark.parametrize("shape", ["canonical", "adjacent duplicate", "swapped pair"])
    @settings(max_examples=150, deadline=None)
    @given(case=nodes_and_edges(), data=st.data())
    def test_nearly_canonical_input(self, shape, case, data):
        # a canonical list is taken as it is; one repeat or one swap in it
        # must send it through the dedup and the sort
        nodes, edges = case
        canonical = sorted(set(edges))
        given_edges = list(canonical)
        if shape == "adjacent duplicate" and canonical:
            i = data.draw(st.integers(0, len(canonical) - 1))
            e = canonical[i]
            given_edges.insert(i + 1, data.draw(st.sampled_from(
                [e, CallEdge(e.source, e.target, e.receiver_type)]
            )))
        elif shape == "swapped pair" and len(canonical) > 1:
            i = data.draw(st.integers(0, len(canonical) - 2))
            given_edges[i], given_edges[i + 1] = given_edges[i + 1], given_edges[i]
        cg = build_call_graph(nodes, given_edges)
        assert cg.edges == tuple(canonical)
        assert cg.duplicate_count == len(given_edges) - len(canonical)
        endpoints = {n for e in edges for n in (e.source, e.target)}
        assert cg.nodes == set(nodes) | endpoints

    def test_empty_graph(self):
        cg = build_call_graph([], [])
        assert cg.edges == () and cg.sorted_nodes() == []

    def test_non_canonical_spelling_is_one_value(self):
        one = MethodNode.from_uid("T::f(,int):V")
        two = MethodNode.from_uid("T::f(int):V")
        assert one == two
        assert build_call_graph([one, two], []).node_count == 1


class TestReverseAdjacency:
    def test_f1_predecessors(self, f1):
        preds = reverse_adjacency(f1.cg)
        assert set(preds[m("T4", "run")]) == {m("T4", "use"), m("T3", "next")}

    def test_cardinality_preserved(self, f1):
        preds = reverse_adjacency(f1.cg)
        assert sum(len(ps) for ps in preds.values()) == 7

    def test_empty_graph(self):
        assert reverse_adjacency(build_call_graph([], [])) == {}

    def test_sources_keep_edge_order_and_multiplicity(self):
        # witness paths take the first caller a search meets, so the order
        # of each target's sources is part of the contract
        t, a, b = m("T9", "run"), m("T1", "f"), m("T2", "g")
        cg = build_call_graph([], [
            CallEdge(b, t, "T9"), CallEdge(a, t, "T8"),
            CallEdge(b, t, "T7"), CallEdge(a, t, "T9"),
        ])
        sources = [e.source for e in cg.edges if e.target == t]
        assert sources == [a, a, b, b]
        assert list(reverse_adjacency(cg)[t]) == sources

    def test_one_read_only_index_of_tuples_per_graph(self, f1):
        preds = reverse_adjacency(f1.cg)
        assert reverse_adjacency(f1.cg) is preds
        assert all(type(sources) is tuple for sources in preds.values())
        with pytest.raises(TypeError):
            preds[m("T9", "ghost")] = ()

    @staticmethod
    def count_builds(monkeypatch) -> list:
        built = []
        real = model._predecessors_from_edges

        def counting(cg):
            built.append(cg)
            return real(cg)

        monkeypatch.setattr(model, "_predecessors_from_edges", counting)
        return built

    def test_pipeline_sweep_builds_one_index_from_edges(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        report = run_pipeline(PipelineConfig.from_mapping({
            "synthetic": {"count": 1, "params": {"type_count": 120, "seed": 4}},
            "sweep": list(range(100)), "cve_count": 2, "warmup": 0, "repetitions": 1,
        }))
        assert len(report.records) == 100 and not report.errors
        # the base graph's; every pruned graph derives its own from it
        assert len(built) == 1

    def test_prune_sweep_builds_no_index(self, monkeypatch, tmp_path):
        params = GenParams(type_count=120, seed=4)
        h = generate_hierarchy(params)
        cg = generate_call_graph_cha(h, params)
        table = origin_edge_frequencies(cg, find_origins(cg, h))
        built = self.count_builds(monkeypatch)
        graphs = [cg]
        for n in range(100):
            pruned = prune_exhaustive(cg, build_exclusion_list(table, n), h).pruned_graph
            assert pruned.node_types is cg.node_types
            graphs.append(pruned)

        # `prune --out` loads, prunes and saves: it needs no index either
        h_path, cg_path = str(tmp_path / "h.jsonl"), str(tmp_path / "cg.jsonl")
        save_hierarchy(h, h_path)
        save_call_graph(cg, cg_path)
        for name in ("load_call_graph", "save_call_graph"):
            def recording(*args, _real=getattr(cli, name), **kwargs):
                result = _real(*args, **kwargs)
                graphs.append(args[0] if result is None else result)
                return result
            monkeypatch.setattr(cli, name, recording)
        out = str(tmp_path / "pruned.jsonl")
        assert cli.main(["prune", h_path, cg_path, "--top-n", "10", "--out", out]) == 0
        assert len(graphs) == 103

        assert built == []
        for g in graphs:
            assert "predecessors" not in vars(g)


class TestValidateCallGraph:
    def test_f1_is_clean(self, f1):
        assert validate_call_graph(f1.cg, f1.h) == []

    def test_unknown_type_is_named(self, f1):
        cg = build_call_graph([m("T9", "ghost")], [])
        violations = validate_call_graph(cg, f1.h)
        assert [(v.rule, v.type_id) for v in violations] == [("unknown-type", "T9")]

    def test_undeclared_signature(self, f1):
        cg = build_call_graph([m("T5", "run")], [])
        violations = validate_call_graph(cg, f1.h)
        assert [v.rule for v in violations] == ["undeclared-signature"]

    def test_unknown_receiver(self, f1):
        cg = build_call_graph(
            [], [CallEdge(m("T4", "run"), m("T2", "next"), "T9")]
        )
        assert "unknown-receiver" in [v.rule for v in validate_call_graph(cg, f1.h)]

    def test_node_violations_in_node_order_then_edges(self, f1):
        bad = [m("T9", "ghost"), m("T5", "run"), m("A0", "x"), m("T2", "fmt"), m("T5", "a")]
        good = [m("T2", "next"), m("T4", "run")]
        cg = build_call_graph(bad + good, [CallEdge(m("T4", "run"), m("T2", "next"), "Q")])
        violations = validate_call_graph(cg, f1.h)
        # the dataclass order of the nodes is the reference
        assert [(v.type_id, v.message.split()[-1]) for v in violations[:-1]] == [
            (n.defining_type, n.signature.to_text() if n.defining_type in f1.h else "type")
            for n in sorted(bad)
        ]
        assert (violations[-1].rule, violations[-1].type_id) == ("unknown-receiver", "Q")


class TestHierarchyLookup:
    def test_node_raises_with_id(self):
        h = make_f1_hierarchy()
        with pytest.raises(UnknownTypeError) as exc:
            h.node("T9")
        assert exc.value.type_id == "T9"

    def test_contains(self):
        h = make_f1_hierarchy()
        assert "T3" in h
        assert "T9" not in h

    def test_application_types_are_memoised_per_project(self):
        h = make_f1_hierarchy()
        assert h.application_types("app") == {"T2", "T4", "T5"}
        assert h.application_types("app") is h.application_types("app")
        assert h.application_types("lib") == {"T3"}
        assert h.application_types("jre") == frozenset()  # core types never are
