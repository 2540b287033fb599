"""CVE injection and reachability over call graph components, base versus pruned."""

import random
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from conftest import m
from reference import (
    FixedTableOracle, is_application, is_dependency, predecessor_lists, reverse_bfs,
)

from cgprune import (
    CallEdge,
    ExclusionList,
    GenParams,
    GraphError,
    MethodNode,
    MethodSignature,
    NoEligibleNodesError,
    OriginRef,
    ProjectRoleMap,
    PruneDecision,
    RecordFormatError,
    ReachabilityResult,
    TypeHierarchy,
    TypeNode,
    UnknownTypeError,
    VulnerabilityAssignment,
    build_call_graph,
    compare,
    generate_call_graph_cha,
    generate_hierarchy,
    inject_artificial_cves,
    load_assignment,
    propagate,
    prune_exhaustive,
    prune_selective,
    save_assignment,
)
from test_pruning import excl_of

ROLES = ProjectRoleMap(application_project_id="app")


class TestRoles:
    def test_application_nodes(self, f1):
        apps = {n for n in f1.cg.nodes if is_application(ROLES, f1.h, n)}
        assert apps == {
            m("T2", "next"), m("T2", "helper"),
            m("T4", "run"), m("T4", "use"), m("T5", "fmt"),
        }

    def test_dependency_excludes_core_by_default(self, f1):
        deps = {n for n in f1.cg.nodes if is_dependency(ROLES, f1.h, n)}
        assert deps == {m("T3", "next")}

    def test_dependency_with_core_included(self, f1):
        deps = {
            n for n in f1.cg.nodes
            if is_dependency(ROLES, f1.h, n, include_core=True)
        }
        assert m("T0", "hashCode") in deps
        assert m("T3", "next") in deps
        assert m("T4", "run") not in deps


class TestInjectArtificialCves:
    def test_f1_single_eligible_node(self, f1):
        for seed in (0, 1, 99):
            a = inject_artificial_cves(f1.cg, f1.h, ROLES, 1, seed)
            assert a.vulnerable == {m("T3", "next")}

    def test_saturation_when_k_exceeds_pool(self, f1):
        a = inject_artificial_cves(f1.cg, f1.h, ROLES, 100, 0)
        assert a.vulnerable == {m("T3", "next")}
        assert a.requested == 100

    def test_seed_determinism(self, f1):
        one = inject_artificial_cves(f1.cg, f1.h, ROLES, 1, 42, include_core=True)
        two = inject_artificial_cves(f1.cg, f1.h, ROLES, 1, 42, include_core=True)
        assert one == two

    def test_no_eligible_nodes_raises(self, f1):
        # all nodes application or core when app project is "lib"? lib has one
        # node; flip roles so dependencies are empty instead
        cg = build_call_graph([m("T4", "run"), m("T2", "next")], [])
        with pytest.raises(NoEligibleNodesError):
            inject_artificial_cves(cg, f1.h, ROLES, 1, 0)

    def test_non_positive_count_rejected(self, f1):
        with pytest.raises(ValueError):
            inject_artificial_cves(f1.cg, f1.h, ROLES, 0, 0)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        graph_seed=st.integers(0, 10_000), types=st.integers(5, 60),
        project=st.integers(0, 3), count=st.integers(1, 120),
        seed=st.integers(-2**40, 2**40), include_core=st.booleans(),
    )
    def test_equals_a_per_node_reference_on_generated_graphs(
        self, graph_seed, types, project, count, seed, include_core
    ):
        # eligibility is decided once per defining type; the reference asks
        # is_dependency about each node, sorts, then samples
        params = GenParams(type_count=types, seed=graph_seed)
        h = generate_hierarchy(params)
        cg = generate_call_graph_cha(h, params)
        roles = ProjectRoleMap(application_project_id=f"p{project}")
        eligible = sorted(
            n for n in cg.nodes if is_dependency(roles, h, n, include_core=include_core)
        )
        if not eligible:
            with pytest.raises(NoEligibleNodesError):
                inject_artificial_cves(cg, h, roles, count, seed, include_core)
            return
        expected = random.Random(seed).sample(eligible, min(count, len(eligible)))
        assert inject_artificial_cves(cg, h, roles, count, seed, include_core) == (
            VulnerabilityAssignment(frozenset(expected), seed=seed, requested=count)
        )

    def test_sample_is_without_replacement(self, f1):
        a = inject_artificial_cves(f1.cg, f1.h, ROLES, 5, 7, include_core=True)
        eligible = {
            n for n in f1.cg.nodes
            if is_dependency(ROLES, f1.h, n, include_core=True)
        }
        assert len(a.vulnerable) == min(5, len(eligible))
        assert a.vulnerable <= eligible


def f1_assignment() -> VulnerabilityAssignment:
    return VulnerabilityAssignment(
        vulnerable=frozenset({m("T3", "next")}), seed=0, requested=1
    )


class TestPropagate:
    def test_f1_base_reachability(self, f1):
        result = propagate(f1.cg, f1_assignment(), ROLES, f1.h)
        assert result.reachable_pairs == 2
        assert result.reachable_vuln_fraction == 1.0
        assert result.reached_vulnerable == {m("T3", "next")}

    def test_f1_pruned_reachability(self, f1):
        pruned = prune_exhaustive(f1.cg, excl_of(("next", "T1")), f1.h).pruned_graph
        result = propagate(pruned, f1_assignment(), ROLES, f1.h)
        assert result.reachable_pairs == 0
        assert result.reachable_vuln_fraction == 0.0

    def test_isolated_vulnerable_node(self, f1):
        cg = build_call_graph(
            [m("T3", "next")],
            [CallEdge(m("T4", "use"), m("T4", "run"), "T4")],
        )
        result = propagate(cg, f1_assignment(), ROLES, f1.h)
        assert result.reachable_pairs == 0
        assert result.reachable_vuln_fraction == 0.0

    def test_empty_assignment_reaches_nothing(self, f1):
        empty = VulnerabilityAssignment(frozenset(), seed=0, requested=0)
        result = propagate(f1.cg, empty, ROLES, f1.h, collect_witnesses=True)
        assert (result.reachable_pairs, result.reachable_vuln_fraction) == (0, 0.0)
        assert result.reached_vulnerable == set()
        assert result.witnesses == {}

    def test_witness_paths_walk_real_edges(self, f1):
        result = propagate(
            f1.cg, f1_assignment(), ROLES, f1.h, collect_witnesses=True
        )
        edge_pairs = {(e.source, e.target) for e in f1.cg.edges}
        assert set(result.witnesses) == {
            (m("T4", "run"), m("T3", "next")),
            (m("T4", "use"), m("T3", "next")),
        }
        for (app, vuln), path in result.witnesses.items():
            assert path[0] == app
            assert path[-1] == vuln
            assert len(path) >= 2
            for a, b in zip(path, path[1:]):
                assert (a, b) in edge_pairs

    def test_witness_takes_the_first_caller_in_edge_order(self, f1):
        # use reaches next through run and through fmt, two shortest paths;
        # the edge from run into next comes first in edge order, so the
        # search from next meets run first and the witness goes through it
        use, run, fmt, vuln = m("T4", "use"), m("T4", "run"), m("T5", "fmt"), m("T3", "next")
        cg = build_call_graph([], [
            CallEdge(fmt, vuln, "T3"), CallEdge(use, fmt, "T5"),
            CallEdge(run, vuln, "T3"), CallEdge(use, run, "T4"),
        ])
        assert [e.source for e in cg.edges if e.target == vuln] == [run, fmt]
        result = propagate(cg, f1_assignment(), ROLES, f1.h, collect_witnesses=True)
        assert list(result.witnesses.items()) == [
            ((run, vuln), (run, vuln)),
            ((use, vuln), (use, run, vuln)),
            ((fmt, vuln), (fmt, vuln)),
        ]

    def test_witnesses_none_unless_requested(self, f1):
        assert propagate(f1.cg, f1_assignment(), ROLES, f1.h).witnesses is None

    def test_missing_assignment_node_rejected(self, f1):
        cg = build_call_graph([m("T4", "run")], [])
        with pytest.raises(ValueError, match="absent from the graph"):
            propagate(cg, f1_assignment(), ROLES, f1.h)

    def test_elapsed_positive_and_counts_stable(self, f1):
        one = propagate(f1.cg, f1_assignment(), ROLES, f1.h, warmup=1, repetitions=3)
        two = propagate(f1.cg, f1_assignment(), ROLES, f1.h)
        assert one.elapsed > 0
        assert (one.reachable_pairs, one.reachable_vuln_fraction) == (
            two.reachable_pairs, two.reachable_vuln_fraction
        )

    def test_vulnerable_application_node_never_pairs_with_itself(self, f1, tmp_path):
        # run -> use -> run is a cycle and run also calls itself, so a BFS
        # from run visits run; the pair (run, run) must still not count
        run, use, helper = m("T4", "run"), m("T4", "use"), m("T2", "helper")
        cg = build_call_graph([], [
            CallEdge(run, use, "T4"),
            CallEdge(use, run, "T4"),
            CallEdge(run, run, "T4"),
            CallEdge(helper, run, "T4"),
        ])
        path = tmp_path / "vuln.txt"
        save_assignment(
            VulnerabilityAssignment(frozenset({run}), seed=0, requested=1), str(path)
        )
        assignment = load_assignment(str(path))
        assert assignment.vulnerable == {run}
        assert is_application(ROLES, f1.h, run)
        result = propagate(cg, assignment, ROLES, f1.h, collect_witnesses=True)
        assert result.reachable_pairs == 2
        assert result.reached_vulnerable == {run}
        assert result.witnesses == {
            (use, run): (use, run),
            (helper, run): (helper, run),
        }

    def test_node_of_unknown_type_rejected(self, f1):
        cg = build_call_graph([m("T3", "next"), m("T9", "next")], [])
        with pytest.raises(UnknownTypeError, match="T9"):
            propagate(cg, f1_assignment(), ROLES, f1.h)

    def test_parameter_validation(self, f1):
        with pytest.raises(ValueError):
            propagate(f1.cg, f1_assignment(), ROLES, f1.h, repetitions=0)
        with pytest.raises(ValueError):
            propagate(f1.cg, f1_assignment(), ROLES, f1.h, warmup=-1)


class TestCompare:
    def test_f1_deltas(self, f1):
        base = propagate(f1.cg, f1_assignment(), ROLES, f1.h)
        pruned_cg = prune_exhaustive(f1.cg, excl_of(("next", "T1")), f1.h).pruned_graph
        pruned = propagate(pruned_cg, f1_assignment(), ROLES, f1.h)
        delta = compare(base, pruned)
        assert delta.pair_delta == -2
        assert delta.fraction_delta == -1.0

    def test_identical_results_zero_deltas(self, f1):
        base = propagate(f1.cg, f1_assignment(), ROLES, f1.h)
        delta = compare(base, base)
        assert delta.pair_delta == 0
        assert delta.fraction_delta == 0.0
        assert delta.elapsed_delta == 0.0
        assert delta.speedup == 1.0

    def _result(self, elapsed: float) -> ReachabilityResult:
        return ReachabilityResult(
            reachable_pairs=1,
            reachable_vuln_fraction=1.0,
            elapsed=elapsed,
            vulnerable=frozenset({m("T3", "next")}),
            reached_vulnerable=frozenset({m("T3", "next")}),
        )

    def test_speedup_ratio(self):
        assert compare(self._result(1.0), self._result(0.5)).speedup == 2.0

    def test_speedup_edge_cases(self):
        assert compare(self._result(1.0), self._result(0.0)).speedup == float("inf")
        assert compare(self._result(0.0), self._result(0.0)).speedup == 1.0

    def test_mismatched_vulnerable_sets_rejected(self, f1):
        base = propagate(f1.cg, f1_assignment(), ROLES, f1.h)
        other = VulnerabilityAssignment(
            vulnerable=frozenset({m("T3", "next"), m("T0", "hashCode")}),
            seed=1,
            requested=2,
        )
        pruned = propagate(f1.cg, other, ROLES, f1.h)
        with pytest.raises(ValueError, match="different vulnerable sets"):
            compare(base, pruned)


class TestAssignmentFile:
    def test_round_trip(self, f1, tmp_path):
        a = inject_artificial_cves(f1.cg, f1.h, ROLES, 1, seed=11)
        path = tmp_path / "vuln.txt"
        save_assignment(a, str(path))
        assert load_assignment(str(path)) == a

    def test_file_carries_seed_header(self, tmp_path):
        path = tmp_path / "vuln.txt"
        save_assignment(f1_assignment(), str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed: 0"
        assert lines[1] == "# requested: 1"
        assert lines[2] == "T3::next():void"

    def test_malformed_node_line_positioned(self, tmp_path):
        path = tmp_path / "vuln.txt"
        path.write_text("not-a-node-id\n")
        with pytest.raises(ValueError, match="vuln.txt:1"):
            load_assignment(str(path))

    def test_non_integer_seed_header_positioned(self, tmp_path):
        path = tmp_path / "vuln.txt"
        path.write_text("# seed: eleven\nT3::next():void\n")
        with pytest.raises(ValueError, match="vuln.txt:1: header 'seed: eleven'"):
            load_assignment(str(path))

    def test_negative_requested_header_positioned(self, tmp_path):
        path = tmp_path / "vuln.txt"
        path.write_text("# seed: 3\n# requested: -3\nT3::next():void\n")
        with pytest.raises(RecordFormatError) as info:
            load_assignment(str(path))
        assert str(info.value) == f"{path}:2: header 'requested' must be non-negative, got -3"

    def test_negative_seed_header_loads(self, tmp_path):
        # a seed is any integer; only the counts have a least value
        path = tmp_path / "vuln.txt"
        path.write_text("# seed: -3\n# requested: 0\nT3::next():void\n")
        loaded = load_assignment(str(path))
        assert (loaded.seed, loaded.requested) == (-3, 1)

    @pytest.mark.parametrize("text", ["", "# seed: 3\n# requested: 2\n\n"])
    def test_file_naming_no_method_is_an_error(self, tmp_path, text):
        # an empty in-memory assignment stays valid (see TestPropagate);
        # an empty file is a mistake that would analyse nothing
        path = tmp_path / "vuln.txt"
        path.write_text(text)
        with pytest.raises(GraphError) as info:
            load_assignment(str(path))
        assert str(info.value) == f"{path}: assignment names no method"

    def test_non_integer_requested_header_positioned(self, tmp_path):
        path = tmp_path / "vuln.txt"
        path.write_text("# seed: 3\n# requested: 2.5\nT3::next():void\n")
        with pytest.raises(ValueError, match="vuln.txt:2: header 'requested: 2.5'"):
            load_assignment(str(path))


# Differential test of the component walk against one reverse BFS per
# vulnerable node.  Types: two application, two library, one core; any node,
# application nodes included, may be vulnerable.
DIFF_H = TypeHierarchy({
    tid: TypeNode(tid, f"x.{tid}", (), frozenset(), project, is_core_lib=core)
    for tid, project, core in [
        ("A0", "app", False), ("A1", "app", False),
        ("L0", "lib", False), ("L1", "lib", False), ("C0", "core", True),
    ]
})


@st.composite
def graphs_with_vulnerable_sets(draw, linked_counts=st.integers(2, 12), min_vulnerable=1):
    type_ids = st.sampled_from(sorted(DIFF_H.types))
    linked = draw(linked_counts)
    # the last two nodes get no edges
    types = draw(st.lists(type_ids, min_size=linked + 2, max_size=linked + 2))
    nodes = [MethodNode(t, MethodSignature(f"m{i}")) for i, t in enumerate(types)]
    endpoint = st.integers(0, linked - 1)
    # equal (source, target) pairs with other receivers are parallel edges;
    # source == target gives self-loops, and cycles arise freely
    edges = draw(st.lists(
        st.tuples(endpoint, endpoint, st.sampled_from(["A0", "L0"])),
        min_size=linked, max_size=3 * linked,
    ))
    vulnerable = draw(st.sets(st.integers(0, len(nodes) - 1), min_size=min_vulnerable))
    # one vulnerable node calling another: the pass meets a caller that
    # already owns a bit
    linked_vulnerable = sorted(v for v in vulnerable if v < linked)
    if len(linked_vulnerable) >= 2 and draw(st.booleans()):
        caller, callee = draw(st.permutations(linked_vulnerable))[:2]
        edges.append((caller, callee, "L0"))
    cg = build_call_graph(nodes, [CallEdge(nodes[s], nodes[t], r) for s, t, r in edges])
    return cg, frozenset(nodes[i] for i in vulnerable)


@st.composite
def many_vulnerable_with_application_cycles(draw):
    """At least 64 vulnerable nodes, so the masks span several int digits,
    plus a drawn cycle through some vulnerable application nodes."""
    cg, vulnerable = draw(graphs_with_vulnerable_sets(st.integers(70, 90), min_vulnerable=64))
    apps = sorted(n for n in vulnerable if is_application(ROLES, DIFF_H, n))
    cycle = draw(st.permutations(apps))[:draw(st.integers(0, min(6, len(apps))))]
    edges = [CallEdge(s, t, "A0") for s, t in zip(cycle, cycle[1:] + cycle[:1])]
    return build_call_graph(cg.nodes, [*cg.edges, *edges]), vulnerable


@st.composite
def pruned_graphs_with_vulnerable_sets(draw, cases=graphs_with_vulnerable_sets()):
    """A drawn graph pruned selectively: some signatures list drawn origin
    types (DIFF_H is flat, so each cone is its type alone), and the oracle
    condemns a drawn subset of the candidates, so some targets lose only
    part of their edges."""
    cg, vulnerable = draw(cases)
    type_ids = st.sampled_from(sorted(DIFF_H.types))
    origins = set()
    for s in sorted({n.signature for n in cg.nodes}):
        if draw(st.booleans()):
            origins.update(OriginRef(t, s) for t in draw(st.frozensets(type_ids, min_size=1)))
    condemned = draw(st.frozensets(st.sampled_from(cg.edges)))
    pruned = prune_selective(
        cg, ExclusionList(frozenset(origins), len(origins)), DIFF_H,
        FixedTableOracle({e: PruneDecision(True, 1.0) for e in condemned}), 0.5,
    ).pruned_graph
    return pruned, vulnerable


def per_vulnerable_bfs(cg, vulnerable):
    """Reference: one reverse BFS per vulnerable node (`reference.reverse_bfs`),
    over predecessor lists the tests build from the edges, not the model's."""
    preds = predecessor_lists(cg)
    apps = {n for n in cg.nodes if is_application(ROLES, DIFF_H, n)}
    witnesses = {}
    for vuln in sorted(vulnerable):
        visited, next_hop = reverse_bfs(preds, vuln)
        for app in (apps & visited) - {vuln}:
            path = [app]
            while path[-1] != vuln:
                path.append(next_hop[path[-1]])
            witnesses[(app, vuln)] = tuple(path)
    return witnesses


# Every phase but shrinking: an example of the many-vulnerable strategy holds
# up to ~90 nodes, ~270 edges and 64+ vulnerable nodes, and shrinking a
# failing one runs for minutes before the test reports.
UNSHRUNK = [phase for phase in Phase if phase is not Phase.shrink]


class TestBitParallelPassMatchesPerVulnerableBfs:
    @settings(
        max_examples=300, derandomize=True, database=None, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(graphs_with_vulnerable_sets())
    def test_same_pairs_fraction_reached_set_and_witnesses(self, case):
        self.check(*case)

    @settings(
        max_examples=200, derandomize=True, database=None, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(pruned_graphs_with_vulnerable_sets())
    def test_same_on_pruned_graphs(self, case):
        # the pass reads the index the pruned graph derives from its parent's
        self.check(*case)

    @settings(
        max_examples=40, derandomize=True, database=None, deadline=None,
        suppress_health_check=[HealthCheck.too_slow], phases=UNSHRUNK,
    )
    @given(many_vulnerable_with_application_cycles(), st.booleans())
    def test_same_with_masks_of_several_digits(self, case, through_file):
        self.check(*case, through_file=through_file)

    @settings(
        max_examples=40, derandomize=True, database=None, deadline=None,
        suppress_health_check=[HealthCheck.too_slow], phases=UNSHRUNK,
    )
    @given(
        pruned_graphs_with_vulnerable_sets(many_vulnerable_with_application_cycles()),
        st.booleans(),
    )
    def test_same_with_masks_of_several_digits_on_pruned_graphs(self, case, through_file):
        self.check(*case, through_file=through_file)

    @staticmethod
    def check(cg, vulnerable, through_file=False):
        expected = per_vulnerable_bfs(cg, vulnerable)
        reached = {vuln for _, vuln in expected}
        assignment = VulnerabilityAssignment(vulnerable, seed=0, requested=len(vulnerable))
        if through_file:
            # a loaded assignment may name application nodes
            with tempfile.TemporaryDirectory() as tmp:
                path = str(Path(tmp) / "vuln.txt")
                save_assignment(assignment, path)
                assignment = load_assignment(path, cg)
            assert assignment.vulnerable == vulnerable
        result = propagate(
            cg, assignment, ROLES, DIFF_H, warmup=1, repetitions=2, collect_witnesses=True,
        )
        assert result.reachable_pairs == len(expected)
        assert result.reached_vulnerable == reached
        assert result.reachable_vuln_fraction == len(reached) / len(vulnerable)
        assert result.witnesses == expected


def diff_nodes(*type_ids):
    return [MethodNode(t, MethodSignature(f"m{i}")) for i, t in enumerate(type_ids)]


class TestCondensation:
    """The pass walks strongly connected components; these pin the cases a
    component-level mask could get wrong, against the per-vulnerable BFS."""

    def check(self, cg, vulnerable):
        expected = per_vulnerable_bfs(cg, vulnerable)
        result = propagate(
            cg, VulnerabilityAssignment(vulnerable, seed=0, requested=len(vulnerable)),
            ROLES, DIFF_H, collect_witnesses=True,
        )
        assert result.witnesses == expected
        assert result.reachable_pairs == len(expected)
        return result

    def test_chain_of_nontrivial_components(self):
        # {a0, a1} -> {l0, l1} -> {l2, l3, l4}, plus a0 -> l2 skipping the
        # middle component, so the last one finishes on two paths
        a0, a1, l0, l1, l2, l3, l4 = diff_nodes("A0", "A1", "L0", "L1", "L0", "L1", "L0")
        cg = build_call_graph([], [
            CallEdge(s, t, "L0") for s, t in [
                (a0, a1), (a1, a0), (a1, l0),
                (l0, l1), (l1, l0), (l1, l2),
                (l2, l3), (l3, l4), (l4, l2), (a0, l2),
            ]
        ])
        result = self.check(cg, frozenset({l0, l4}))
        assert result.reachable_pairs == 4
        assert result.reached_vulnerable == {l0, l4}

    def test_vulnerable_application_node_inside_a_component(self):
        # a0 -> l0 -> a1 -> a0 is one component holding the vulnerable
        # application node a0; a0 reaches itself around the cycle but never
        # pairs with itself, while a1 and the outside caller a2 pair with it
        a0, l0, a1, a2 = diff_nodes("A0", "L0", "A1", "A0")
        cg = build_call_graph([], [
            CallEdge(s, t, "A0") for s, t in [(a0, l0), (l0, a1), (a1, a0), (a2, a1)]
        ])
        result = self.check(cg, frozenset({a0, l0}))
        assert result.reachable_pairs == 5
        assert (a0, a0) not in result.witnesses

    def test_one_cycle_deeper_than_the_recursion_limit(self):
        # a recursive walk would need one frame per node
        size = 5_000
        assert size > sys.getrecursionlimit()
        nodes = diff_nodes(*["A0" if i % 2 == 0 else "L0" for i in range(size)])
        cg = build_call_graph([], [
            CallEdge(nodes[i], nodes[(i + 1) % size], "L0") for i in range(size)
        ])
        vulnerable = frozenset({nodes[1], nodes[3]})
        result = propagate(
            cg, VulnerabilityAssignment(vulnerable, seed=0, requested=2), ROLES, DIFF_H
        )
        assert result.reachable_pairs == size
        assert result.reached_vulnerable == vulnerable
