"""Vulnerability reachability: who in the application can reach a flawed method.

Vulnerable methods are planted in dependency code (uniformly at random with a
fixed seed), then one Tarjan walk over strongly connected components finds
which vulnerable methods each application method reaches.  The headline
numbers are the count of (application method, vulnerable method) pairs and
the fraction of vulnerable methods reached by at least one application
method; comparing the numbers before and after pruning shows how much
reachability the pruning destroyed.  A breadth-first search from one
vulnerable method at a time rebuilds witness call paths when they are asked
for, and serves the tests as the reference for the pass.

Sampling uses Python's Mersenne Twister (`random.Random`), so assignments are
reproducible for a given seed on any platform.  The assignment file, not the
generator, is the portability contract: persist it once and both graph
variants, or other tools, replay the exact same vulnerable set.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Mapping, Sequence

from .io import read_text_records, write_text_records
from .model import (
    CallGraph,
    GraphError,
    MethodNode,
    TypeHierarchy,
    UnknownTypeError,
    component_masks,
    reverse_adjacency,
)


class NoEligibleNodesError(GraphError):
    """The graph has no node matching the requested vulnerability role."""


@dataclass(frozen=True)
class ProjectRoleMap:
    """Splits a graph's methods into application code and dependencies.

    Application nodes are those whose type is in
    `TypeHierarchy.application_types` of the named project; dependency nodes
    are everything else, with core-library nodes excluded unless asked for.
    """

    application_project_id: str


@dataclass(frozen=True)
class VulnerabilityAssignment:
    """A reproducible set of methods declared vulnerable.

    `requested` keeps the asked-for count even when fewer nodes were
    eligible, so reports can show both numbers.
    """

    vulnerable: frozenset[MethodNode]
    seed: int
    requested: int


def inject_artificial_cves(
    cg: CallGraph,
    h: TypeHierarchy,
    roles: ProjectRoleMap,
    count: int,
    seed: int,
    include_core: bool = False,
) -> VulnerabilityAssignment:
    """Sample `count` dependency methods (without replacement) as vulnerable.

    Eligibility is decided once per defining type: a type is eligible when
    it is not in the project's `TypeHierarchy.application_types`, and is not
    core unless `include_core` is set.  Eligible nodes are ordered
    canonically before sampling, so equal graphs and seeds give equal
    assignments no matter how the graph was assembled.  Asking for more
    than exist yields all of them rather than failing.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    app_types = h.application_types(roles.application_project_id)
    # an unknown type is not in `app_types`, so `h.node` raises for it
    eligible_types = {
        t for t in cg.node_types
        if t not in app_types and (not h.node(t).is_core_lib or include_core)
    }
    eligible = sorted(n for n in cg.nodes if n.defining_type in eligible_types)
    if not eligible:
        raise NoEligibleNodesError(
            f"no dependency nodes outside project "
            f"{roles.application_project_id!r} to mark vulnerable"
        )
    rng = random.Random(seed)
    chosen = rng.sample(eligible, min(count, len(eligible)))
    return VulnerabilityAssignment(
        vulnerable=frozenset(chosen), seed=seed, requested=count
    )


@dataclass(frozen=True)
class ReachabilityResult:
    """Reachability of one graph's vulnerable methods from application code.

    `witnesses` (when collected) maps each reachable (application node,
    vulnerable node) pair to one concrete call path between them.
    """

    reachable_pairs: int
    reachable_vuln_fraction: float
    elapsed: float
    vulnerable: frozenset[MethodNode]
    reached_vulnerable: frozenset[MethodNode]
    witnesses: Mapping[tuple[MethodNode, MethodNode], tuple[MethodNode, ...]] | None = None


def _reach_one(
    preds: Mapping[MethodNode, Sequence[MethodNode]],
    vuln: MethodNode,
) -> tuple[set[MethodNode], dict[MethodNode, MethodNode]]:
    """Reverse BFS from one vulnerable node.

    Returns every node that reaches it, plus per-node successor links
    pointing one hop towards the vulnerable node (for path reconstruction).
    It builds witness paths, and the tests use it as the reference for the
    component walk.
    """
    next_hop: dict[MethodNode, MethodNode] = {}
    visited = {vuln}
    frontier = [vuln]
    while frontier:
        new_frontier = []
        for node in frontier:
            for caller in preds.get(node, ()):
                if caller not in visited:
                    visited.add(caller)
                    next_hop[caller] = node
                    new_frontier.append(caller)
        frontier = new_frontier
    return visited, next_hop


def propagate(
    cg: CallGraph,
    assignment: VulnerabilityAssignment,
    roles: ProjectRoleMap,
    h: TypeHierarchy,
    warmup: int = 0,
    repetitions: int = 1,
    collect_witnesses: bool = False,
) -> ReachabilityResult:
    """Measure application-to-vulnerable reachability over `cg`.

    The nodes that reach a vulnerable node, found by walking the graph's
    integer predecessor index (`reverse_adjacency`), get dense local ids and
    callee lists, and each vulnerable node one bit of a Python int, in the
    assignment's own iteration order: every result is a bit count or a set,
    so the order changes none of them.  One pass, a Tarjan walk from the
    application nodes (`model.component_masks`), then gives each the set of
    vulnerable nodes it reaches.  Application nodes are those whose type is
    in the hierarchy's memoised set of the project's types.  The pass
    follows the reverse-reachable part, not the graph's size, and no Python
    loop in it runs once per vulnerable node.  A pair is an application
    node plus a vulnerable node in its set, other than itself: a node never
    pairs with itself, even when it lies on a cycle or calls itself.  The
    pass applies that self-pair rule while it counts, to the application
    nodes that are vulnerable.  That matters for assignments loaded from a
    file, which may name application nodes.

    The local index is built once per call; the pass runs `warmup`
    unmeasured times, then `repetitions` measured times.  `elapsed` is the
    mean time of one measured pass: building the masks, the whole walk and
    the pair counting with its self-pair rule.  Counts are identical across
    runs (the pass is deterministic), so only time is averaged.  Witness
    paths, when asked for, come from one breadth-first search per reached
    vulnerable node.
    """
    if repetitions <= 0:
        raise ValueError(f"repetitions must be positive, got {repetitions}")
    if warmup < 0:
        raise ValueError(f"warmup must be non-negative, got {warmup}")
    missing = sorted(assignment.vulnerable - cg.nodes)
    if missing:
        raise ValueError(
            "assignment references nodes absent from the graph: "
            + ", ".join(n.uid for n in missing)
        )
    if not cg.node_types <= h.types.keys():
        raise UnknownTypeError(min(cg.node_types - h.types.keys()))
    preds = reverse_adjacency(cg)
    sources, graph_nodes = preds.sources, preds.nodes
    # Only nodes that reach a vulnerable node get a local id: the vulnerable
    # ones first, in the assignment's iteration order (node i owns bit i),
    # then each caller as the walk over the graph's int `sources` first
    # meets it.  `order` maps local ids to graph node ids and grows while
    # the loop reads it.
    vulnerable = list(assignment.vulnerable)
    k = len(vulnerable)
    order = list(map(preds.ids.__getitem__, vulnerable))
    local = dict(zip(order, range(k)))
    callees: list[list[int]] = [[] for _ in order]
    for t, g in enumerate(order):
        for s in sources[g]:
            i = local.get(s)
            if i is None:
                i = local[s] = len(order)
                order.append(s)
                callees.append([])
            callees[i].append(t)
    del local  # not needed past here; freeing it lowers the passes' peak memory
    app_types = h.application_types(roles.application_project_id)
    apps = [i for i, g in enumerate(order) if graph_nodes[g].defining_type in app_types]

    def run() -> tuple[int, int]:
        mask = [*map((1).__lshift__, range(k)), *repeat(0, len(order) - k)]
        component_masks(callees, mask, apps)
        pairs = 0
        reached = 0
        for a in apps:
            bits = mask[a]
            if a < k:  # a vulnerable application node: the self-pair rule
                bits ^= 1 << a
            pairs += bits.bit_count()
            reached |= bits
        return pairs, reached

    for _ in range(warmup):
        run()
    times = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        pairs, reached_bits = run()
        times.append(time.perf_counter() - t0)
    elapsed = sum(times) / len(times)
    # bit i stands for vulnerable[i]; bin() writes the highest bit first
    reached = list(compress(vulnerable, map(int, bin(reached_bits)[:1:-1])))

    witnesses = None
    if collect_witnesses:
        witnesses = {}
        app_nodes = {graph_nodes[order[a]] for a in apps}
        for vuln in sorted(reached):
            _, next_hop = _reach_one(preds, vuln)
            for app in sorted(app_nodes & next_hop.keys()):
                path = [app]
                while path[-1] != vuln:
                    path.append(next_hop[path[-1]])
                witnesses[(app, vuln)] = tuple(path)
    fraction = len(reached) / k if k else 0.0
    return ReachabilityResult(
        reachable_pairs=pairs,
        reachable_vuln_fraction=fraction,
        elapsed=elapsed,
        vulnerable=assignment.vulnerable,
        reached_vulnerable=frozenset(reached),
        witnesses=witnesses,
    )


@dataclass(frozen=True)
class DeltaReport:
    """Reachability change from a base graph to its pruned variant.

    Deltas are pruned minus base, so destroyed reachability shows up
    negative.  speedup is base elapsed over pruned elapsed: inf when pruning
    drove the time to zero, 1.0 when both rounds were too fast to measure.
    """

    pair_delta: int
    fraction_delta: float
    elapsed_delta: float
    speedup: float


def compare(base: ReachabilityResult, pruned: ReachabilityResult) -> DeltaReport:
    """Diff two propagation results over the same vulnerable set."""
    if base.vulnerable != pruned.vulnerable:
        raise ValueError("results cover different vulnerable sets; cannot compare")
    if pruned.elapsed > 0.0:
        speedup = base.elapsed / pruned.elapsed
    elif base.elapsed > 0.0:
        speedup = float("inf")
    else:
        speedup = 1.0
    return DeltaReport(
        pair_delta=pruned.reachable_pairs - base.reachable_pairs,
        fraction_delta=pruned.reachable_vuln_fraction - base.reachable_vuln_fraction,
        elapsed_delta=pruned.elapsed - base.elapsed,
        speedup=speedup,
    )


def save_assignment(assignment: VulnerabilityAssignment, path: str) -> None:
    """Persist an assignment as one method uid per line plus seed headers."""
    headers = {"seed": assignment.seed, "requested": assignment.requested}
    uids = (n.uid for n in sorted(assignment.vulnerable))
    write_text_records(path, headers, uids)


def load_assignment(path: str, cg: CallGraph | None = None) -> VulnerabilityAssignment:
    """Read an assignment file back; headers are optional and default to 0.
    With `cg`, a line naming a method absent from it is a RecordFormatError.
    A file that names no method is a GraphError: nothing would be analysed."""
    def parse(line: str) -> MethodNode:
        node = MethodNode.from_uid(line)
        if cg is not None and node not in cg.nodes:
            raise ValueError(f"method {line!r} is not in the call graph")
        return node

    headers, nodes = read_text_records(path, {"seed": None, "requested": 0}, parse)
    if not nodes:
        raise GraphError(f"{path}: assignment names no method")
    vulnerable = frozenset(nodes)
    return VulnerabilityAssignment(
        vulnerable=vulnerable,
        seed=headers.get("seed", 0),
        requested=headers.get("requested") or len(vulnerable),
    )
