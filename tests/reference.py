"""Reference implementations: the slow, plain oracles the tests compare
each fast path with.

None of them is called by a command, a pipeline stage, a demo or the
benchmark, so they live here rather than in the package, where a fast path
could reach them.  They share with the code they check only its value
types, containers and errors (`tests/test_imports.py` holds them to that):
no memo, cone, index or walk of the package.  Every hierarchy question is
answered by this module's own ancestor walk, `_reflexive_ancestor_depths`,
so an oracle cannot inherit a traversal bug from the code under test.
"""

from __future__ import annotations

from typing import Mapping

from cgprune import (
    CallEdge,
    CallGraph,
    ExclusionList,
    LocalnessOptions,
    MethodNode,
    MethodSignature,
    OriginMap,
    OriginRef,
    ProjectRoleMap,
    PruneDecision,
    TypeHierarchy,
)


def _reflexive_ancestor_depths(h: TypeHierarchy, type_id: str) -> dict[str, int]:
    """Minimal parent-edge distance to each reflexive ancestor (self = 0),
    one frontier at a time; a parent that names no type is skipped.  An
    unknown `type_id` raises UnknownTypeError."""
    depths = {type_id: 0}
    frontier = [type_id]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for tid in frontier:
            for parent in h.node(tid).parents:
                if parent not in depths and parent in h.types:
                    depths[parent] = d
                    nxt.append(parent)
        frontier = nxt
    return depths


def is_reflexive_descendant(h: TypeHierarchy, ancestor: str, type_id: str) -> bool:
    """True iff `type_id` is `ancestor` itself or transitively extends it;
    either id unknown raises UnknownTypeError."""
    h.node(ancestor)
    return ancestor in _reflexive_ancestor_depths(h, type_id)


def brute_force_origins(cg: CallGraph, h: TypeHierarchy) -> OriginMap:
    """Reference origin analysis by exhaustive enumeration.

    For each distinct edge target: list every reflexive ancestor declaring
    the signature, discard those with a declaring strict ancestor, then pick
    the (depth, type id) minimum.  Quadratic and proud of it.
    """
    entries: dict[MethodNode, OriginRef] = {}
    ambiguous: dict[MethodNode, tuple[OriginRef, ...]] = {}
    for node in sorted({e.target for e in cg.edges}):
        sig = node.signature
        depths = _reflexive_ancestor_depths(h, node.defining_type)
        declarers = [tid for tid in depths if h.node(tid).declares(sig)]
        minimal = []
        for tid in declarers:
            above = _reflexive_ancestor_depths(h, tid)
            if not any(
                h.node(a).declares(sig) for a in above if a != tid
            ):
                minimal.append(tid)
        if not minimal:
            minimal = [node.defining_type]
        minimal.sort(key=lambda tid: (depths[tid], tid))
        entries[node] = OriginRef(minimal[0], sig)
        if len(minimal) > 1:
            ambiguous[node] = tuple(OriginRef(tid, sig) for tid in minimal)
    return OriginMap(entries=entries, ambiguous=ambiguous)


def not_excluded(
    excl: ExclusionList,
    target_sig: MethodSignature,
    target_type: str,
    h: TypeHierarchy,
) -> bool:
    """True when an edge with this target survives the exclusion list.

    Signature match alone is not enough: the target's type must also descend
    from the type of a listed origin with that signature.
    """
    return not any(
        is_reflexive_descendant(h, origin.origin_type, target_type)
        for origin in excl.origins
        if origin.signature == target_sig
    )


class FixedTableOracle:
    """Replays decisions from a prepared edge table; unknown edges are kept."""

    def __init__(self, table: Mapping[CallEdge, PruneDecision]) -> None:
        self.table = dict(table)

    def decide(self, edge: CallEdge) -> PruneDecision:
        return self.table.get(edge, PruneDecision(prune=False, confidence=1.0))


def is_application(roles: ProjectRoleMap, h: TypeHierarchy, node: MethodNode) -> bool:
    """One node's type is in the application project and not core; the
    reference for `TypeHierarchy.application_types`."""
    t = h.node(node.defining_type)
    return t.project_id == roles.application_project_id and not t.is_core_lib


def is_dependency(
    roles: ProjectRoleMap, h: TypeHierarchy, node: MethodNode, include_core: bool = False
) -> bool:
    """One node is not application code, and not core unless `include_core`;
    the reference for what `inject_artificial_cves` may sample."""
    if is_application(roles, h, node):
        return False
    return include_core or not h.node(node.defining_type).is_core_lib


def _in_one_hierarchy(h: TypeHierarchy, type_a: str, type_b: str, extended: bool) -> bool:
    """One type is a reflexive ancestor of the other, or, when `extended`,
    the two share a non-core ancestor."""
    above_a = _reflexive_ancestor_depths(h, type_a).keys()
    above_b = _reflexive_ancestor_depths(h, type_b).keys()
    if type_b in above_a or type_a in above_b:
        return True
    return extended and any(not h.node(t).is_core_lib for t in above_a & above_b)


def reference_label(
    method: MethodNode, cg: CallGraph, h: TypeHierarchy, options: LocalnessOptions
) -> int:
    """The highest level among `method`'s calls into non-core types, each
    call's level taken on its own: 1 into its hierarchy, else 2 into its
    project (or package), else 3; 0 for a core method or no such call."""
    own = h.node(method.defining_type)
    if own.is_core_lib:
        return 0
    scope = "package_name" if options.package_boundary else "project_id"

    def level(target_type):
        if _in_one_hierarchy(h, own.type_id, target_type, options.extended_hierarchy):
            return 1
        return 2 if getattr(h.node(target_type), scope) == getattr(own, scope) else 3

    return max((
        level(e.target.defining_type) for e in cg.edges
        if e.source == method and not h.node(e.target.defining_type).is_core_lib
    ), default=0)


def predecessor_lists(cg: CallGraph) -> dict[MethodNode, list[MethodNode]]:
    """Reference predecessor index, built from `cg.edges` alone: target ->
    sources, one per edge and in edge order.  The tests compare the model's
    cached and derived indexes against it."""
    preds: dict[MethodNode, list[MethodNode]] = {}
    for e in cg.edges:
        preds.setdefault(e.target, []).append(e.source)
    return preds


def reverse_bfs(
    preds: Mapping[MethodNode, list[MethodNode]], vuln: MethodNode
) -> tuple[set[MethodNode], dict[MethodNode, MethodNode]]:
    """Reference reverse search from one vulnerable node over node-keyed
    predecessor lists (`predecessor_lists`), one frontier at a time: every
    node that reaches `vuln`, `vuln` included, and per other such node the
    callee one hop nearer to `vuln` through which the search first met it.
    The tests rebuild witness paths from these links."""
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
