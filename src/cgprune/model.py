"""Core domain model: type hierarchies and call graphs.

A TypeHierarchy is a DAG of types (multiple parents are allowed, since
interfaces exist) where each type declares a set of method signatures.
A CallGraph is a set of method nodes plus call edges; each edge carries
the receiver type that was written at the call site in addition to the
resolved target.

The value types (`MethodSignature`, `TypeNode`, `MethodNode`, `CallEdge`)
are named tuples: each is the tuple of its fields, so hashing, equality
and order are the tuple's, computed in C, and a value equals any tuple,
of whatever class, with the same fields.

Everything here is immutable after construction and safe to share across
threads; the only state added later is lazily built lookup tables, each
fact in exactly one (the ancestor, descendant-cone and application-type
memos and the children and declarer indexes of a TypeHierarchy; the
adjacency and target indexes, the node-type set and the predecessor index
of a CallGraph, plus the candidate bitset and groups `pruning` memoises on
a graph per listed origin), whose entries are fixed by the values
themselves.  The predecessor index holds the graph's dense node ids and,
per node, the ids of its callers in edge order (`PredecessorIndex`).
`CallGraph.pruned` takes the edges to drop as an int bitset, one bit per
edge, and keeps the others with one `compress` in C.  The graph it builds
shares its parent's node-type set and, when the parent's predecessor index
exists, gets its own at once, derived from it, node ids included, by
copying the list and replacing the entries of the pruned targets;
otherwise it builds its own from its edges when first asked.  A pruned
graph holds no reference to its parent.
Analyses elsewhere in the package are pure functions over these values.
Construction is permissive; `validate_hierarchy` reports rule violations
instead of raising, so callers (e.g. file loaders) decide how strict to be.

A TypeHierarchy has one memoised walk per direction: `reflexive_ancestors`
goes up the parent lists and keeps each ancestor's depth, for origin
finding and localness; `descendant_cone` goes down the `children` index to
the types a call may dispatch to, for CHA and pruning.  A dangling parent,
one that names no type of the hierarchy, is skipped by both: the ancestor
walk does not step to it, and the `children` index leaves it out.  So a
hand-built hierarchy with one behaves as if that parent were not listed;
`validate_hierarchy` still reports it, and the file loaders reject it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, pairwise, starmap
from operator import attrgetter, lt
from typing import Callable, Iterable, KeysView, Mapping, NamedTuple, Sequence


class GraphError(Exception):
    """Base class for errors raised by graph lookups and validation."""


class UnknownTypeError(GraphError, KeyError):
    """A type id was referenced that does not exist in the hierarchy."""

    def __init__(self, type_id: str):
        super().__init__(type_id)
        self.type_id = type_id

    def __str__(self) -> str:
        return f"unknown type id: {self.type_id!r}"


class HierarchyValidationError(GraphError):
    """Raised when a hierarchy or call graph fails validation; a loader
    passes the file's `path`, which then starts the message."""

    def __init__(self, violations: list[Violation], path: str | None = None):
        self.violations = violations
        self.path = path
        lines = "; ".join(str(v) for v in violations)
        where = "" if path is None else f"{path}: "
        super().__init__(f"{where}{len(violations)} violation(s): {lines}")


_SIG_RE = re.compile(r"^([^()\s][^()]*)\((.*)\):(.+)$")


class _SignatureFields(NamedTuple):
    name: str
    param_types: tuple[str, ...] = ()
    return_type: str = "void"


class MethodSignature(_SignatureFields):
    """Structural method signature: name, parameter types, return type.

    Two signatures declared in unrelated types compare equal if all three
    fields match; that equality is what drives origin finding and pruning.
    A signature is a tuple of its fields, so it hashes, compares and orders
    as that tuple does.  The constructor rejects an empty name; `_make` and
    `_replace` build the tuple without that check.
    """

    __slots__ = ()

    def __new__(
        cls, name: str, param_types: tuple[str, ...] = (), return_type: str = "void"
    ) -> MethodSignature:
        if not name:
            raise ValueError("signature name must be non-empty")
        return super().__new__(cls, name, param_types, return_type)

    def to_text(self) -> str:
        """Canonical one-token form, e.g. ``next():java.lang.Object``."""
        return f"{self.name}({','.join(self.param_types)}):{self.return_type}"

    @classmethod
    def from_text(cls, text: str) -> "MethodSignature":
        m = _SIG_RE.match(text)
        if m is None:
            raise ValueError(f"malformed signature text: {text!r}")
        name, params, ret = m.groups()
        param_types = tuple(p for p in params.split(",") if p) if params else ()
        return cls(name=name, param_types=param_types, return_type=ret)

    def __str__(self) -> str:
        return self.to_text()


class TypeNode(NamedTuple):
    """One type in the hierarchy with its declared method signatures."""

    type_id: str
    fq_name: str
    parents: tuple[str, ...]
    declared: frozenset[MethodSignature]
    project_id: str
    package_name: str = ""
    is_core_lib: bool = False

    def declares(self, sig: MethodSignature) -> bool:
        return sig in self.declared


@dataclass(frozen=True)
class TypeHierarchy:
    """All types of one analysis run, indexed by type id.

    The parent relation is expected to be acyclic; run `validate_hierarchy`
    to check.  `core_project_id` is the reserved project id shared by every
    core-library type.
    """

    types: Mapping[str, TypeNode]
    core_project_id: str = "core"

    def node(self, type_id: str) -> TypeNode:
        try:
            return self.types[type_id]
        except KeyError:
            raise UnknownTypeError(type_id) from None

    def __contains__(self, type_id: str) -> bool:
        return type_id in self.types

    def sorted_ids(self) -> list[str]:
        return sorted(self.types)

    def reflexive_ancestors(self, type_id: str) -> KeysView[str]:
        """`type_id` plus every type it transitively extends.

        On a miss, one breadth-first walk up the parent lists maps each
        reflexive ancestor, in discovery order, to its minimal parent-edge
        distance (self = 0); a type keeps the depth it is first seen at, so
        cyclic input ends.  The memo holds, per type asked for, the key view
        of that dict, and its `.mapping` is the depth map, read-only.
        """
        found = self._ancestors.get(type_id)
        if found is None:
            self.node(type_id)
            depths = {type_id: 0}
            queue = [type_id]
            for tid in queue:
                depth = depths[tid] + 1
                for p in self.types[tid].parents:
                    if p not in depths and p in self.types:
                        depths[p] = depth
                        queue.append(p)
            found = self._ancestors[type_id] = depths.keys()
        return found

    @cached_property
    def _ancestors(self) -> dict[str, KeysView[str]]:
        # one ancestor walk per type; each view keeps its depth dict alive
        return {}

    def descendant_cone(self, type_id: str) -> frozenset[str]:
        """`type_id` plus every type that transitively extends it: the
        descendant cone of CHA dispatch.

        On a miss, one breadth-first walk down the `children` index; the
        memo holds the cone of each type asked for.  Pruning asks for the
        cone of each origin it has not memoised yet, so origins that share
        a type share its cone.
        """
        found = self._cones.get(type_id)
        if found is None:
            self.node(type_id)
            seen = {type_id}
            queue = [type_id]
            for tid in queue:
                for c in self.children[tid]:
                    if c not in seen:
                        seen.add(c)
                        queue.append(c)
            found = self._cones[type_id] = frozenset(seen)
        return found

    @cached_property
    def _cones(self) -> dict[str, frozenset[str]]:
        return {}

    def application_types(self, project_id: str) -> frozenset[str]:
        """The types of `project_id` that are not core-library types,
        memoised per project.  This is the one rule for application code:
        `vulnsim.propagate` flags application nodes by this set, and
        `inject_artificial_cves` samples only outside it."""
        found = self._application_types.get(project_id)
        if found is None:
            found = self._application_types[project_id] = frozenset(
                tid for tid, t in self.types.items()
                if t.project_id == project_id and not t.is_core_lib
            )
        return found

    @cached_property
    def _application_types(self) -> dict[str, frozenset[str]]:
        return {}

    def root_declarers(self, sig: MethodSignature) -> frozenset[str]:
        """R(s): the types declaring `sig` with no other declarer of `sig`
        among their reflexive ancestors.

        The first declarers above any type t are exactly the members of R(s)
        among t's reflexive ancestors, since whether a declarer is a root does
        not depend on t.  Computed on each call (`find_origins` asks once per
        signature), walking every declarer's ancestors through their memo.
        """
        declarers = set(self._declarers.get(sig, ()))
        # a declarer is one of its own reflexive ancestors, so a root
        # shares exactly one type with the declarers
        return frozenset(
            tid for tid in declarers
            if len(declarers.intersection(self.reflexive_ancestors(tid))) == 1
        )

    @cached_property
    def _declarers(self) -> Mapping[MethodSignature, list[str]]:
        """signature -> every type that declares it, built once per hierarchy
        (lists: a few times smaller than sets, and each is read once)."""
        index: dict[MethodSignature, list[str]] = {}
        for tid, node in self.types.items():
            for sig in node.declared:
                index.setdefault(sig, []).append(tid)
        return index

    @cached_property
    def children(self) -> Mapping[str, list[str]]:
        """parent id -> sorted direct children ids (inverse of the parent
        lists), built once per hierarchy."""
        children: dict[str, list[str]] = {tid: [] for tid in self.types}
        for tid in self.sorted_ids():
            for p in self.types[tid].parents:
                if p in self.types:
                    children[p].append(tid)
        return children


class MethodNode(NamedTuple):
    """A defined method: the type that holds the body plus its signature.

    A node is the tuple of its two fields, so it equals an `OriginRef` with
    the same fields, and both equal the plain tuple.  No container of the
    package mixes nodes and origin refs: `OriginMap.entries` maps nodes to
    refs, and the per-origin dicts are keyed by refs alone.
    """

    defining_type: str
    signature: MethodSignature

    @property
    def uid(self) -> str:
        """Stable textual id, e.g. ``T2::next():java.lang.Object``."""
        return f"{self.defining_type}::{self.signature.to_text()}"

    @classmethod
    def from_uid(
        cls,
        uid: str,
        signature: Callable[[str], MethodSignature] = MethodSignature.from_text,
    ) -> "MethodNode":
        """Parse a uid; `signature` turns its signature text into an object
        (loaders pass a lookup that shares objects instead of parsing)."""
        type_id, sep, sig_text = uid.partition("::")
        if not sep or not type_id:
            raise ValueError(f"malformed method node id: {uid!r}")
        return cls(type_id, signature(sig_text))

    def __str__(self) -> str:
        return self.uid


class CallEdge(NamedTuple):
    """One call edge: source method, resolved target method, receiver type.

    `receiver_type` is the static type written at the call site; the target
    is one concrete resolution of that call.  Edge identity is the full
    (source, target, receiver) triple, and edges order by it.
    """

    source: MethodNode
    target: MethodNode
    receiver_type: str


_source = attrgetter("source")
_target = attrgetter("target")
# a removed-edge bitset's binary digits, lowest first, to a keep selector
_KEPT = bytes.maketrans(b"01", b"\x01\x00")


@dataclass(frozen=True)
class Violation:
    """A broken hierarchy or call-graph rule, named rather than raised."""

    type_id: str
    rule: str
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.type_id}: {self.message}"


@dataclass(frozen=True)
class CallGraph:
    """Immutable call graph: method nodes plus canonical-ordered edges.

    Node identity is content-derived, so ids stay stable across pruning.
    `duplicate_count` records how many duplicate input edges were collapsed
    at construction time.
    """

    nodes: frozenset[MethodNode]
    edges: tuple[CallEdge, ...]
    duplicate_count: int = 0

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def sorted_nodes(self) -> list[MethodNode]:
        return sorted(self.nodes)

    @cached_property
    def outgoing(self) -> Mapping[MethodNode, tuple[CallEdge, ...]]:
        """Edges grouped by source, in canonical order."""
        out: dict[MethodNode, list[CallEdge]] = {}
        for e in self.edges:
            out.setdefault(e.source, []).append(e)
        return {n: tuple(es) for n, es in out.items()}

    def outgoing_edges(self, node: MethodNode) -> tuple[CallEdge, ...]:
        return self.outgoing.get(node, ())

    @cached_property
    def target_positions(self) -> Mapping[MethodSignature, Mapping[str, tuple[int, ...]]]:
        """Target signature -> target defining type -> positions in `edges`.

        Every edge sits in exactly one group, and each group lists its
        positions in ascending order.  Pruning looks up only the listed
        signatures here instead of scanning every edge.
        """
        index: dict[MethodSignature, dict[str, list[int]]] = {}
        for i, e in enumerate(self.edges):
            target = e.target
            index.setdefault(target.signature, {}).setdefault(
                target.defining_type, []
            ).append(i)
        return {
            sig: {tid: tuple(ps) for tid, ps in by_type.items()}
            for sig, by_type in index.items()
        }

    @cached_property
    def node_types(self) -> frozenset[str]:
        """The defining type of every node; pruned graphs share their
        parent's set, since they keep its node set."""
        return frozenset(n.defining_type for n in self.nodes)

    @cached_property
    def _target_ids(self) -> tuple[int, ...]:
        """The target's node id of each edge, in edge order: a graph pruned
        from this one finds the targets of its groups here."""
        return tuple(map(self.predecessors.ids.__getitem__, map(_target, self.edges)))

    @cached_property
    def predecessors(self) -> PredecessorIndex:
        """Per node id, its callers' ids, one per edge and in edge order:
        built from the edges on first use, unless `pruned` derived it when
        it built this graph."""
        return _predecessors_from_edges(self)

    def pruned(
        self, removed: int, groups: Iterable[tuple[int, ...]], whole: bool = True
    ) -> CallGraph:
        """This graph on the same nodes without the edges set in `removed`.

        `removed` is a bitset over `edges`: bit i set drops edge i.  Each of
        `groups` is one of `target_positions`, so it holds every edge into
        one target; together they hold every removed edge, and a group may
        come twice.  With `whole` every edge of the groups is in `removed`;
        without it a group may keep some or all of its edges.  The kept
        edges are one `compress` over a byte selector made from the bitset
        in C, so no Python runs per removed edge.  The result shares this
        graph's node-type set.  If this graph's predecessor index exists,
        the result's is derived from it here: the same node ids and one copy
        of the source-id list in which only the groups' targets change, to
        nothing when `whole`.  Otherwise the result builds its own from its
        edges on first use, so a prune that is never propagated builds no
        index.
        """
        keep = bin(removed)[:1:-1].ljust(len(self.edges), "0").encode("ascii").translate(_KEPT)
        graph = CallGraph(nodes=self.nodes, edges=tuple(compress(self.edges, keep)))
        vars(graph)["node_types"] = self.node_types
        base = vars(self).get("predecessors")
        if base is not None:
            targets = self._target_ids
            sources = base.sources.copy()
            for group in groups:
                t = targets[group[0]]
                sources[t] = () if whole else tuple(
                    compress(base.sources[t], map(keep.__getitem__, group))
                )
            vars(graph)["predecessors"] = PredecessorIndex(base.nodes, base.ids, sources)
        return graph


class PredecessorIndex(NamedTuple):
    """A graph's predecessor index on dense node ids.

    `sources[i]` holds the ids of node i's callers, one per edge into it and
    in edge order (empty when no edge enters it); `nodes[i]` is node i and
    `ids` maps each node to its id.  Walks read `sources` and map ids back
    to nodes only for what they report.
    """

    nodes: Sequence[MethodNode]
    ids: Mapping[MethodNode, int]
    sources: list[tuple[int, ...]]


def _predecessors_from_edges(cg: CallGraph) -> PredecessorIndex:
    """`CallGraph.predecessors` built from the edges: the graph's nodes
    numbered in iteration order, then one source tuple per group of
    `target_positions` (a group lists every edge into one target, in order).
    This is the one place node ids are made; pruned graphs share them."""
    ids = {n: i for i, n in enumerate(cg.nodes)}
    edges = cg.edges
    sources: list[tuple[int, ...]] = [()] * len(ids)
    for by_type in cg.target_positions.values():
        for group in by_type.values():
            sources[ids[edges[group[0]].target]] = tuple([ids[edges[i].source] for i in group])
    return PredecessorIndex(tuple(ids), ids, sources)


def build_call_graph(
    nodes: Iterable[MethodNode],
    edges: Iterable[CallEdge],
    *,
    closed: bool = False,
) -> CallGraph:
    """Construct a CallGraph in canonical form.

    Duplicate (source, target, receiver) triples are collapsed and counted.
    Edge endpoints are added to the node set if missing, so the endpoint
    invariant holds by construction.  Edges order as tuples, by source, then
    target, then receiver type.  An edge list that is already canonical
    (strictly increasing, as in every saved file) is taken as it is, since
    it is sorted and holds no duplicate; any other list is deduplicated and
    sorted.

    `closed` is for `io.load_call_graph` alone, which registers every edge
    endpoint among `nodes` as it reads the edge: the node set is then taken
    as it is, not derived again from both ends of every edge.
    """
    edge_list = list(edges)
    if all(starmap(lt, pairwise(edge_list))):
        unique = edge_list
    else:
        unique = sorted(dict.fromkeys(edge_list))
    if closed:
        node_set = nodes
    else:
        node_set = set(nodes)
        node_set.update(map(_source, unique))
        node_set.update(map(_target, unique))
    return CallGraph(
        nodes=frozenset(node_set),
        edges=tuple(unique),
        duplicate_count=len(edge_list) - len(unique),
    )


def validate_hierarchy(h: TypeHierarchy) -> list[Violation]:
    """Check hierarchy invariants; returns one Violation per broken rule.

    Rules checked: every parent id resolves (`dangling-parent`), the parent
    relation is acyclic (`cycle`, one violation per type on a cycle), and
    core-library types carry the reserved core project id (`core-project`).
    """
    violations: list[Violation] = []
    ids = h.sorted_ids()
    for tid in ids:
        node = h.types[tid]
        for p in node.parents:
            if p not in h.types:
                violations.append(
                    Violation(tid, "dangling-parent", f"parent {p!r} does not exist")
                )
        if node.is_core_lib and node.project_id != h.core_project_id:
            violations.append(
                Violation(
                    tid,
                    "core-project",
                    f"core type has project {node.project_id!r}, "
                    f"expected {h.core_project_id!r}",
                )
            )
    # a type is on a cycle iff one of its parents shares its component
    index = {tid: i for i, tid in enumerate(ids)}
    parents = [[index[p] for p in h.types[tid].parents if p in index] for tid in ids]
    component = component_masks(parents, [0] * len(ids), range(len(ids)))
    for i, tid in enumerate(ids):
        if any(component[p] == component[i] for p in parents[i]):
            violations.append(Violation(tid, "cycle", "type participates in a parent cycle"))
    return violations


def component_masks(
    succ: Sequence[Sequence[int]], mask: list[int], roots: Iterable[int]
) -> list[int]:
    """One iterative Tarjan walk (1972) from `roots` over int successor lists.

    Afterwards each visited node's `mask` entry is the OR of the entries of
    all nodes it reaches, itself included.  Returns component numbers: equal
    for the members of one strongly connected component, 0 where no root
    reaches.  A component is emitted after every component it reaches, so
    its root's mask, ORed from successors and subtree on the way, is final
    then and goes to every member: one OR per edge, no recursion.
    """
    n = len(succ)
    order = [0] * n  # preorder number from 1, then n + component number
    low = [0] * n
    stack: list[int] = []
    count = emitted = 0
    for root in roots:
        if order[root]:
            continue
        count += 1
        order[root] = low[root] = count
        stack.append(root)
        walk = [(root, iter(succ[root]))]
        while walk:
            v, todo = walk[-1]
            for w in todo:
                if not order[w]:
                    count += 1
                    order[w] = low[w] = count
                    stack.append(w)
                    walk.append((w, iter(succ[w])))
                    break
                # w is emitted (its mask is final) or shares v's component
                mask[v] |= mask[w]
                if order[w] < low[v]:
                    low[v] = order[w]
            else:
                walk.pop()
                if low[v] == order[v]:
                    emitted += 1
                    bits = mask[v]
                    while True:
                        w = stack.pop()
                        mask[w] = bits
                        order[w] = n + emitted
                        if w == v:
                            break
                if walk:
                    u = walk[-1][0]
                    mask[u] |= mask[v]
                    if low[v] < low[u]:
                        low[u] = low[v]
    return order


def reverse_adjacency(cg: CallGraph) -> PredecessorIndex:
    """The graph's cached `predecessors` index: per node id, the ids of its
    callers, one per edge and in edge order, so edge multiplicity is kept
    exactly (`PredecessorIndex`).  It is built from the edges once per
    graph, or, for a graph made by `CallGraph.pruned` from a parent whose
    index exists, derived from that index when the pruned graph is built."""
    return cg.predecessors


def validate_call_graph(cg: CallGraph, h: TypeHierarchy) -> list[Violation]:
    """Check a call graph against its hierarchy.

    Every node's defining type must exist and declare the node's signature;
    every edge's receiver type must exist.
    """
    violations: list[Violation] = []
    types = h.types
    # scan in any order, then sort only the nodes that break a rule
    bad = [
        n for n in cg.nodes
        if (t := types.get(n.defining_type)) is None or n.signature not in t.declared
    ]
    for n in sorted(bad):
        t = types.get(n.defining_type)
        if t is None:
            violations.append(
                Violation(n.defining_type, "unknown-type", f"node {n.uid} has no type")
            )
        elif not t.declares(n.signature):
            violations.append(
                Violation(
                    n.defining_type,
                    "undeclared-signature",
                    f"type does not declare {n.signature.to_text()}",
                )
            )
    for e in cg.edges:
        if e.receiver_type not in types:
            violations.append(
                Violation(
                    e.receiver_type,
                    "unknown-receiver",
                    f"edge {e.source.uid} -> {e.target.uid} has unknown receiver",
                )
            )
    return violations
