"""Synthetic corpora: seeded hierarchies and CHA-expanded call graphs.

The generator builds layered hierarchies (a type's parents always have
smaller indices, so cycles are impossible by construction) with a core slice
up front, then expands random call sites the way class-hierarchy analysis
would: one edge to every reflexive descendant of the receiver that declares
the called signature.

All randomness comes from Python's Mersenne Twister (`random.Random`) seeded
from GenParams, with the hierarchy and call-graph streams decoupled so either
can be regenerated alone.  Interchange files remain the portability contract;
the named PRNG just makes seeds reproducible across machines running this
implementation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .io import checked, checked_list
from .model import (
    CallEdge,
    CallGraph,
    MethodNode,
    MethodSignature,
    TypeHierarchy,
    TypeNode,
    build_call_graph,
)

# distinct streams for hierarchy and call-graph generation from one seed
_CALLGRAPH_SEED_OFFSET = 0x9E3779B9

CORE_PROJECT = "core"


# Each scalar field of GenParams: its JSON kind, then its least and greatest
# allowed values, if any.
_SCALARS: dict[str, tuple] = {
    "type_count": (int, 1),
    "max_parents_per_type": (int, 1),
    "signature_pool_size": (int, 1),
    "override_probability": (float, 0, 1),
    "project_count": (int, 1),
    "core_type_fraction": (float, 0, 1),
    "seed": (int,),
}


@dataclass(frozen=True)
class GenParams:
    """Knobs for synthetic corpus generation.

    call_sites_per_method is an inclusive (low, high) range; (0, 0) produces
    an edgeless graph.
    """

    type_count: int = 50
    max_parents_per_type: int = 2
    signature_pool_size: int = 8
    override_probability: float = 0.5
    call_sites_per_method: tuple[int, int] = (0, 3)
    project_count: int = 3
    core_type_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        for name, rule in _SCALARS.items():
            checked(name, getattr(self, name), *rule)
        sites = self.call_sites_per_method
        try:
            low, high = checked_list("call_sites_per_method", sites, int)
        except (TypeError, ValueError):  # not a list of integers, or not two
            raise TypeError(
                f"call_sites_per_method must be two integers, got {sites!r}"
            ) from None
        if not 0 <= low <= high:
            raise ValueError(
                f"call_sites_per_method must satisfy 0 <= low <= high, got {sites}"
            )


def signature_pool(size: int) -> list[MethodSignature]:
    """The fixed signature vocabulary for a pool size; index is part of the name."""
    pool = []
    for i in range(size):
        params = ("int",) if i % 3 == 2 else ()
        pool.append(MethodSignature(f"m{i:02d}", params, "obj"))
    return pool


def generate_hierarchy(p: GenParams) -> TypeHierarchy:
    """Layered random hierarchy: acyclic by construction, deterministic per seed.

    The first round(core_type_fraction * type_count) types form the core
    slice inside the reserved core project; everything after is spread over
    the non-core projects.  Each type declares up to 3 pool signatures,
    choosing with override_probability a signature some ancestor already
    declares (when one is available) and otherwise a fresh one no ancestor
    declares.  Zero override probability therefore guarantees every declared
    signature is a fresh self-origin, even if that leaves a type empty.
    """
    rng = random.Random(p.seed)
    pool = signature_pool(p.signature_pool_size)
    core_count = min(p.type_count, round(p.core_type_fraction * p.type_count))
    types: dict[str, TypeNode] = {}
    order: list[str] = []
    # signatures visible from each type's strict ancestors, built incrementally
    inherited: dict[str, frozenset[MethodSignature]] = {}
    for i in range(p.type_count):
        tid = f"T{i:03d}"
        is_core = i < core_count
        if is_core:
            project = CORE_PROJECT
            package = "core.internal"
        else:
            project = f"p{rng.randrange(p.project_count) + 1}"
            package = f"{project}.pkg{rng.randrange(3)}"
        parent_limit = min(p.max_parents_per_type, i)
        parent_count = rng.randint(0, parent_limit) if parent_limit else 0
        parents = tuple(
            order[j] for j in sorted(rng.sample(range(i), parent_count))
        )
        visible: frozenset[MethodSignature] = frozenset()
        for par in parents:
            visible |= inherited[par] | types[par].declared
        declared: set[MethodSignature] = set()
        for _ in range(rng.randint(1, min(3, p.signature_pool_size))):
            roll = rng.random()
            override_choices = sorted(visible - declared)
            fresh_choices = sorted(set(pool) - visible - declared)
            if roll < p.override_probability and override_choices:
                declared.add(rng.choice(override_choices))
            elif fresh_choices:
                declared.add(rng.choice(fresh_choices))
            elif override_choices and p.override_probability > 0:
                declared.add(rng.choice(override_choices))
            # with zero override probability and a saturated pool the type
            # may declare nothing; an override would break the self-origin
            # guarantee
        types[tid] = TypeNode(
            type_id=tid,
            fq_name=f"{package}.C{i:03d}",
            parents=parents,
            declared=frozenset(declared),
            project_id=project,
            package_name=package,
            is_core_lib=is_core,
        )
        order.append(tid)
        inherited[tid] = visible
    return TypeHierarchy(types=types, core_project_id=CORE_PROJECT)


def cha_targets(
    h: TypeHierarchy, receiver_type: str, sig: MethodSignature
) -> list[MethodNode]:
    """Every method a call on (receiver, sig) may dispatch to under CHA.

    One node per reflexive descendant of the receiver that declares the
    signature, in canonical order.
    """
    cone = h.descendant_cone(receiver_type)
    return [MethodNode(tid, sig) for tid in sorted(cone) if h.types[tid].declares(sig)]


def generate_call_graph_cha(h: TypeHierarchy, p: GenParams) -> CallGraph:
    """Random call sites expanded CHA-style, deterministic per seed.

    Every declared method is a node.  Each method draws a call-site count
    from the configured range; each call site picks a declared
    (receiver type, signature) pair and emits one edge per CHA target of that
    pair.  Duplicate (source, target, receiver) triples collapse.
    """
    rng = random.Random(p.seed + _CALLGRAPH_SEED_OFFSET)
    methods = [
        MethodNode(tid, sig)
        for tid in h.sorted_ids()
        for sig in sorted(h.types[tid].declared)
    ]
    # Every CHA target is a declared method, so edges point at the objects
    # in `methods`: one node object per method, not one per edge.
    shared = {m: m for m in methods}
    site_targets: dict[MethodNode, list[MethodNode]] = {}

    def targets(site: MethodNode) -> list[MethodNode]:
        found = site_targets.get(site)
        if found is None:
            found = site_targets[site] = [
                shared[t] for t in cha_targets(h, site.defining_type, site.signature)
            ]
        return found

    low, high = p.call_sites_per_method
    edges = []
    for source in methods:
        for _ in range(rng.randint(low, high)):
            site = rng.choice(methods)
            receiver = site.defining_type
            # as `CallEdge(...)`, without the generated `__new__` frame
            edges.extend(tuple.__new__(CallEdge, (source, t, receiver)) for t in targets(site))
    return build_call_graph(methods, edges)

