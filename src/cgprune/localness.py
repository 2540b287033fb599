"""Localness labelling: how far a method's own calls reach.

Each non-core method gets one of four levels from its outgoing edges:

* 0 - core-library method, or no calls beyond the core library
* 1 - stays within its own class hierarchy
* 2 - leaves the hierarchy but stays within the defining project
* 3 - calls out into another project

Levels only ever escalate while scanning a method's edges, and a single
out-of-project call settles the label at 3 immediately.  Level-1 evidence
never downgrades an already-established level 2.  Edges are visited in the
graph's canonical order so the result is independent of input order.  As
applied, a call into the method's own hierarchy counts as level 1 only
until a level-2 call has been seen; after one, such a call into another
project counts as level 3, so the label can depend on the target types' ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .model import CallGraph, MethodNode, TypeHierarchy
from .origins import OriginMap, OriginRef


@dataclass(frozen=True)
class LocalnessOptions:
    """Tuning knobs for the hierarchy and boundary tests.

    extended_hierarchy treats two types that share a non-core ancestor as
    hierarchy-mates even when neither inherits from the other (siblings under
    a shared interface).  package_boundary draws the level-2/3 line between
    packages instead of projects.
    """

    extended_hierarchy: bool = True
    package_boundary: bool = False


DEFAULT_OPTIONS = LocalnessOptions()


def same_hierarchy(
    h: TypeHierarchy,
    type_a: str,
    type_b: str,
    options: LocalnessOptions = DEFAULT_OPTIONS,
) -> bool:
    """True when the two types belong to one class hierarchy.

    Always true for a type and its (reflexive) ancestor or descendant; with
    extended_hierarchy also true for types sharing a common non-core
    ancestor.  Common core ancestors (java.lang.Object in spirit) never
    connect hierarchies.
    """
    if type_a == type_b:
        h.node(type_a)
        return True
    anc_a = h.reflexive_ancestors(type_a)
    anc_b = h.reflexive_ancestors(type_b)
    if type_b in anc_a or type_a in anc_b:
        return True
    if options.extended_hierarchy:
        return any(not h.node(t).is_core_lib for t in anc_a & anc_b)
    return False


def _same_scope(
    h: TypeHierarchy, type_a: str, type_b: str, options: LocalnessOptions
) -> bool:
    a, b = h.node(type_a), h.node(type_b)
    if options.package_boundary:
        return a.package_name == b.package_name
    return a.project_id == b.project_id


def categorize(
    method: MethodNode,
    cg: CallGraph,
    h: TypeHierarchy,
    options: LocalnessOptions = DEFAULT_OPTIONS,
) -> int:
    """Localness level of one method, from its outgoing edges only."""
    if h.node(method.defining_type).is_core_lib:
        return 0
    label = 0
    for edge in cg.outgoing_edges(method):
        target_type = edge.target.defining_type
        if h.node(target_type).is_core_lib:
            continue
        if label < 2 and same_hierarchy(h, method.defining_type, target_type, options):
            label = 1
        elif _same_scope(h, method.defining_type, target_type, options):
            label = 2
        else:
            label = 3
            break
    return label


def label_all(
    cg: CallGraph,
    h: TypeHierarchy,
    options: LocalnessOptions = DEFAULT_OPTIONS,
) -> dict[MethodNode, int]:
    """Localness level for every node of the graph."""
    return {node: categorize(node, cg, h, options) for node in cg.sorted_nodes()}


@dataclass(frozen=True)
class LocalnessDistribution:
    """Per-origin share of derivative methods at each localness level.

    Each value is a 4-tuple of fractions summing to 1.0, or None for origins
    without derivatives in the labelled graph.
    """

    per_origin: Mapping[OriginRef, tuple[float, float, float, float] | None]


def localness_distribution(
    origins: OriginMap,
    labels: Mapping[MethodNode, int],
    selected: list[OriginRef] | tuple[OriginRef, ...],
) -> LocalnessDistribution:
    """Distribution of localness levels across each origin's derivatives.

    `labels` must cover every derivative of the selected origins; a gap is a
    caller error and raises KeyError naming the node.
    """
    groups = origins.derivatives()
    per_origin: dict[OriginRef, tuple[float, float, float, float] | None] = {}
    for origin in selected:
        nodes = groups.get(origin, [])
        if not nodes:
            per_origin[origin] = None
            continue
        counts = [0, 0, 0, 0]
        for node in nodes:
            try:
                counts[labels[node]] += 1
            except KeyError:
                raise KeyError(f"labels do not cover derivative {node.uid}") from None
        total = len(nodes)
        per_origin[origin] = tuple(c / total for c in counts)  # type: ignore[assignment]
    return LocalnessDistribution(per_origin=per_origin)
