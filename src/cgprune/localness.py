"""Localness labelling: how far a method's own calls reach.

Each non-core method gets one of four levels from its outgoing edges:

* 0 - core-library method, or no calls beyond the core library
* 1 - stays within its own class hierarchy
* 2 - leaves the hierarchy but stays within the defining project
* 3 - calls out into another project

Each call into a non-core type has its own level: 1 if the target type is
in the method's hierarchy, else 2 if it is in the method's project (or
package, see `LocalnessOptions`), else 3.  Calls into core types count for
nothing.  The label is the highest of these levels, so it depends neither
on the order of the edges nor on the target types' ids, and the scan stops
at the first level-3 call.
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
    """Localness level of one method, from its outgoing edges only: the
    highest level of its calls into non-core types."""
    own = method.defining_type
    if h.node(own).is_core_lib:
        return 0
    label = 0
    for edge in cg.outgoing_edges(method):
        target_type = edge.target.defining_type
        if h.node(target_type).is_core_lib:
            continue
        if label < 2:
            if same_hierarchy(h, own, target_type, options):
                label = 1
            elif _same_scope(h, own, target_type, options):
                label = 2
            else:
                return 3
        # at 2, only a call out of both the scope and the hierarchy counts
        elif not _same_scope(h, own, target_type, options) and not same_hierarchy(
            h, own, target_type, options
        ):
            return 3
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
