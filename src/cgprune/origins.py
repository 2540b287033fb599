"""Origin analysis: map call targets to the first declaration of their signature.

The origin of a method is the type highest up the hierarchy that first
declares its signature; every override below it is a derivative.  A handful
of origins (think ``Iterator.next``) typically account for a large share of
call-graph edges, which is what makes them pruning candidates.

When a signature is introduced independently by several unrelated ancestors
(e.g. two interfaces both declaring ``close()``), the full candidate set is
kept as diagnostics and the entry is chosen by the smallest
(depth-from-target, type id) key so results are deterministic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Mapping, NamedTuple

from .model import CallGraph, MethodNode, MethodSignature, TypeHierarchy

_target = attrgetter("target")


class OriginRef(NamedTuple):
    """The first declaration of a signature: origin type plus the signature.

    `find_origins` builds one object per origin and shares it, so the dicts
    and counters keyed by origins find their keys by identity.  A ref is the
    tuple of its two fields, so it equals a `MethodNode` with the same
    fields, and both equal the plain tuple.  No container of the package
    mixes refs and nodes: `OriginMap.entries` maps nodes to refs, and the
    per-origin dicts are keyed by refs alone.
    """

    origin_type: str
    signature: MethodSignature

    def render(self, h: TypeHierarchy) -> str:
        """Readable form: the origin type's fully-qualified name plus the signature."""
        return f"{h.node(self.origin_type).fq_name}.{self.signature.to_text()}"


@dataclass(frozen=True)
class OriginMap:
    """Origin of every distinct edge-target method of one call graph.

    `ambiguous` holds the full candidate set for targets whose signature has
    several independent first declarations; `entries` already contains the
    deterministically chosen one.
    """

    entries: Mapping[MethodNode, OriginRef]
    ambiguous: Mapping[MethodNode, tuple[OriginRef, ...]] = field(default_factory=dict)

    def derivatives(self) -> dict[OriginRef, list[MethodNode]]:
        """Nodes grouped by their origin, each group in canonical order."""
        groups: dict[OriginRef, list[MethodNode]] = {}
        for node in sorted(self.entries):
            groups.setdefault(self.entries[node], []).append(node)
        return groups


@dataclass(frozen=True)
class OriginFrequencyTable:
    """Origins ranked by how many edges target one of their derivatives."""

    rows: tuple[tuple[OriginRef, int], ...]

    def top(self, n: int) -> tuple[tuple[OriginRef, int], ...]:
        return self.rows[: max(n, 0)]


@dataclass(frozen=True)
class ExclusionList:
    """The origins whose derivatives are pruning candidates.

    `declared_size` is the Top-N the list was built from, which can exceed
    the number of origins when the frequency table is shorter than N.
    """

    origins: frozenset[OriginRef]
    declared_size: int


def find_origins(cg: CallGraph, h: TypeHierarchy) -> OriginMap:
    """Map every distinct edge target to its origin declaration.

    A method whose signature is not declared by any strict ancestor is its
    own origin.  Fully deterministic: ties between independent first
    declarations resolve by (depth, type id) and the losing candidates are
    exposed through `OriginMap.ambiguous`.

    A target's first declarations are the hierarchy's root declarers of its
    signature among the target type's reflexive ancestors; depths come from
    the ancestor memo, so each type is walked once however many signatures
    it carries.  The call builds one `OriginRef` per (origin type,
    signature) and shares it among the entries and the ambiguous sets.
    """
    targets = sorted(set(map(_target, cg.edges)))
    entries: dict[MethodNode, OriginRef] = {}
    ambiguous: dict[MethodNode, tuple[OriginRef, ...]] = {}
    # signature -> (its root declarers, its OriginRef per origin type)
    per_signature: dict[MethodSignature, tuple[frozenset[str], dict[str, OriginRef]]] = {}
    for node in targets:
        sig = node.signature
        found = per_signature.get(sig)
        if found is None:
            found = per_signature[sig] = (h.root_declarers(sig), {})
        roots, refs = found
        depths = h.reflexive_ancestor_depths(node.defining_type)
        minimal = roots.intersection(depths)
        if len(minimal) > 1:
            candidates = sorted(minimal, key=lambda tid: (depths[tid], tid))
        elif minimal:
            candidates = list(minimal)
        else:
            # the target type does not declare its own signature (invalid
            # graphs only); fall back to self-origin so the map stays total
            candidates = [node.defining_type]
        origins = [
            refs.get(tid) or refs.setdefault(tid, OriginRef(tid, sig)) for tid in candidates
        ]
        entries[node] = origins[0]
        if len(origins) > 1:
            ambiguous[node] = tuple(origins)
    return OriginMap(entries=entries, ambiguous=ambiguous)


def _ranked(counts: Counter) -> tuple[tuple[OriginRef, int], ...]:
    """Descending by count; ties by (origin type, signature)."""
    return tuple(sorted(counts.items(), key=lambda item: (-item[1], item[0])))


def origin_edge_frequencies(cg: CallGraph, origins: OriginMap) -> OriginFrequencyTable:
    """Rank origins by the number of edges targeting one of their derivatives.

    The counts sum to the edge count of the graph; the origin map must be
    total over the graph's edge targets.
    """
    # count per target first, then add each target's count to its origin
    counts: Counter = Counter()
    for target, n in Counter(map(_target, cg.edges)).items():
        try:
            counts[origins.entries[target]] += n
        except KeyError:
            raise KeyError(
                f"origin map is not total: missing target {target.uid}"
            ) from None
    return OriginFrequencyTable(rows=_ranked(counts))


def unique_derivative_counts(
    cg: CallGraph, origins: OriginMap
) -> list[tuple[OriginRef, int]]:
    """Distinct derivative methods per origin, ranked like the frequency table."""
    entries = origins.entries
    if not all(map(entries.__contains__, map(_target, cg.edges))):
        missing = next(t for t in map(_target, cg.edges) if t not in entries)
        raise KeyError(f"origin map is not total: missing target {missing.uid}")
    counts: Counter = Counter(entries.values())
    return list(_ranked(counts))


def build_exclusion_list(table: OriginFrequencyTable, n: int) -> ExclusionList:
    """The origins of the first min(n, len(rows)) frequency rows."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return ExclusionList(frozenset([origin for origin, _count in table.rows[:n]]), n)
