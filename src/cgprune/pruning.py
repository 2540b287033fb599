"""Edge pruning against an exclusion list of high-frequency origins.

An edge is a candidate when its target's signature appears in the exclusion
list and the target's defining type descends (reflexively) from one of the
listed origin types.  Exhaustive mode drops every candidate; selective mode
asks a decision oracle per candidate and only drops those it condemns with
confidence strictly above a threshold.  Nodes are never removed, so node-set
metrics stay comparable before and after.

The exclusion list travels as a small tab-separated text file so runs can be
repeated on other machines byte for byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain, compress, count
from typing import Callable, Mapping, Protocol

from .io import read_text_records, write_text_records
from .model import (
    CallEdge,
    CallGraph,
    GraphError,
    MethodSignature,
    TypeHierarchy,
    is_reflexive_descendant,
)
from .origins import ExclusionList


@dataclass(frozen=True)
class PruneDecision:
    """Oracle verdict on one candidate edge."""

    prune: bool
    confidence: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")


class PruneDecisionOracle(Protocol):
    """Pluggable judge for candidate edges.

    An oracle sees only the edge; whatever else it judges by (method texts,
    features) it derives from the edge itself.
    """

    def decide(self, edge: CallEdge) -> PruneDecision: ...


_KEEP = PruneDecision(prune=False, confidence=1.0)


class KeepAllOracle:
    """Condemns nothing; selective pruning becomes the identity."""

    def decide(self, edge: CallEdge) -> PruneDecision:
        return _KEEP


class PruneAllOracle:
    """Condemns every candidate with full confidence."""

    def decide(self, edge: CallEdge) -> PruneDecision:
        return PruneDecision(prune=True, confidence=1.0)


# the built-in oracles by the names that configs and the CLI use
ORACLES: dict[str, Callable[[], PruneDecisionOracle]] = {
    "keep-all": KeepAllOracle,
    "prune-all": PruneAllOracle,
}


class FixedTableOracle:
    """Replays decisions from a prepared edge table; unknown edges are kept."""

    def __init__(self, table: Mapping[CallEdge, PruneDecision]) -> None:
        self.table = dict(table)

    def decide(self, edge: CallEdge) -> PruneDecision:
        return self.table.get(edge, _KEEP)


@dataclass(frozen=True)
class PruneResult:
    """Outcome of one pruning pass.

    candidate_edges counts edges matching the exclusion list, each once
    even when it lies in the cones of two listed origin types (the set bits
    of the candidate bitset); pruned_edges counts those actually removed
    (equal in exhaustive mode).  oracle_failures counts candidates kept
    because the oracle raised.  elapsed covers the whole pass: the memo
    lookups, the oracle's calls, the pruned graph's construction and, when
    the input graph had its predecessor index, the derived one.
    """

    pruned_graph: CallGraph
    candidate_edges: int
    pruned_edges: int
    reduction_ratio: float
    elapsed: float
    oracle_failures: int = 0


def not_excluded(
    excl: ExclusionList,
    target_sig: MethodSignature,
    target_type: str,
    h: TypeHierarchy,
) -> bool:
    """True when an edge with this target survives the exclusion list.

    Signature match alone is not enough: the target's type must also descend
    from one of the origin types listed for that signature.
    """
    origin_types = excl.by_signature.get(target_sig)
    if not origin_types:
        return True
    return not any(
        is_reflexive_descendant(h, origin, target_type) for origin in origin_types
    )


def prune_exhaustive(
    cg: CallGraph, excl: ExclusionList, h: TypeHierarchy
) -> PruneResult:
    """Drop every edge targeting a derivative of a listed origin.

    The oracle-free case of `prune_selective`.  Idempotent: the surviving
    edges contain no candidates.
    """
    return prune_selective(cg, excl, h, None)


def _candidate_bits(
    cg: CallGraph, excl: ExclusionList, h: TypeHierarchy
) -> tuple[int, list[tuple[int, ...]]]:
    """The edges the exclusion list matches: a bitset over `cg.edges` (bit i
    set for a candidate edge i) and the groups of `cg.target_positions` that
    hold them, each listing the positions of every edge into one candidate
    target.

    Only the listed signatures are looked up in the graph's target index,
    and their target types are intersected with each origin type's
    descendant cone, memoised per type by the hierarchy.  A cone holds only
    known types, so edges into a type the hierarchy lacks are never
    candidates.

    The bitset and groups of each (signature, origin type) pair are memoised
    on the graph, by signature and then by origin type, for the hierarchy
    they were first found with; the memo holds that hierarchy and starts
    afresh when asked with another one.  A Top-N step thus walks a cone only
    for the pairs new since the last N, and ORs one int per listed pair, so
    an edge in two overlapping cones counts once.  Its group then comes
    twice, which `CallGraph.pruned` allows.
    """
    memo = vars(cg).get("_candidate_memo")
    if memo is None or memo[0] is not h:
        memo = vars(cg)["_candidate_memo"] = (h, {})
    found = memo[1]
    bits = 0
    groups: list[tuple[int, ...]] = []
    for sig, origin_types in excl.by_signature.items():
        per_type = found.get(sig)
        if per_type is None:
            per_type = found[sig] = {}
        for origin in origin_types:
            pair = per_type.get(origin)
            if pair is None:
                by_type = cg.target_positions.get(sig, {})
                cone = h.descendant_cone(origin)
                matched = tuple([by_type[t] for t in cone.intersection(by_type)])
                # the groups are disjoint, so the sum sets each bit once
                pair_bits = sum(map((1).__lshift__, chain.from_iterable(matched)))
                pair = per_type[origin] = (pair_bits, matched)
            bits |= pair[0]
            groups.extend(pair[1])
    return bits, groups


def prune_selective(
    cg: CallGraph,
    excl: ExclusionList,
    h: TypeHierarchy,
    oracle: PruneDecisionOracle | None,
    threshold: float = 0.95,
) -> PruneResult:
    """Drop candidates the oracle condemns with confidence above `threshold`.

    The comparison is strict, so a threshold of 1.0 keeps everything.  An
    oracle failure keeps the edge (conservative) and is counted, never
    raised.  The oracle sees the candidates one at a time, in edge order.
    Without an oracle (`None`) every candidate is dropped.

    Candidates come as one bitset over the edges plus the groups that hold
    them, one per target (`_candidate_bits`).  Without an oracle the whole
    bitset goes; with one, the oracle judges the edge of each set bit, and
    the condemned edges make a second bitset.  Either way `CallGraph.pruned`
    builds the result from the removed-edge bitset and the groups.  When
    `cg` has its predecessor index, the pruned graph's is derived from it
    there, by changing only the candidate targets' entries.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    start = time.perf_counter()
    bits, groups = _candidate_bits(cg, excl, h)
    failures = 0
    if oracle is None:
        removed = bits
    else:
        edges = cg.edges
        removed = 0
        # the positions of the set bits, lowest first: edge order
        for i in compress(count(), map("1".__eq__, bin(bits)[:1:-1])):
            try:
                decision = oracle.decide(edges[i])
            except Exception:
                failures += 1
                continue
            if decision.prune and decision.confidence > threshold:
                removed |= 1 << i
    pruned_graph = cg.pruned(removed, groups, whole=oracle is None)
    elapsed = time.perf_counter() - start
    pruned = removed.bit_count()
    ratio = pruned / cg.edge_count if cg.edge_count else 0.0
    return PruneResult(
        pruned_graph=pruned_graph,
        candidate_edges=bits.bit_count(),
        pruned_edges=pruned,
        reduction_ratio=ratio,
        elapsed=elapsed,
        oracle_failures=failures,
    )


def _exclusion_parser(h: TypeHierarchy) -> Callable[[str], tuple[MethodSignature, str]]:
    """The reader of one stripped exclusion-list line: (signature, type id in `h`)."""
    by_fq: dict[str, str | None] = {}
    for tid in h.sorted_ids():
        fq = h.types[tid].fq_name
        # None marks a duplicate name; only an error if it is referenced
        by_fq[fq] = None if fq in by_fq else tid

    def parse(line: str) -> tuple[MethodSignature, str]:
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"expected 'signature<TAB>type name', got {line!r}")
        sig_text, fq = parts
        sig = MethodSignature.from_text(sig_text)
        if fq not in by_fq:
            raise ValueError(f"unknown type name {fq!r}")
        tid = by_fq[fq]
        if tid is None:
            raise ValueError(f"type name {fq!r} is ambiguous in this hierarchy")
        return sig, tid

    return parse


def save_exclusion_list(excl: ExclusionList, path: str, h: TypeHierarchy) -> None:
    """Write `signature<TAB>origin fully-qualified name`, sorted, one per line.

    The declared Top-N size rides along as a header so a reloaded list
    reports the same size it was built with.  Each line must read back as
    its entry, or GraphError is raised before the file is opened.
    """
    parse = _exclusion_parser(h)
    pairs = excl.sorted_pairs()
    lines = [f"{sig.to_text()}\t{h.node(tid).fq_name}" for sig, tid in pairs]
    for line, entry in zip(lines, pairs):
        # a type name may be shared, or hold a tab, a line break or a lone
        # surrogate (which does not encode); a leading '#' makes a header
        try:
            line.encode("utf-8")
            if "\n" in line or "\r" in line or line[0] == "#" or parse(line.strip()) != entry:
                raise ValueError("it would read back as another entry")
        except ValueError as exc:
            fq = h.types[entry[1]].fq_name
            raise GraphError(f"{path}: cannot save type name {fq!r}: {exc}") from None
    write_text_records(path, {"declared-size": excl.declared_size}, lines)


def load_exclusion_list(path: str, h: TypeHierarchy) -> ExclusionList:
    """Read an exclusion list back, resolving type names against `h`.

    An unresolvable or ambiguous fully-qualified name is a hard error: a
    silently dropped entry would quietly weaken the pruning.
    """
    headers, pairs = read_text_records(path, {"declared-size": 0}, _exclusion_parser(h))
    return ExclusionList.from_pairs(pairs, headers.get("declared-size", len(pairs)))
