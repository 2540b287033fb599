"""Interchange files: line-delimited JSON for hierarchies and call graphs.

Each file is a stream of one-line JSON records: a header first (schema
version plus, for hierarchies, the project table), then the payload records.
Readers process one line at a time, so graph size never dictates parser
memory.  Writers emit canonical ordering and key-sorted records, making the
files byte-stable for a given value.

Loading validates: malformed lines raise RecordFormatError with file and
line position, wrong versions raise SchemaVersionError naming both versions,
and semantic violations (dangling parents, unknown types) surface as
HierarchyValidationError listing each offence.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Callable, Iterator, TextIO

from .model import (
    CallEdge,
    CallGraph,
    GraphError,
    MethodNode,
    MethodSignature,
    TypeHierarchy,
    TypeNode,
    build_call_graph,
    HierarchyValidationError,
    validate_call_graph,
    validate_hierarchy,
)

SCHEMA_VERSION = 1


class SchemaVersionError(GraphError):
    """File was written with a schema this reader does not support."""

    def __init__(self, path: str, found: object, supported: int):
        self.found = found
        self.supported = supported
        super().__init__(
            f"{path}: file has schema version {found!r}, "
            f"reader supports version {supported}"
        )


class RecordFormatError(GraphError, ValueError):
    """A line of an input file could not be parsed; carries file and line
    position.  Also a ValueError, since the line holds a bad value."""

    def __init__(self, path: str, line: int, problem: str):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {problem}")


def _dump(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


_decode = json.JSONDecoder().raw_decode


def _records(path: str, fh: TextIO) -> Iterator[tuple[int, dict]]:
    # One decoder call per line; the checks `json.loads` would add around it
    # (leading BOM, trailing data) are made here, on stripped lines.
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            record, end = _decode(line)
        except json.JSONDecodeError as exc:
            problem = exc.msg
            if line.startswith("\ufeff"):
                problem = "Unexpected UTF-8 BOM (decode using utf-8-sig)"
            raise RecordFormatError(path, lineno, f"invalid JSON: {problem}") from None
        if end != len(line):
            raise RecordFormatError(path, lineno, "invalid JSON: Extra data")
        if not isinstance(record, dict) or "kind" not in record:
            raise RecordFormatError(path, lineno, "record must be an object with a 'kind'")
        yield lineno, record


def _signature_lookup(
    known: dict[str, MethodSignature],
) -> Callable[[str], MethodSignature]:
    """Text -> MethodSignature, parsing each distinct text once.

    `known` maps canonical texts to the objects to share, and gains every
    text looked up; all spellings of one signature, such as ``f(,int):V``
    and ``f(int):V``, resolve to one object.
    """
    def signature(text: str) -> MethodSignature:
        found = known.get(text)
        if found is None:
            parsed = MethodSignature.from_text(text)
            found = known[text] = known.setdefault(parsed.to_text(), parsed)
        return found

    return signature


def header_int(path: str, lineno: int, body: str) -> int:
    """Value of a ``# key: <int>`` comment header in the line-oriented text
    files (exclusion lists, vulnerability assignments); `body` is the text
    after the ``#``.  A non-integer value is a RecordFormatError."""
    try:
        return int(body.split(":", 1)[1].strip())
    except ValueError:
        raise RecordFormatError(
            path, lineno, f"header {body!r} needs an integer value"
        ) from None


def _check_header(path: str, lineno: int, record: dict, content: str) -> None:
    if record.get("kind") != "header":
        raise RecordFormatError(path, lineno, "first record must be the header")
    if record.get("schema") != SCHEMA_VERSION:
        raise SchemaVersionError(path, record.get("schema"), SCHEMA_VERSION)
    if record.get("content") != content:
        raise RecordFormatError(
            path,
            lineno,
            f"expected a {content} file, found content {record.get('content')!r}",
        )


def save_hierarchy(h: TypeHierarchy, path: str) -> None:
    """Write a hierarchy as header plus one type record per line."""
    projects = sorted({t.project_id for t in h.types.values()})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dump({
            "kind": "header",
            "schema": SCHEMA_VERSION,
            "content": "hierarchy",
            "core_project": h.core_project_id,
            "projects": projects,
        }) + "\n")
        for tid in h.sorted_ids():
            t = h.types[tid]
            fh.write(_dump({
                "kind": "type",
                "id": t.type_id,
                "fq": t.fq_name,
                "parents": list(t.parents),
                "declares": sorted(sig.to_text() for sig in t.declared),
                "project": t.project_id,
                "package": t.package_name,
                "core": t.is_core_lib,
            }) + "\n")


def load_hierarchy(path: str) -> TypeHierarchy:
    """Read and validate a hierarchy file.

    Raises SchemaVersionError, RecordFormatError (with position), or
    HierarchyValidationError when the parsed hierarchy breaks its rules.
    """
    types: dict[str, TypeNode] = {}
    core_project = "core"
    saw_header = False
    signature = _signature_lookup({})
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, record in _records(path, fh):
            if not saw_header:
                _check_header(path, lineno, record, "hierarchy")
                core_project = record.get("core_project", "core")
                saw_header = True
                continue
            if record["kind"] != "type":
                raise RecordFormatError(
                    path, lineno, f"unexpected record kind {record['kind']!r}"
                )
            try:
                tid = record["id"]
                node = TypeNode(
                    type_id=tid,
                    fq_name=record["fq"],
                    parents=tuple(record["parents"]),
                    declared=frozenset(map(signature, record["declares"])),
                    project_id=record["project"],
                    package_name=record.get("package", ""),
                    is_core_lib=bool(record.get("core", False)),
                )
            except KeyError as exc:
                raise RecordFormatError(
                    path, lineno, f"type record missing field {exc.args[0]!r}"
                ) from None
            except ValueError as exc:
                raise RecordFormatError(path, lineno, str(exc)) from None
            if tid in types:
                raise RecordFormatError(path, lineno, f"duplicate type id {tid!r}")
            types[tid] = node
    if not saw_header:
        raise RecordFormatError(path, 1, "empty file: missing header record")
    h = TypeHierarchy(types=types, core_project_id=core_project)
    violations = validate_hierarchy(h)
    if violations:
        raise HierarchyValidationError(violations)
    return h


def save_call_graph(cg: CallGraph, path: str) -> None:
    """Write a call graph as header, node records, then edge records."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dump({
            "kind": "header",
            "schema": SCHEMA_VERSION,
            "content": "callgraph",
        }) + "\n")
        for node in cg.sorted_nodes():
            fh.write(_dump({"kind": "node", "id": node.uid}) + "\n")
        for e in cg.edges:
            fh.write(_dump({
                "kind": "edge",
                "src": e.source.uid,
                "dst": e.target.uid,
                "recv": e.receiver_type,
            }) + "\n")


def load_call_graph(path: str, h: TypeHierarchy) -> CallGraph:
    """Read a call graph file and validate it against its hierarchy.

    Edge endpoints become nodes even without an explicit node record;
    explicit node records exist to carry isolated methods.  Node records
    and edge endpoints share one MethodNode per method, and nodes share the
    hierarchy's MethodSignature objects, so the graph's dicts and sets and
    `TypeNode.declares` find keys by identity; each uid text is parsed once.
    """
    nodes: dict[MethodNode, MethodNode] = {}
    by_uid: dict[str, MethodNode] = {}
    edges: list[CallEdge] = []
    saw_header = False
    declared = set().union(*(t.declared for t in h.types.values()))
    signature = _signature_lookup({s.to_text(): s for s in declared})

    def node(uid: str) -> MethodNode:
        found = by_uid.get(uid)
        if found is None:
            # non-canonical spellings such as ``f(,int)`` parse to one node
            parsed = MethodNode.from_uid(uid, signature)
            found = by_uid[uid] = nodes.setdefault(parsed, parsed)
        return found

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, record in _records(path, fh):
            if not saw_header:
                _check_header(path, lineno, record, "callgraph")
                saw_header = True
                continue
            if record["kind"] not in ("node", "edge"):
                raise RecordFormatError(
                    path, lineno, f"unexpected record kind {record['kind']!r}"
                )
            try:
                if record["kind"] == "node":
                    node(record["id"])
                else:
                    source, target = node(record["src"]), node(record["dst"])
                    edges.append(CallEdge(source, target, record["recv"]))
            except KeyError as exc:
                raise RecordFormatError(
                    path, lineno, f"record missing field {exc.args[0]!r}"
                ) from None
            except ValueError as exc:
                raise RecordFormatError(path, lineno, str(exc)) from None
    if not saw_header:
        raise RecordFormatError(path, 1, "empty file: missing header record")
    cg = build_call_graph(nodes.values(), edges)
    violations = validate_call_graph(cg, h)
    if violations:
        raise HierarchyValidationError(violations)
    return cg


def apply_core_prefixes(h: TypeHierarchy, prefixes: list[str]) -> TypeHierarchy:
    """Re-flag types under any of the given dotted name prefixes as core library.

    A type matches when its fully-qualified name or package is a prefix or
    lies inside it: ``com.foo`` matches ``com.foo`` and ``com.foo.Bar`` but
    not ``com.foobar``; a trailing dot on a prefix is ignored.  Matched types
    move into the hierarchy's core project so the core-project validation
    rule keeps holding.
    """
    if not prefixes:
        return h
    exact = {p.rstrip(".") for p in prefixes}
    inside = tuple(p + "." for p in exact)
    types = dict(h.types)
    for tid, t in types.items():
        hit = any(
            name and (name in exact or name.startswith(inside))
            for name in (t.fq_name, t.package_name)
        )
        if hit and not t.is_core_lib:
            types[tid] = replace(t, project_id=h.core_project_id, is_core_lib=True)
    return TypeHierarchy(types=types, core_project_id=h.core_project_id)
