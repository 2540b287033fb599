"""Interchange files: every input format is read, checked and positioned here.

Two file families, each with one reader and one per-record error boundary:

- Line-delimited JSON (hierarchies, call graphs): one object per line,
  decoded by one `raw_decode` call.  A header record comes first (``kind``,
  ``schema``, ``content``; hierarchies add ``core_project`` and
  ``projects``); a file without one is an "empty file" error.
- Commented text (exclusion lists, vulnerability assignments): ``# key:
  <int>`` lines whose key the file kind knows are headers, other ``#``
  lines are comments, and every other line is one record.

Blank lines are skipped.  Any fault on a line (bad JSON, a byte-order mark,
trailing data, a missing field, a field of the wrong JSON type, a bad value)
raises RecordFormatError prefixed ``path:line:``, and the CLI exits 3, as it
does on a wrong schema version (SchemaVersionError) and on a loaded whole
that breaks its rules (HierarchyValidationError).  Readers hold one line at
a time; writers emit canonical, key-sorted records, so files are byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import replace
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Mapping, TypeVar

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

T = TypeVar("T")


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


def _check_utf8(path: str, lineno: int, line: str) -> None:
    """Readers decode with ``surrogateescape``, so a byte that is not UTF-8
    is a lone surrogate, which no longer encodes; they check non-ASCII lines."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        byte = ord(line[exc.start]) - 0xDC00  # surrogateescape's offset
        raise RecordFormatError(path, lineno, f"invalid UTF-8: byte 0x{byte:02x}") from None


def _read_jsonl(
    path: str, content: str, handlers: Mapping[str, Callable[[dict], None]]
) -> None:
    """Hand each record of a line-delimited JSON file to its kind's handler.

    The first record must be a header of this schema and `content`; it goes
    to ``handlers["header"]``.  A handler's KeyError is a missing field, and
    its ValueError, TypeError or AttributeError a bad value.
    """
    saw_header = False
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if not line.isascii():
                _check_utf8(path, lineno, line)
            # one decoder call per line; the checks `json.loads` would add
            # around it (leading BOM, trailing data) are made here
            try:
                record, end = _decode(line)
            except json.JSONDecodeError as exc:
                problem = exc.msg
                if line.startswith("\ufeff"):
                    problem = "Unexpected UTF-8 BOM (decode using utf-8-sig)"
                raise RecordFormatError(path, lineno, f"invalid JSON: {problem}") from None
            if end != len(line):
                raise RecordFormatError(path, lineno, "invalid JSON: Extra data")
            kind = record.get("kind") if type(record) is dict else None
            if type(kind) is not str:
                raise RecordFormatError(path, lineno, "record must be an object with a 'kind'")
            if saw_header:
                if kind == "header" or kind not in handlers:
                    raise RecordFormatError(path, lineno, f"unexpected record kind {kind!r}")
            elif kind != "header":
                raise RecordFormatError(path, lineno, "first record must be the header")
            elif record.get("schema") != SCHEMA_VERSION:
                raise SchemaVersionError(path, record.get("schema"), SCHEMA_VERSION)
            elif record.get("content") != content:
                raise RecordFormatError(path, lineno, f"expected a {content} file, "
                                        f"found content {record.get('content')!r}")
            saw_header = True
            try:
                handlers[kind](record)
            except KeyError as exc:
                raise RecordFormatError(
                    path, lineno, f"{kind} record missing field {exc.args[0]!r}"
                ) from None
            except (ValueError, TypeError, AttributeError) as exc:
                raise RecordFormatError(path, lineno, str(exc)) from None
    if not saw_header:
        raise RecordFormatError(path, 1, "empty file: missing header record")


def _write_jsonl(path: str, content: str, header: dict, lines: Iterable[str]) -> None:
    """Write the header record with `header`'s extra fields, then `lines`:
    each one record as `_dump` writes it, plus a newline."""
    header = {"kind": "header", "schema": SCHEMA_VERSION, "content": content, **header}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dump(header) + "\n")
        fh.writelines(lines)


_TYPE_NAMES = {str: "a string", bool: "a boolean", list: "a list of strings"}


def _typed(record: dict, key: str, kind: type, default: object = ...) -> object:
    """`record[key]`, or `default` (if given) when the key is absent; a value
    that is not exactly a `kind` (a list: of strings) is a TypeError."""
    value = record[key] if default is ... else record.get(key, default)
    if type(value) is not kind or kind is list and any(type(v) is not str for v in value):
        raise TypeError(f"{key!r} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


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


def _json_strings(values: Iterable[str]) -> str:
    """A list of strings as `_dump` writes it."""
    return "[" + ",".join(map(encode_basestring_ascii, values)) + "]"


def save_hierarchy(h: TypeHierarchy, path: str) -> None:
    """Write a hierarchy as header plus one type record per line.

    Each line is what `_dump` writes for the type's record, formatted from
    a template with the fields in sorted order.
    """
    projects = sorted({t.project_id for t in h.types.values()})
    header = {"core_project": h.core_project_id, "projects": projects}
    _write_jsonl(path, "hierarchy", header, (
        f'{{"core":{"true" if t.is_core_lib else "false"},'
        f'"declares":{_json_strings(sorted(sig.to_text() for sig in t.declared))},'
        f'"fq":{encode_basestring_ascii(t.fq_name)},'
        f'"id":{encode_basestring_ascii(t.type_id)},'
        f'"kind":"type","package":{encode_basestring_ascii(t.package_name)},'
        f'"parents":{_json_strings(t.parents)},'
        f'"project":{encode_basestring_ascii(t.project_id)}}}\n'
        for t in map(h.types.__getitem__, h.sorted_ids())
    ))


def load_hierarchy(path: str) -> TypeHierarchy:
    """Read and validate a hierarchy file.

    Raises SchemaVersionError, RecordFormatError (with position), or
    HierarchyValidationError when the parsed hierarchy breaks its rules.
    """
    types: dict[str, TypeNode] = {}
    core_project = "core"
    signature = _signature_lookup({})

    def header(record: dict) -> None:
        nonlocal core_project
        core_project = _typed(record, "core_project", str, "core")

    def type_record(record: dict) -> None:
        tid = _typed(record, "id", str)
        node = TypeNode(
            type_id=tid,
            fq_name=_typed(record, "fq", str),
            parents=tuple(_typed(record, "parents", list)),
            declared=frozenset(map(signature, _typed(record, "declares", list))),
            project_id=_typed(record, "project", str),
            package_name=_typed(record, "package", str, ""),
            is_core_lib=_typed(record, "core", bool, False),
        )
        if tid in types:
            raise ValueError(f"duplicate type id {tid!r}")
        types[tid] = node

    _read_jsonl(path, "hierarchy", {"header": header, "type": type_record})
    h = TypeHierarchy(types=types, core_project_id=core_project)
    violations = validate_hierarchy(h)
    if violations:
        raise HierarchyValidationError(violations)
    return h


def save_call_graph(cg: CallGraph, path: str) -> None:
    """Write a call graph as header, node records, then edge records.

    The lines are what `_dump` writes for each record; each uid and each
    receiver type is escaped once, not once per record that names it.
    """
    uids = {node: encode_basestring_ascii(node.uid) for node in cg.sorted_nodes()}
    receivers = {r: encode_basestring_ascii(r) for r in {e.receiver_type for e in cg.edges}}
    _write_jsonl(path, "callgraph", {}, chain(
        (f'{{"id":{uid},"kind":"node"}}\n' for uid in uids.values()),
        (
            f'{{"dst":{uids[e.target]},"kind":"edge","recv":{receivers[e.receiver_type]},'
            f'"src":{uids[e.source]}}}\n'
            for e in cg.edges
        ),
    ))


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
    declared = set().union(*(t.declared for t in h.types.values()))
    signature = _signature_lookup({s.to_text(): s for s in declared})

    def node(uid: str) -> MethodNode:
        found = by_uid.get(uid)
        if found is None:
            if type(uid) is not str:
                raise TypeError(f"method node id must be a string, got {uid!r}")
            # non-canonical spellings such as ``f(,int)`` parse to one node
            parsed = MethodNode.from_uid(uid, signature)
            found = by_uid[uid] = nodes.setdefault(parsed, parsed)
        return found

    _read_jsonl(path, "callgraph", {
        "header": lambda record: None,
        "node": lambda record: node(record["id"]),
        "edge": lambda record: edges.append(CallEdge(
            node(record["src"]), node(record["dst"]), _typed(record, "recv", str)
        )),
    })
    cg = build_call_graph(nodes.values(), edges)
    violations = validate_call_graph(cg, h)
    if violations:
        raise HierarchyValidationError(violations)
    return cg


def read_text_records(
    path: str, header_keys: tuple[str, ...], parse: Callable[[str], T]
) -> tuple[dict[str, int], list[T]]:
    """The ``# key: <int>`` headers with a key in `header_keys` (the last
    one wins) and the lines of a commented text file, each stripped and
    mapped through `parse`, whose ValueError names the line's problem."""
    headers: dict[str, int] = {}
    records: list[T] = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if not line.isascii():
                _check_utf8(path, lineno, line)
            try:
                if line.startswith("#"):
                    body = line.lstrip("#").strip()
                    key, sep, value = body.partition(":")
                    if sep and key in header_keys:
                        headers[key] = int(value)
                else:
                    records.append(parse(line))
            except ValueError as exc:
                is_header = line[0] == "#"
                problem = f"header {body!r} needs an integer value" if is_header else str(exc)
                raise RecordFormatError(path, lineno, problem) from None
    return headers, records


def write_text_records(path: str, headers: Mapping[str, int], lines: Iterable[str]) -> None:
    """Write ``# key: value`` headers, then one line per record."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {key}: {value}\n" for key, value in headers.items())
        fh.writelines(line + "\n" for line in lines)


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
