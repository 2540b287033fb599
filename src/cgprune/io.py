"""Interchange files: every input format is read, checked and positioned here.

Two file families, each with one reader and one per-record error boundary:

- Line-delimited JSON (hierarchies, call graphs): one object per line.  A
  header record comes first (``kind``, ``schema``, which must be the JSON
  integer 1, ``content``; hierarchies add ``core_project`` and
  ``projects``); a file without one is an "empty file" error.  After it, a
  line as a writer emits it (the ``type`` line of `save_hierarchy`, the
  ``node`` and ``edge`` lines of `save_call_graph`: the writer's key
  order, every string printable ASCII without ``"`` or ``\\``) is read by
  one `fullmatch` of its kind's pattern, whose groups are the record's
  fields.  Any other line is decoded as `json.loads` decodes it; a valid
  one loads to the same result, and a bad one fails with the same error, on
  either path.
- Commented text (exclusion lists, vulnerability assignments): ``# key:
  <int>`` lines whose key the file kind knows are headers, other ``#``
  lines are comments, and every other line is one record.

Blank lines are skipped.  Any fault on a line (bad JSON, a byte-order mark,
trailing data, a missing field, a field of the wrong JSON type, a bad value)
raises RecordFormatError prefixed ``path:line:``, and the CLI exits 3, as it
does on a wrong schema version (SchemaVersionError) and on a loaded whole
that breaks its rules (HierarchyValidationError); these two name the file.
Readers hold one line at a time; writers emit canonical, key-sorted
records, so files are byte-stable.

`checked` and `checked_list` hold the one rule for every value from outside,
here, in the pipeline config and in `GenParams`: it is exactly a JSON string,
boolean, integer, number or object (a boolean is never a number) and lies in
its range, and a string encodes as UTF-8 (no lone surrogate from a JSON
escape), or the error reads ``<what> must <rule>, got <value!r>``.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

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


def _check_utf8(path: str, lineno: int, line: str) -> None:
    """Readers decode with ``surrogateescape``, so a byte that is not UTF-8
    is a lone surrogate, which no longer encodes; they check every line
    that the pattern path does not take."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        byte = ord(line[exc.start]) - 0xDC00  # surrogateescape's offset
        raise RecordFormatError(path, lineno, f"invalid UTF-8: byte 0x{byte:02x}") from None


# (record kind, `fullmatch` of the lines a writer emits for it, handler of
# the match groups)
_LinePattern = tuple[str, Callable[[str], re.Match | None], Callable[..., None]]


def _read_jsonl(
    path: str,
    content: str,
    handlers: Mapping[str, Callable[[dict], None]],
    patterns: Sequence[_LinePattern],
) -> None:
    """Hand each record of a line-delimited JSON file to its kind's handler.

    The first record must be a header of this schema and `content`; it goes
    to ``handlers["header"]``.  A handler's KeyError is a missing field, and
    its ValueError, TypeError or AttributeError a bad value.

    After the header, each line as read, newline included, goes first to
    `patterns`.  Their strings are JSON strings whose text is their value,
    so the groups are the record's fields; a line that no pattern matches
    is stripped and decoded.
    """
    saw_header = False
    fast: Sequence[_LinePattern] = ()  # the patterns, once the header is read
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            for kind, match, handler in fast:
                fields = match(raw)
                if fields is not None:
                    args = fields.groups()
                    break
            else:
                line = raw.strip()
                if not line:
                    continue
                _check_utf8(path, lineno, line)
                kind, handler, args = _decoded(path, lineno, line, content, handlers, saw_header)
                saw_header = True
                fast = patterns
            try:
                handler(*args)
            except KeyError as exc:
                raise RecordFormatError(
                    path, lineno, f"{kind} record missing field {exc.args[0]!r}"
                ) from None
            except (ValueError, TypeError, AttributeError) as exc:
                raise RecordFormatError(path, lineno, str(exc)) from None
    if not saw_header:
        raise RecordFormatError(path, 1, "empty file: missing header record")


def _decoded(
    path: str, lineno: int, line: str, content: str,
    handlers: Mapping[str, Callable[[dict], None]], saw_header: bool,
) -> tuple[str, Callable[[dict], None], tuple[dict]]:
    """(kind, handler, (record,)) for a line that `_read_jsonl` decodes,
    after the checks on its kind and, for the header, on its fields."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise RecordFormatError(path, lineno, f"invalid JSON: {exc.msg}") from None
    kind = record.get("kind") if type(record) is dict else None
    if type(kind) is not str:
        raise RecordFormatError(path, lineno, "record must be an object with a 'kind'")
    if saw_header:
        if kind == "header" or kind not in handlers:
            raise RecordFormatError(path, lineno, f"unexpected record kind {kind!r}")
    elif kind != "header":
        raise RecordFormatError(path, lineno, "first record must be the header")
    elif type(schema := record.get("schema")) is not int or schema != SCHEMA_VERSION:
        # only the JSON integer 1: `true` and `1.0` equal 1 in Python
        raise SchemaVersionError(path, schema, SCHEMA_VERSION)
    elif record.get("content") != content:
        raise RecordFormatError(path, lineno, f"expected a {content} file, "
                                f"found content {record.get('content')!r}")
    return kind, handlers[kind], (record,)


def _write_jsonl(path: str, content: str, header: dict, lines: Iterable[str]) -> None:
    """Write the header record with `header`'s extra fields, then `lines`:
    each one record as `_dump` writes it, plus a newline."""
    header = {"kind": "header", "schema": SCHEMA_VERSION, "content": content, **header}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dump(header) + "\n")
        fh.writelines(lines)


_KINDS = {
    str: "a string", bool: "a boolean", int: "an integer", float: "a number", dict: "an object",
}


def checked(what: str, value: T, kind: type, low: float | None = None,
            high: float | None = None) -> T:
    """`value`, if it is exactly a JSON `kind` (a `float` may be written as
    an integer) in [low, high]; else a TypeError for the kind or a ValueError
    for the range.  A lone `low` is 0 (non-negative) or, for integers, 1
    (positive); NaN lies in no range.  A string must encode as UTF-8: a
    JSON escape such as ``\\ud800`` decodes to a lone surrogate, which no
    writer could write out again."""
    if type(value) is not kind and not (kind is float and type(value) is int):
        raise TypeError(f"{what} must be {_KINDS[kind]}, got {value!r}")
    if kind is str:
        _check_text(what, value)
    if low is not None and not low <= value or high is not None and not value <= high:
        rule = f"in [{low}, {high}]" if high is not None else "positive" if low else "non-negative"
        raise ValueError(f"{what} must be {rule}, got {value!r}")
    return value


def checked_list(what: str, value: object, kind: type) -> tuple:
    """`value` as a tuple, if it is a JSON array (or a tuple) of exactly
    `kind` items; else a TypeError that names the kind: "a list of strings".
    Strings must encode as UTF-8, as in `checked`."""
    if type(value) not in (list, tuple) or any(type(v) is not kind for v in value):
        raise TypeError(f"{what} must be a list of {_KINDS[kind].split()[1]}s, got {value!r}")
    if kind is str:
        for v in value:
            _check_text(what, v)
    return tuple(value)


def _check_text(what: str, value: str) -> None:
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"{what} must encode as UTF-8, got {value!r}") from None


def _typed(record: dict, key: str, kind: type, default: object = ...) -> object:
    """`record[key]`, or `default` (if given) when the key is absent, if it
    is exactly a `kind` (a list: of strings)."""
    value = record[key] if default is ... else record.get(key, default)
    if kind is list:
        return checked_list(repr(key), value, str)
    return checked(repr(key), value, kind)


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


# The loaders' patterns for the lines the writers emit.  A string's text is
# its value when it is printable ASCII without '"' or '\': the group of
# `_STRING` is the string, and the group of `_STRINGS` the list's items
# between its outer quotes, joined by '","' (None for an empty list).  A
# line pattern also takes the newline that ends the line as read.
_CHARS = r'[ !#-\[\]-~]*'
_STRING = f'"({_CHARS})"'
_STRINGS = f'\\[("{_CHARS}"(?:,"{_CHARS}")*)?\\]'


def _strings(group: str | None) -> tuple[str, ...]:
    """The items of a list that `_STRINGS` matched."""
    return () if group is None else tuple(group[1:-1].split('","'))


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


# a type line as `save_hierarchy` writes it; groups in field order
_TYPE_LINE = re.compile(
    f'\\{{"core":(true|false),"declares":{_STRINGS},"fq":{_STRING},"id":{_STRING},'
    f'"kind":"type","package":{_STRING},"parents":{_STRINGS},"project":{_STRING}\\}}\\n?'
).fullmatch


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

    def add(node: TypeNode) -> None:
        if node.type_id in types:
            raise ValueError(f"duplicate type id {node.type_id!r}")
        types[node.type_id] = node

    def type_record(record: dict) -> None:
        add(TypeNode(
            type_id=_typed(record, "id", str),
            fq_name=_typed(record, "fq", str),
            parents=tuple(_typed(record, "parents", list)),
            declared=frozenset(map(signature, _typed(record, "declares", list))),
            project_id=_typed(record, "project", str),
            package_name=_typed(record, "package", str, ""),
            is_core_lib=_typed(record, "core", bool, False),
        ))

    def type_line(core, declares, fq, tid, package, parents, project) -> None:
        add(TypeNode(
            tid, fq, _strings(parents), frozenset(map(signature, _strings(declares))),
            project, package, core == "true",
        ))

    _read_jsonl(path, "hierarchy", {"header": header, "type": type_record},
                [("type", _TYPE_LINE, type_line)])
    h = TypeHierarchy(types=types, core_project_id=core_project)
    violations = validate_hierarchy(h)
    if violations:
        raise HierarchyValidationError(violations, path)
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


# node and edge lines as `save_call_graph` writes them; groups in field order
_NODE_LINE = re.compile(f'\\{{"id":{_STRING},"kind":"node"\\}}\\n?').fullmatch
_EDGE_LINE = re.compile(
    f'\\{{"dst":{_STRING},"kind":"edge","recv":{_STRING},"src":{_STRING}\\}}\\n?'
).fullmatch


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
        if type(uid) is not str:
            checked("method node id", uid, str)
        found = by_uid.get(uid)
        if found is None:
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
    }, [
        # a matched uid is a string: a known one needs only the dict lookup;
        # `tuple.__new__` skips the generated `CallEdge.__new__` frame, which
        # checks nothing
        ("edge", _EDGE_LINE, lambda dst, recv, src: edges.append(tuple.__new__(CallEdge, (
            by_uid.get(src) or node(src), by_uid.get(dst) or node(dst), recv
        )))),
        ("node", _NODE_LINE, node),
    ])
    # `node` registered every endpoint, so the node set is closed
    cg = build_call_graph(nodes, edges, closed=True)
    violations = validate_call_graph(cg, h)
    if violations:
        raise HierarchyValidationError(violations, path)
    return cg


def read_text_records(
    path: str, header_keys: Mapping[str, int | None], parse: Callable[[str], T]
) -> tuple[dict[str, int], list[T]]:
    """The ``# key: <int>`` headers with a key in `header_keys` (the last
    one wins), each at least the key's value there (None: any integer), and
    the lines of a commented text file, each stripped and mapped through
    `parse`, whose ValueError names the line's problem."""
    headers: dict[str, int] = {}
    records: list[T] = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            _check_utf8(path, lineno, line)
            try:
                if line.startswith("#"):
                    body = line.lstrip("#").strip()
                    key, sep, value = body.partition(":")
                    if sep and key in header_keys:
                        try:
                            number = int(value)
                        except ValueError:
                            raise ValueError(f"header {body!r} needs an integer value") from None
                        headers[key] = checked(f"header {key!r}", number, int, header_keys[key])
                else:
                    records.append(parse(line))
            except ValueError as exc:
                raise RecordFormatError(path, lineno, str(exc)) from None
    return headers, records


def write_text_records(path: str, headers: Mapping[str, int], lines: Iterable[str]) -> None:
    """Write ``# key: value`` headers, then one line per record."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {key}: {value}\n" for key, value in headers.items())
        fh.writelines(line + "\n" for line in lines)


def apply_core_prefixes(h: TypeHierarchy, prefixes: Sequence[str]) -> TypeHierarchy:
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
            types[tid] = t._replace(project_id=h.core_project_id, is_core_lib=True)
    return TypeHierarchy(types=types, core_project_id=h.core_project_id)
