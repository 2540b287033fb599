"""Interchange files: round trips, version checks, positioned diagnostics."""

import contextlib
import io
import json
import os
import re
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cgprune import (
    CallEdge,
    GenParams,
    HierarchyValidationError,
    MethodNode,
    RecordFormatError,
    SchemaVersionError,
    TypeHierarchy,
    TypeNode,
    VulnerabilityAssignment,
    apply_core_prefixes,
    build_call_graph,
    build_exclusion_list,
    find_origins,
    generate_call_graph_cha,
    generate_hierarchy,
    load_call_graph,
    load_hierarchy,
    origin_edge_frequencies,
    save_assignment,
    save_call_graph,
    save_exclusion_list,
    save_hierarchy,
    validate_hierarchy,
)
from cgprune.cli import main
from cgprune.io import SCHEMA_VERSION
from cgprune.model import MethodSignature

from conftest import make_f1_callgraph, make_f1_hierarchy, sig


class TestHierarchyRoundTrip:
    def test_f1_round_trip_is_identity(self, f1, tmp_path):
        path = tmp_path / "h.jsonl"
        save_hierarchy(f1.h, str(path))
        assert load_hierarchy(str(path)) == f1.h

    def test_save_is_byte_stable(self, f1, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_hierarchy(f1.h, str(a))
        save_hierarchy(f1.h, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_header_carries_schema_and_projects(self, f1, tmp_path):
        path = tmp_path / "h.jsonl"
        save_hierarchy(f1.h, str(path))
        header = json.loads(path.read_text().splitlines()[0])
        assert header["schema"] == SCHEMA_VERSION
        assert header["content"] == "hierarchy"
        assert header["projects"] == ["app", "jre", "lib"]
        assert header["core_project"] == "jre"


class TestCallGraphRoundTrip:
    def test_f1_round_trip_is_identity(self, f1, tmp_path):
        path = tmp_path / "cg.jsonl"
        save_call_graph(f1.cg, str(path))
        loaded = load_call_graph(str(path), f1.h)
        assert loaded.nodes == f1.cg.nodes
        assert loaded.edges == f1.cg.edges

    def test_isolated_nodes_survive(self, f1, tmp_path):
        # m(T1,hasNext) has no edges and must still round-trip
        path = tmp_path / "cg.jsonl"
        save_call_graph(f1.cg, str(path))
        from conftest import m

        assert m("T1", "hasNext") in load_call_graph(str(path), f1.h).nodes


def _jsonl_oracle(content: str, header: dict, records: list[dict]) -> str:
    """A file as one `json.dumps(record, sort_keys=True)` per line, the
    reference for the writers."""
    header = {"kind": "header", "schema": SCHEMA_VERSION, "content": content, **header}
    return "".join(
        json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in [header, *records]
    )


def _hierarchy_oracle(h: TypeHierarchy) -> str:
    return _jsonl_oracle("hierarchy", {
        "core_project": h.core_project_id,
        "projects": sorted({t.project_id for t in h.types.values()}),
    }, [
        {
            "kind": "type", "id": t.type_id, "fq": t.fq_name, "parents": list(t.parents),
            "declares": sorted(s.to_text() for s in t.declared), "project": t.project_id,
            "package": t.package_name, "core": t.is_core_lib,
        }
        for t in map(h.types.__getitem__, h.sorted_ids())
    ])


def _call_graph_oracle(cg) -> str:
    return _jsonl_oracle("callgraph", {}, [
        *({"kind": "node", "id": n.uid} for n in cg.sorted_nodes()),
        *({"kind": "edge", "src": e.source.uid, "dst": e.target.uid, "recv": e.receiver_type}
          for e in cg.edges),
    ])


def _non_ascii_graph():
    """A hierarchy and call graph with non-ASCII text, quotes, backslashes
    and control characters in every name the model takes as free text."""
    odd = 'ü"\\\x01\u2028\U0001f600'
    signatures = [
        MethodSignature(f"grö{odd}ße", ("int", f"Ärger{odd}"), f"Résumé{odd}"),
        MethodSignature("next"),
    ]
    types = {
        f"Tø{odd}": TypeNode(
            type_id=f"Tø{odd}", fq_name=f"jävä.lang.Öbject{odd}", parents=(),
            declared=frozenset(signatures), project_id=f"jré{odd}",
            package_name=f"jävä.lang{odd}", is_core_lib=True,
        ),
        f"Ťyp{odd}": TypeNode(
            type_id=f"Ťyp{odd}", fq_name=f"cöm.app.Ťyp{odd}", parents=(f"Tø{odd}",),
            declared=frozenset(signatures[:1]), project_id=f"äpp{odd}",
            package_name="",
        ),
    }
    h = TypeHierarchy(types=types, core_project_id=f"jré{odd}")
    root, sub = (MethodNode(tid, signatures[0]) for tid in types)
    cg = build_call_graph(
        [MethodNode(f"Tø{odd}", signatures[1])],
        [CallEdge(sub, root, f"Tø{odd}"), CallEdge(root, sub, f"Ťyp{odd}")],
    )
    return h, cg


def _generated_graph():
    params = GenParams(type_count=60, seed=4)
    h = generate_hierarchy(params)
    return h, generate_call_graph_cha(h, params)


@pytest.mark.parametrize("graph", [
    pytest.param(lambda: (make_f1_hierarchy(), make_f1_callgraph()), id="f1"),
    pytest.param(_generated_graph, id="generated"),
    pytest.param(_non_ascii_graph, id="non-ascii"),
])
def test_writers_match_json_dumps(graph, tmp_path):
    h, cg = graph()
    hp, cp = str(tmp_path / "h.jsonl"), str(tmp_path / "cg.jsonl")
    save_hierarchy(h, hp)
    save_call_graph(cg, cp)
    assert (tmp_path / "h.jsonl").read_text() == _hierarchy_oracle(h)
    assert (tmp_path / "cg.jsonl").read_text() == _call_graph_oracle(cg)
    # the model accepts every name it was given: the files load back
    loaded = load_hierarchy(hp)
    assert loaded == h
    assert load_call_graph(cp, loaded).edges == cg.edges


class TestNodeSharing:
    def test_edge_endpoints_are_the_node_objects(self, f1, tmp_path):
        path = tmp_path / "cg.jsonl"
        save_call_graph(f1.cg, str(path))
        loaded = load_call_graph(str(path), f1.h)
        canonical = {n: n for n in loaded.nodes}
        for e in loaded.edges:
            assert e.source is canonical[e.source]
            assert e.target is canonical[e.target]

    def test_spellings_of_one_method_share_one_node(self, f1, tmp_path):
        # an empty parameter list may be spelled "()" or "(,)"
        path = tmp_path / "cg.jsonl"
        path.write_text("\n".join([
            '{"kind":"header","schema":1,"content":"callgraph"}',
            '{"kind":"node","id":"T4::run():void"}',
            '{"kind":"edge","src":"T4::run(,):void","dst":"T4::use():void",'
            '"recv":"T4"}',
        ]) + "\n")
        loaded = load_call_graph(str(path), f1.h)
        canonical = {n: n for n in loaded.nodes}
        assert len(canonical) == 2
        (edge,) = loaded.edges
        assert edge.source is canonical[edge.source]
        assert edge.target is canonical[edge.target]


_CG_HEADER = '{"kind":"header","schema":1,"content":"callgraph"}'


class TestSignatureSharing:
    """Each signature text is parsed once per load, and call-graph nodes
    carry the hierarchy's signature objects."""

    def _declared(self, h):
        return [s for t in h.types.values() for s in t.declared]

    def test_hierarchy_types_share_one_object_per_signature(self, f1, tmp_path):
        path = tmp_path / "h.jsonl"
        save_hierarchy(f1.h, str(path))
        declared = self._declared(load_hierarchy(str(path)))
        assert len(set(declared)) < len(declared)  # f1 overrides signatures
        assert len({id(s) for s in declared}) == len(set(declared))

    def test_node_signatures_are_the_hierarchy_objects(self, f1, tmp_path):
        hp, cp = tmp_path / "h.jsonl", tmp_path / "cg.jsonl"
        save_hierarchy(f1.h, str(hp))
        save_call_graph(f1.cg, str(cp))
        h = load_hierarchy(str(hp))
        loaded = load_call_graph(str(cp), h)
        for n in loaded.nodes:
            declared = {s: s for s in h.types[n.defining_type].declared}
            assert n.signature is declared[n.signature]

    def test_non_canonical_spelling_gets_the_hierarchy_object(self, f1, tmp_path):
        path = tmp_path / "cg.jsonl"
        path.write_text("\n".join([
            '{"kind":"header","schema":1,"content":"callgraph"}',
            '{"kind":"edge","src":"T4::run(,):void","dst":"T4::use():void",'
            '"recv":"T4"}',
        ]) + "\n")
        hp = tmp_path / "h.jsonl"
        save_hierarchy(f1.h, str(hp))
        h = load_hierarchy(str(hp))
        (edge,) = load_call_graph(str(path), h).edges
        declared = {s: s for s in h.types["T4"].declared}
        assert edge.source.signature is declared[sig("run")]
        assert edge.target.signature is declared[sig("use")]


class TestSchemaAndFormatErrors:
    def _write(self, tmp_path, lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_unknown_schema_version_names_both(self, f1, tmp_path):
        path = self._write(tmp_path, [
            '{"kind":"header","schema":99,"content":"hierarchy"}',
        ])
        with pytest.raises(SchemaVersionError) as exc:
            load_hierarchy(path)
        assert "99" in str(exc.value)
        assert str(SCHEMA_VERSION) in str(exc.value)

    def test_invalid_json_is_positioned(self, f1, tmp_path):
        path = self._write(tmp_path, [
            '{"kind":"header","schema":1,"content":"hierarchy"}',
            "{not json",
        ])
        with pytest.raises(RecordFormatError, match="bad.jsonl:2"):
            load_hierarchy(path)

    @pytest.mark.parametrize("lines, position, problem", [
        ([_CG_HEADER, '{"kind":"node","id":"T4::run():void"} x'], 2, "Extra data"),
        ([_CG_HEADER, '{"kind":"node","id":"T4::run():void"}'
                      '{"kind":"node","id":"T4::use():void"}'], 2, "Extra data"),
        (["\ufeff" + _CG_HEADER], 1, "Unexpected UTF-8 BOM"),
    ], ids=["trailing-data", "two-objects", "leading-bom"])
    def test_undecodable_line_is_positioned(
        self, f1, tmp_path, capsys, lines, position, problem
    ):
        path = self._write(tmp_path, lines)
        prefix = f"bad.jsonl:{position}: invalid JSON: {problem}"
        with pytest.raises(RecordFormatError, match=prefix):
            load_call_graph(path, f1.h)
        hp = tmp_path / "h.jsonl"
        save_hierarchy(f1.h, str(hp))
        assert main(["origins", str(hp), path]) == 3
        assert prefix in capsys.readouterr().err

    def test_missing_field_is_positioned(self, f1, tmp_path):
        path = self._write(tmp_path, [
            '{"kind":"header","schema":1,"content":"hierarchy"}',
            '{"kind":"type","id":"T0"}',
        ])
        with pytest.raises(RecordFormatError, match="missing field"):
            load_hierarchy(path)

    def test_wrong_content_kind(self, f1, tmp_path):
        path = tmp_path / "h.jsonl"
        save_hierarchy(f1.h, str(path))
        with pytest.raises(RecordFormatError, match="expected a callgraph"):
            load_call_graph(str(path), f1.h)

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path, [""])
        with pytest.raises(RecordFormatError, match="missing header"):
            load_hierarchy(path)

    def test_duplicate_type_id(self, tmp_path):
        record = (
            '{"kind":"type","id":"T0","fq":"x.T0","parents":[],'
            '"declares":[],"project":"p","package":"x","core":false}'
        )
        path = self._write(tmp_path, [
            '{"kind":"header","schema":1,"content":"hierarchy"}',
            record,
            record,
        ])
        with pytest.raises(RecordFormatError, match="duplicate type id"):
            load_hierarchy(path)

    def test_unknown_record_kind(self, f1, tmp_path):
        path = self._write(tmp_path, [
            '{"kind":"header","schema":1,"content":"callgraph"}',
            '{"kind":"mystery"}',
        ])
        with pytest.raises(RecordFormatError, match="mystery"):
            load_call_graph(path, f1.h)


class TestIllTypedFields:
    """A field of the wrong JSON type is a bad value on its line, never a
    crash or a silently coerced value."""

    @pytest.mark.parametrize("kind, key, value", [
        ("type", "id", 7),
        ("type", "parents", 5),
        ("type", "declares", [1]),
        ("type", "core", "no"),
        ("type", "parents", "T000"),
        ("type", "fq", None),
        ("type", "project", None),
        ("type", "package", 3),
        ("header", "core_project", 5),
        ("edge", "src", 3),
        ("edge", "dst", ["x"]),
        ("edge", "recv", 3),
        ("node", "id", None),
        ("node", "id", [1]),
    ])
    def test_ill_typed_field_is_positioned(self, f1, tmp_path, kind, key, value):
        hp, cp = tmp_path / "h.jsonl", tmp_path / "cg.jsonl"
        save_hierarchy(f1.h, str(hp))
        save_call_graph(f1.cg, str(cp))
        path = hp if kind in ("type", "header") else cp
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        index = next(i for i, r in enumerate(records) if r["kind"] == kind)
        records[index][key] = value
        lines[index] = json.dumps(records[index])
        path.write_text("\n".join(lines) + "\n")
        prefix = re.escape(f"{path}:{index + 1}: ")
        with pytest.raises(RecordFormatError, match=prefix):
            load_call_graph(str(cp), load_hierarchy(str(hp)))


class TestLoadValidation:
    def test_dangling_parent_rejected_by_name(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text("\n".join([
            '{"kind":"header","schema":1,"content":"hierarchy"}',
            '{"kind":"type","id":"T2","fq":"x.T2","parents":["T9"],'
            '"declares":[],"project":"p","package":"x","core":false}',
        ]) + "\n")
        with pytest.raises(HierarchyValidationError, match="T9"):
            load_hierarchy(str(path))

    def test_callgraph_with_unknown_type_names_the_id(self, f1, tmp_path):
        path = tmp_path / "cg.jsonl"
        path.write_text("\n".join([
            '{"kind":"header","schema":1,"content":"callgraph"}',
            '{"kind":"edge","src":"T4::run():void","dst":"T9::next():void",'
            '"recv":"T1"}',
        ]) + "\n")
        with pytest.raises(HierarchyValidationError, match="T9"):
            load_call_graph(str(path), f1.h)


class TestApplyCorePrefixes:
    def test_matching_types_become_core(self, f1):
        marked = apply_core_prefixes(f1.h, ["org.lib"])
        assert marked.types["T3"].is_core_lib
        assert marked.types["T3"].project_id == "jre"
        assert not marked.types["T4"].is_core_lib

    def test_result_still_validates(self, f1):
        assert validate_hierarchy(apply_core_prefixes(f1.h, ["com.app"])) == []

    def test_no_prefixes_is_identity(self, f1):
        assert apply_core_prefixes(f1.h, []) is f1.h

    @pytest.mark.parametrize("prefix", ["com.foo", "com.foo."])
    def test_prefix_matches_at_a_dot_boundary(self, prefix):
        def t(tid, fq, package):
            return TypeNode(tid, fq, (), frozenset(), "app", package)

        h = TypeHierarchy({
            "A": t("A", "com.foo", "com"),
            "B": t("B", "com.foo.Bar", "com.foo"),
            "C": t("C", "com.foo.sub.Baz", "com.foo.sub"),
            "D": t("D", "com.foobar.Qux", "com.foobar"),
            "E": t("E", "org.x.com.foo", "org.x"),
            "F": t("F", "Nameless", ""),
        }, core_project_id="jre")
        marked = apply_core_prefixes(h, [prefix])
        assert sorted(tid for tid, t in marked.types.items() if t.is_core_lib) == \
            ["A", "B", "C"]
        assert validate_hierarchy(marked) == []


# Mutation fuzz of every loader through the CLI: start from valid F1 files,
# damage one line of one file, run the command that reads it.  The command
# may accept the file (exit 0) or reject it (exit 3, one "error:" line), but
# never fail as a runtime error (exit 4).  Where the damage makes the line
# itself unreadable, the error must carry that line's position.
_JSON_VALUES = [None, 0, 1.5, True, "x", [], ["x"], {}]
# fields whose absence loads fine (defaults) or is not a line fault
_OPTIONAL_FIELDS = {"package", "core", "core_project", "projects"}


def _write_f1_inputs(tmp: str) -> dict[str, str]:
    h, cg = make_f1_hierarchy(), make_f1_callgraph()
    paths = {name: os.path.join(tmp, name) for name in
             ("hierarchy", "callgraph", "exclusion", "assignment")}
    save_hierarchy(h, paths["hierarchy"])
    save_call_graph(cg, paths["callgraph"])
    table = origin_edge_frequencies(cg, find_origins(cg, h))
    save_exclusion_list(build_exclusion_list(table, 3), paths["exclusion"], h)
    vulnerable = frozenset({MethodNode.from_uid("T3::next():void")})
    save_assignment(VulnerabilityAssignment(vulnerable, seed=0, requested=1),
                    paths["assignment"])
    return paths


@st.composite
def _mutations(draw, lines: list[str], jsonl: bool):
    """(mutated lines, line the error must name or None, path-only flag)."""
    kinds = ["truncate", "duplicate", "bom", "nul", "swap"]
    if jsonl:
        kinds += ["drop-field", "retype-field"]
    kind = draw(st.sampled_from(kinds))
    i = draw(st.integers(0, len(lines) - 1))
    line, out = lines[i], list(lines)
    payload = not line.startswith("#")
    expect: int | None = None
    path_only = False
    if kind == "truncate":
        out[i] = line[: draw(st.integers(1, len(line) - 1))]
        expect = i + 1 if jsonl or payload else None
    elif kind == "duplicate":
        out.insert(i + 1, line)
        if jsonl and (i == 0 or '"kind":"type"' in line):
            expect = i + 2  # a second header, or a duplicate type id
    elif kind in ("bom", "nul"):
        at = 0 if kind == "bom" else draw(st.integers(0, len(line)))
        out[i] = line[:at] + ("\ufeff" if kind == "bom" else "\x00") + line[at:]
        expect = i + 1 if jsonl else None
    elif kind == "swap":
        j = draw(st.integers(0, len(lines) - 1).filter(lambda j: j != i))
        out[i], out[j] = out[j], out[i]
        expect = 1 if jsonl and 0 in (i, j) else None
    else:
        record = json.loads(line)
        key = draw(st.sampled_from(sorted(record)))
        if kind == "drop-field":
            del record[key]
        else:
            record[key] = draw(st.sampled_from(
                [v for v in _JSON_VALUES if type(v) is not type(record[key])]
            ))
        out[i] = json.dumps(record)
        if key == "schema":
            path_only = True
        elif not (key in _OPTIONAL_FIELDS and (kind == "drop-field" or key == "projects")):
            expect = i + 1
    return out, expect, path_only


class TestMutatedInputs:
    @settings(
        max_examples=200, derandomize=True, database=None, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.data())
    def test_cli_exits_0_or_3_with_position(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            paths = _write_f1_inputs(tmp)
            target = data.draw(st.sampled_from(sorted(paths)))
            with open(paths[target], encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            jsonl = target in ("hierarchy", "callgraph")
            out, expect, path_only = data.draw(_mutations(lines, jsonl))
            with open(paths[target], "w", encoding="utf-8") as fh:
                fh.write("\n".join(out) + "\n")
            inputs = [paths["hierarchy"], paths["callgraph"]]
            if target == "assignment":
                argv = ["vuln-sim", *inputs, "--app-project", "app",
                        "--assignment-in", paths["assignment"]]
            else:
                argv = ["prune", *inputs, "--exclusion-file", paths["exclusion"],
                        "--out", os.path.join(tmp, "pruned.jsonl")]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            err = err.getvalue()
            assert "Traceback" not in err
            assert code in (0, 3), err
            if code == 3:
                assert err.startswith("error: ") and err.count("\n") == 1, err
            if expect is not None:
                assert code == 3
                assert err.startswith(f"error: {paths[target]}:{expect}: "), err
            if path_only:
                assert code == 3
                assert err.startswith(f"error: {paths[target]}: "), err
