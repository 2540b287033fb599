"""End-to-end CLI tests: every subcommand through main(), plus exit codes."""

import argparse
import csv
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cgprune
from cgprune import (
    CallEdge,
    GenParams,
    TypeNode,
    TypeHierarchy,
    build_call_graph,
    generate_call_graph_cha,
    generate_hierarchy,
    load_call_graph,
    load_hierarchy,
    save_call_graph,
    save_hierarchy,
)
from cgprune import cli
from cgprune.cli import build_parser, main

from conftest import m, sig


@pytest.fixture
def f1_paths(f1, tmp_path):
    hp = tmp_path / "f1.hierarchy.jsonl"
    cp = tmp_path / "f1.callgraph.jsonl"
    save_hierarchy(f1.h, str(hp))
    save_call_graph(f1.cg, str(cp))
    return str(hp), str(cp)


def csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(text.splitlines()))


class TestGen:
    def test_writes_loadable_files(self, tmp_path, capsys):
        hp = tmp_path / "h.jsonl"
        cp = tmp_path / "cg.jsonl"
        code = main([
            "gen", "--out-hierarchy", str(hp), "--out-callgraph", str(cp),
            "--types", "30", "--seed", "7",
        ])
        assert code == 0
        h = load_hierarchy(str(hp))
        cg = load_call_graph(str(cp), h)
        assert len(h.types) == 30
        out = capsys.readouterr().out
        assert "generated 30 types" in out
        assert f"{cg.edge_count} edges" in out

    def test_same_seed_same_bytes(self, tmp_path):
        outs = []
        for run in ("a", "b"):
            hp = tmp_path / f"{run}.h.jsonl"
            cp = tmp_path / f"{run}.cg.jsonl"
            assert main([
                "gen", "--out-hierarchy", str(hp), "--out-callgraph", str(cp),
                "--types", "25", "--seed", "3",
            ]) == 0
            outs.append((hp.read_bytes(), cp.read_bytes()))
        assert outs[0] == outs[1]

    def test_defaults_are_genparams_defaults(self, tmp_path):
        hp, cp = tmp_path / "h.jsonl", tmp_path / "cg.jsonl"
        assert main(["gen", "--out-hierarchy", str(hp), "--out-callgraph", str(cp)]) == 0
        h = generate_hierarchy(GenParams())
        save_hierarchy(h, str(tmp_path / "h2.jsonl"))
        save_call_graph(generate_call_graph_cha(h, GenParams()), str(tmp_path / "cg2.jsonl"))
        assert hp.read_bytes() == (tmp_path / "h2.jsonl").read_bytes()
        assert cp.read_bytes() == (tmp_path / "cg2.jsonl").read_bytes()


class TestOrigins:
    def test_top_rows_to_stdout(self, f1_paths, capsys):
        hp, cp = f1_paths
        assert main(["origins", hp, cp, "--top", "2"]) == 0
        rows = csv_rows(capsys.readouterr().out)
        assert rows[0] == ["rank", "origin_type", "origin_fq", "signature",
                           "edge_count"]
        assert rows[1] == ["1", "T1", "java.util.Iterator", "next():void", "2"]
        assert rows[2] == ["2", "T4", "com.app.b.Service", "run():void", "2"]
        assert len(rows) == 3

    def test_top_zero_means_all(self, f1_paths, capsys):
        hp, cp = f1_paths
        assert main(["origins", hp, cp, "--top", "0"]) == 0
        rows = csv_rows(capsys.readouterr().out)
        assert len(rows) == 1 + 5

    def test_out_file(self, f1_paths, tmp_path, capsys):
        hp, cp = f1_paths
        out = tmp_path / "origins.csv"
        assert main(["origins", hp, cp, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert csv_rows(out.read_text())[1][1] == "T1"

    def test_ambiguity_noted_on_stderr(self, tmp_path, capsys):
        h = TypeHierarchy(types={
            "O": TypeNode("O", "java.lang.Object", (), frozenset(),
                          project_id="jre", package_name="java.lang",
                          is_core_lib=True),
            "IA": TypeNode("IA", "p.IA", ("O",), frozenset({sig("f")}),
                           project_id="app", package_name="p"),
            "IB": TypeNode("IB", "p.IB", ("O",), frozenset({sig("f")}),
                           project_id="app", package_name="p"),
            "D": TypeNode("D", "p.D", ("IA", "IB"), frozenset({sig("f")}),
                          project_id="app", package_name="p"),
        }, core_project_id="jre")
        cg = build_call_graph([], [CallEdge(m("D", "f"), m("D", "f"), "D")])
        hp, cp = tmp_path / "h.jsonl", tmp_path / "cg.jsonl"
        save_hierarchy(h, str(hp))
        save_call_graph(cg, str(cp))
        assert main(["origins", str(hp), str(cp)]) == 0
        assert "multiple candidate" in capsys.readouterr().err


class TestDerivatives:
    def test_counts(self, f1_paths, capsys):
        hp, cp = f1_paths
        assert main(["derivatives", hp, cp, "--top", "1"]) == 0
        rows = csv_rows(capsys.readouterr().out)
        assert rows[1] == ["1", "T1", "java.util.Iterator", "next():void", "2"]


class TestLocalness:
    def test_f1_distribution_row(self, f1_paths, capsys):
        hp, cp = f1_paths
        assert main(["localness", hp, cp]) == 0
        rows = csv_rows(capsys.readouterr().out)
        assert rows[0] == ["origin", "level0", "level1", "level2", "level3"]
        by_origin = {r[0]: r[1:] for r in rows[1:]}
        assert by_origin["java.util.Iterator.next():void"] == \
            ["0.0", "0.5", "0.0", "0.5"]

    def test_core_prefix_reclassifies(self, f1_paths, capsys):
        # marking org.lib as core removes T3 from the non-core world: its
        # derivative labels as 0 and T4.run no longer escalates to level 3
        hp, cp = f1_paths
        assert main([
            "localness", hp, cp, "--core-prefix", "org.lib",
        ]) == 0
        rows = csv_rows(capsys.readouterr().out)
        by_origin = {r[0]: r[1:] for r in rows[1:]}
        assert by_origin["java.util.Iterator.next():void"] == \
            ["0.5", "0.5", "0.0", "0.0"]

    def test_strict_hierarchy_flag(self, f1_paths, capsys):
        hp, cp = f1_paths
        assert main(["localness", hp, cp, "--strict-hierarchy"]) == 0
        rows = csv_rows(capsys.readouterr().out)
        by_origin = {r[0]: r[1:] for r in rows[1:]}
        # strictness does not change F1: the level-1 edge is caller T2 into
        # its own declaration, same hierarchy under both definitions
        assert by_origin["java.util.Iterator.next():void"] == \
            ["0.0", "0.5", "0.0", "0.5"]


class TestPrune:
    def test_top1_writes_pruned_graph(self, f1, f1_paths, tmp_path, capsys):
        hp, cp = f1_paths
        out = tmp_path / "pruned.jsonl"
        assert main(["prune", hp, cp, "--top-n", "1", "--out", str(out)]) == 0
        pruned = load_call_graph(str(out), f1.h)
        assert pruned.edge_count == 5
        assert f1.edges["cs1a"] not in pruned.edges
        stdout = capsys.readouterr().out
        assert "candidates 2, pruned 2, kept 5 of 7 edges" in stdout
        assert "(reduction 0.2857)" in stdout

    def test_exclusion_file_round_trip(self, f1, f1_paths, tmp_path):
        hp, cp = f1_paths
        first = tmp_path / "first.jsonl"
        excl = tmp_path / "top1.excl"
        assert main([
            "prune", hp, cp, "--top-n", "1", "--out", str(first),
            "--save-exclusion", str(excl),
        ]) == 0
        second = tmp_path / "second.jsonl"
        assert main([
            "prune", hp, cp, "--exclusion-file", str(excl),
            "--out", str(second),
        ]) == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("renamed, error", [
        ({"T3": "java.util.Iterator"},
         "{excl}: cannot save type name 'java.util.Iterator': "
         "type name 'java.util.Iterator' is ambiguous in this hierarchy"),
        ({"T1": "java.util\tIterator"},
         "{excl}: cannot save type name 'java.util\\tIterator': "
         "expected 'signature<TAB>type name', got 'next():void\\tjava.util\\tIterator'"),
        # the hierarchy loader refuses this name before any list is built
        ({"T1": "java.util.\ud800Iterator"},
         "{hp}:3: 'fq' must encode as UTF-8, got 'java.util.\\ud800Iterator'"),
    ], ids=["shared-name", "tab", "lone-surrogate"])
    def test_a_list_that_would_not_read_back_is_refused(
        self, f1, f1_paths, tmp_path, capsys, renamed, error
    ):
        # the Top-1 entry is next():void of T1; unrefused, its list was
        # saved (exit 0) and then failed to load, or was cut short (exit 4)
        types = {tid: t._replace(fq_name=renamed.get(tid, t.fq_name))
                 for tid, t in f1.h.types.items()}
        hp = tmp_path / "renamed.jsonl"
        save_hierarchy(TypeHierarchy(types, f1.h.core_project_id), str(hp))
        excl, out = tmp_path / "top1.excl", tmp_path / "pruned.jsonl"
        assert main(["prune", str(hp), f1_paths[1], "--top-n", "1", "--out", str(out),
                     "--save-exclusion", str(excl)]) == 3
        assert capsys.readouterr().err == f"error: {error.format(excl=excl, hp=hp)}\n"
        assert not excl.exists() and not out.exists()

    def test_missing_out_directory_leaves_no_exclusion_list(
        self, f1_paths, tmp_path, capsys
    ):
        # the list used to be saved before the pruned graph failed to open
        excl, out = tmp_path / "ex.tsv", tmp_path / "nodir" / "p.jsonl"
        assert main(["prune", *f1_paths, "--top-n", "1", "--out", str(out),
                     "--save-exclusion", str(excl)]) == 4
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{out}'\n"
        )
        assert not excl.exists() and not out.exists()

    def test_selective_keep_all_is_identity(self, f1, f1_paths, tmp_path):
        hp, cp = f1_paths
        out = tmp_path / "kept.jsonl"
        assert main([
            "prune", hp, cp, "--top-n", "1", "--out", str(out),
            "--mode", "selective", "--oracle", "keep-all",
        ]) == 0
        assert load_call_graph(str(out), f1.h).edge_count == 7

    def test_top_n_and_exclusion_file_conflict(self, f1_paths, tmp_path):
        hp, cp = f1_paths
        with pytest.raises(SystemExit) as exc:
            main(["prune", hp, cp, "--top-n", "1", "--exclusion-file", "x",
                  "--out", str(tmp_path / "o.jsonl")])
        assert exc.value.code == 2

    def test_one_source_required(self, f1_paths, tmp_path):
        hp, cp = f1_paths
        with pytest.raises(SystemExit) as exc:
            main(["prune", hp, cp, "--out", str(tmp_path / "o.jsonl")])
        assert exc.value.code == 2


class TestVulnSim:
    def test_base_report(self, f1_paths, capsys):
        hp, cp = f1_paths
        assert main([
            "vuln-sim", hp, cp, "--app-project", "app", "--cves", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "base: 1 vulnerable, 2 reachable pairs, fraction 1.0000" in out

    def test_compare_to_pruned(self, f1_paths, tmp_path, capsys):
        hp, cp = f1_paths
        pruned = tmp_path / "pruned.jsonl"
        assert main(["prune", hp, cp, "--top-n", "1", "--out", str(pruned)]) == 0
        assert main([
            "vuln-sim", hp, cp, "--app-project", "app", "--cves", "1",
            "--compare-to", str(pruned),
        ]) == 0
        out = capsys.readouterr().out
        assert "pruned: 0 reachable pairs, fraction 0.0000" in out
        assert "delta: pairs -2, fraction -1.0000" in out

    def test_assignment_round_trip(self, f1_paths, tmp_path, capsys):
        hp, cp = f1_paths
        saved = tmp_path / "vulns.txt"
        assert main([
            "vuln-sim", hp, cp, "--app-project", "app", "--cves", "1",
            "--seed", "9", "--assignment-out", str(saved),
        ]) == 0
        assert main([
            "vuln-sim", hp, cp, "--app-project", "app",
            "--assignment-in", str(saved),
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("base: 1 vulnerable") == 2


class TestPipeline:
    def test_run_writes_three_reports(self, f1_paths, tmp_path, capsys):
        hp, cp = f1_paths
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "corpus": "f1",
            "inputs": [{"id": "f1", "hierarchy": hp, "callgraph": cp}],
            "sweep": [0, 1],
            "cve_count": 1,
            "application_project": "app",
            "warmup": 0,
            "repetitions": 1,
        }))
        out_dir = tmp_path / "reports"
        assert main(["pipeline", "--config", str(cfg),
                     "--out-dir", str(out_dir)]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == \
            ["aggregates.csv", "report.csv", "report.json"]
        stdout = capsys.readouterr().out
        assert "corpus f1: 1 graph(s), 2 record(s), 0 error(s)" in stdout
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["records"][1]["edges"] == 5

    def test_all_graphs_failing_exits_4(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "inputs": [{"hierarchy": "absent.jsonl", "callgraph": "x.jsonl"}],
        }))
        assert main(["pipeline", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "r")]) == 4
        assert "failed at load" in capsys.readouterr().err

    def test_bad_config_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("{\"sweeep\": []}")
        assert main(["pipeline", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "r")]) == 3
        assert "error:" in capsys.readouterr().err

    def test_config_not_an_object_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2]")
        assert main(["pipeline", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "r")]) == 3
        assert capsys.readouterr().err == f"error: {cfg}: config must be a JSON object\n"

    def test_out_of_range_config_value_exits_3(self, f1_paths, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "inputs": [{"hierarchy": f1_paths[0], "callgraph": f1_paths[1]}],
            "application_project": "app", "repetitions": 0,
        }))
        assert main(["pipeline", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "r")]) == 3
        assert capsys.readouterr().err == (
            "error: repetitions must be positive, got 0\n"
        )
        assert not (tmp_path / "r").exists()


    @pytest.mark.parametrize("content, message", [
        (b'{"corpus": ', "1: invalid JSON: Expecting value"),
        (b'{\n "corpus": "x",\n}\n',
         "3: invalid JSON: Expecting property name enclosed in double quotes"),
        (b'{\n "corpus": "\xff"\n}\n', "2: invalid UTF-8: byte 0xff"),
    ], ids=["truncated", "trailing-comma", "not-utf-8"])
    def test_config_file_error_is_positioned(self, tmp_path, capsys, content, message):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(content)
        assert main(["pipeline", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "r")]) == 3
        assert capsys.readouterr().err == f"error: {cfg}:{message}\n"
        assert not (tmp_path / "r").exists()

    def test_ill_typed_config_value_exits_3(self, f1_paths, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        for key, value, message in [
            ("sweep", 5, "sweep must be a list of integers, got 5"),
            ("include_core_cves", "false",
             "include_core_cves must be a boolean, got 'false'"),
            ("extended_hierarchy", "no", "extended_hierarchy must be a boolean, got 'no'"),
            ("package_boundary", 1, "package_boundary must be a boolean, got 1"),
            ("corpus", 5, "corpus must be a string, got 5"),
            ("application_project", 7, "application_project must be a string, got 7"),
            ("sweep", [1, 1, 0], "sweep values must be distinct, got 1 more than once"),
            ("sweep", [], "sweep must name at least one Top-N"),
            ("inputs", [{"id": "f1", "hierarchy": f1_paths[0], "callgraph": f1_paths[1]}] * 2,
             "graph ids must be distinct, got 'f1' more than once"),
            # a JSON escape that decodes to a lone surrogate
            ("corpus", "\ud800", "corpus must encode as UTF-8, got '\\ud800'"),
            ("core_prefixes", ["com.\udcff"],
             "core_prefixes must encode as UTF-8, got 'com.\\udcff'"),
            ("inputs", [{"id": "g\ud800", "hierarchy": f1_paths[0], "callgraph": f1_paths[1]}],
             "inputs[0].id must encode as UTF-8, got 'g\\ud800'"),
            # an unknown key inside an object is an error too
            ("synthetic", {"cout": 3, "params": {"type_count": 10}},
             "synthetic: unknown key 'cout'"),
            ("inputs", [{"id": "a", "hierarchy": f1_paths[0], "callgraph": f1_paths[1],
                         "core_prefix": ["x"]}],
             "inputs[0]: unknown key 'core_prefix'"),
        ]:
            cfg.write_text(json.dumps({
                "inputs": [{"hierarchy": f1_paths[0], "callgraph": f1_paths[1]}],
                "application_project": "app", key: value,
            }))
            assert main(["pipeline", "--config", str(cfg),
                         "--out-dir", str(tmp_path / "r")]) == 3, key
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not (tmp_path / "r").exists()


class TestExitCodes:
    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        assert main(["origins", str(tmp_path / "no.jsonl"),
                     str(tmp_path / "no2.jsonl")]) == 4
        assert capsys.readouterr().err.startswith("error:")

    def test_corrupt_file_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        assert main(["origins", str(bad), str(bad)]) == 3
        err = capsys.readouterr().err
        assert "bad.jsonl:1" in err

    def test_malformed_exclusion_header_is_validation_error(
        self, f1_paths, tmp_path, capsys
    ):
        excl = tmp_path / "excl.tsv"
        excl.write_text("# declared-size: ten\n")
        assert main(["prune", *f1_paths, "--exclusion-file", str(excl),
                     "--out", str(tmp_path / "out.jsonl")]) == 3
        assert "excl.tsv:1: header" in capsys.readouterr().err

    def test_negative_exclusion_size_header_is_validation_error(
        self, f1_paths, tmp_path, capsys
    ):
        excl = tmp_path / "excl.tsv"
        excl.write_text("# declared-size: -7\nnext():void\tjava.util.Iterator\n")
        assert main(["prune", *f1_paths, "--exclusion-file", str(excl),
                     "--out", str(tmp_path / "out.jsonl")]) == 3
        assert capsys.readouterr().err == (
            f"error: {excl}:1: header 'declared-size' must be non-negative, got -7\n"
        )

    def test_negative_requested_header_is_validation_error(
        self, f1_paths, tmp_path, capsys
    ):
        assignment = tmp_path / "cves.txt"
        assignment.write_text("# seed: 0\n# requested: -3\nT3::next():void\n")
        assert main(["vuln-sim", *f1_paths, "--app-project", "app",
                     "--assignment-in", str(assignment)]) == 3
        assert capsys.readouterr().err == (
            f"error: {assignment}:2: header 'requested' must be non-negative, got -3\n"
        )

    @pytest.mark.parametrize("which, old, new, message", [
        (0, '"fq":"java.util.Iterator"', '"fq":"java.util.\\ud800Iterator"',
         "'fq' must encode as UTF-8, got 'java.util.\\ud800Iterator'"),
        (0, '"package":"java.util"', '"package":"java.\\udcffutil"',
         "'package' must encode as UTF-8, got 'java.\\udcffutil'"),
        (0, '"hasNext():void","next():void"', '"hasNext():void","next\\ud800():void"',
         "'declares' must encode as UTF-8, got 'next\\ud800():void'"),
        (1, '"recv":"T2"', '"recv":"T\\ud8002"',
         "'recv' must encode as UTF-8, got 'T\\ud8002'"),
    ], ids=["fq", "package", "declares", "recv"])
    def test_lone_surrogate_in_a_field_is_validation_error(
        self, f1_paths, tmp_path, capsys, which, old, new, message
    ):
        # a JSON escape decodes to a lone surrogate, which no writer could
        # write out: each command fails at load and writes nothing
        path = Path(f1_paths[which])
        lines = path.read_text().splitlines(keepends=True)
        [lineno] = [i for i, line in enumerate(lines, start=1) if old in line]
        path.write_text("".join(lines).replace(old, new))
        out = tmp_path / "out"
        for command, *options in (["origins", "--top", "0"], ["derivatives", "--top", "0"],
                                  ["localness"], ["prune", "--top-n", "1"]):
            assert main([command, *f1_paths, *options, "--out", str(out)]) == 3, command
            assert capsys.readouterr().err == f"error: {path}:{lineno}: {message}\n"
            assert not out.exists()

    def test_malformed_exclusion_line_is_validation_error(
        self, f1_paths, tmp_path, capsys
    ):
        excl = tmp_path / "excl.tsv"
        excl.write_text("# declared-size: 1\nnext():void\n")
        assert main(["prune", *f1_paths, "--exclusion-file", str(excl),
                     "--out", str(tmp_path / "out.jsonl")]) == 3
        assert "excl.tsv:2: expected" in capsys.readouterr().err

    def test_ambiguous_exclusion_name_is_validation_error(
        self, f1, f1_paths, tmp_path, capsys
    ):
        # T5 takes T4's fully qualified name, which then names two types
        types = {**f1.h.types, "T5": f1.h.types["T5"]._replace(fq_name="com.app.b.Service")}
        hp = tmp_path / "twins.jsonl"
        save_hierarchy(TypeHierarchy(types, f1.h.core_project_id), str(hp))
        excl = tmp_path / "excl.tsv"
        excl.write_text("# declared-size: 1\nrun():void\tcom.app.b.Service\n")
        assert main(["prune", str(hp), f1_paths[1], "--exclusion-file", str(excl),
                     "--out", str(tmp_path / "out.jsonl")]) == 3
        assert capsys.readouterr().err == (
            f"error: {excl}:2: type name 'com.app.b.Service' is ambiguous in this hierarchy\n"
        )

    @pytest.mark.parametrize("text, line", [
        ("# seed: x\n", 1),
        ("# seed: 0\nnonsense\n", 2),
    ])
    def test_malformed_assignment_is_validation_error(
        self, f1_paths, tmp_path, capsys, text, line
    ):
        assignment = tmp_path / "cves.txt"
        assignment.write_text(text)
        assert main(["vuln-sim", *f1_paths, "--app-project", "app",
                     "--assignment-in", str(assignment)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {assignment}:{line}: ")
        # one position prefix, not one per re-raise
        assert err.count("cves.txt:") == 1

    def test_ill_typed_hierarchy_field_is_validation_error(
        self, f1_paths, tmp_path, capsys
    ):
        hp = tmp_path / "typed.jsonl"
        with open(f1_paths[0], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[1] = lines[1].replace('"core":true', '"core":"no"')
        hp.write_text("\n".join(lines) + "\n")
        assert main(["origins", str(hp), f1_paths[1]]) == 3
        assert capsys.readouterr().err == (
            f"error: {hp}:2: 'core' must be a boolean, got 'no'\n"
        )

    def test_assignment_naming_an_absent_method_is_validation_error(
        self, f1_paths, tmp_path, capsys
    ):
        assignment = tmp_path / "cves.txt"
        assignment.write_text("# seed: 0\nT3::next():void\nT3::gone():void\n")
        assert main(["vuln-sim", *f1_paths, "--app-project", "app",
                     "--assignment-in", str(assignment)]) == 3
        assert capsys.readouterr().err == (
            f"error: {assignment}:3: method 'T3::gone():void' is not in the call graph\n"
        )

    def test_assignment_naming_no_method_is_validation_error(
        self, f1_paths, tmp_path, capsys
    ):
        assignment, saved = tmp_path / "cves.txt", tmp_path / "a.txt"
        assignment.write_text("# seed: 0\n")
        assert main(["vuln-sim", *f1_paths, "--app-project", "app",
                     "--assignment-in", str(assignment), "--assignment-out", str(saved),
                     "--compare-to", f1_paths[1]]) == 3
        assert capsys.readouterr() == (
            "", f"error: {assignment}: assignment names no method\n"
        )
        assert not saved.exists()

    def test_application_project_without_types_is_validation_error(
        self, f1_paths, tmp_path, capsys
    ):
        saved = tmp_path / "a.txt"
        assert main(["vuln-sim", *f1_paths, "--app-project", "nosuch", "--cves", "1",
                     "--assignment-out", str(saved)]) == 3
        assert capsys.readouterr() == (
            "", "error: project 'nosuch' has no application type\n"
        )
        assert not saved.exists()

    def test_compare_to_graph_lacking_a_vulnerable_method_is_validation_error(
        self, f1, f1_paths, tmp_path, capsys
    ):
        # --cves 1 on f1 marks T3::next, the only dependency method
        gone = m("T3", "next")
        other = tmp_path / "other.jsonl"
        save_call_graph(build_call_graph(
            f1.cg.nodes - {gone},
            [e for e in f1.cg.edges if gone not in (e.source, e.target)],
        ), str(other))
        saved = tmp_path / "a.txt"
        assert main(["vuln-sim", *f1_paths, "--app-project", "app", "--cves", "1",
                     "--assignment-out", str(saved), "--compare-to", str(other)]) == 3
        assert capsys.readouterr().err == (
            f"error: {other}: graph lacks vulnerable method T3::next():void "
            "of the assignment\n"
        )
        # the graph is checked before the assignment is written
        assert not saved.exists()

    def test_missing_compare_to_graph_leaves_no_assignment_file(
        self, f1_paths, tmp_path, capsys
    ):
        saved, missing = tmp_path / "a.txt", tmp_path / "missing.jsonl"
        assert main(["vuln-sim", *f1_paths, "--app-project", "app", "--cves", "1",
                     "--assignment-out", str(saved), "--compare-to", str(missing)]) == 4
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{missing}'\n"
        )
        assert not saved.exists()

    def test_no_eligible_dependency_method_is_validation_error(self, f1_paths, capsys):
        # with org.lib reclassified as core, every method is application or core
        assert main(["vuln-sim", *f1_paths, "--app-project", "app",
                     "--core-prefix", "org.lib"]) == 3
        assert capsys.readouterr().err == (
            "error: no dependency nodes outside project 'app' to mark vulnerable\n"
        )

    def test_latin1_hierarchy_text_is_validation_error(self, f1_paths, tmp_path, capsys):
        hp = tmp_path / "latin1.jsonl"
        with open(f1_paths[0], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[2] = lines[2].replace('"fq":"', '"fq":"caf\u00e9.')
        hp.write_bytes("\n".join(lines).encode("latin-1") + b"\n")
        assert main(["origins", str(hp), f1_paths[1]]) == 3
        assert capsys.readouterr().err == f"error: {hp}:3: invalid UTF-8: byte 0xe9\n"

    def test_undecodable_exclusion_byte_is_validation_error(
        self, f1_paths, tmp_path, capsys
    ):
        excl = tmp_path / "excl.tsv"
        excl.write_bytes(b"# declared-size: 1\n# top\xff\nnext():void\tT3\n")
        assert main(["prune", *f1_paths, "--exclusion-file", str(excl),
                     "--out", str(tmp_path / "out.jsonl")]) == 3
        assert capsys.readouterr().err == f"error: {excl}:2: invalid UTF-8: byte 0xff\n"

    def test_unexpected_call_graph_record_is_positioned_once(
        self, f1_paths, tmp_path, capsys
    ):
        cp = tmp_path / "odd.jsonl"
        cp.write_text(
            '{"content":"callgraph","kind":"header","schema":1}\n{"kind":"blob"}\n'
        )
        assert main(["origins", f1_paths[0], str(cp)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {cp}:2: unexpected record kind 'blob'\n"

    @pytest.mark.parametrize("command, flags, message", [
        ("prune", ["--top-n", "-1", "--out", "out.jsonl"], "--top-n: must be non-negative"),
        ("prune", ["--top-n", "1", "--mode", "selective", "--threshold", "1.5",
                   "--out", "out.jsonl"], "--threshold: must be in [0, 1]"),
        ("vuln-sim", ["--app-project", "app", "--warmup", "-1"], "--warmup: must be"),
        ("vuln-sim", ["--app-project", "app", "--cves", "0"], "--cves: must be positive"),
        ("vuln-sim", ["--app-project", "app", "--repetitions", "0"],
         "--repetitions: must be positive"),
        ("origins", ["--top", "-2"], "--top: must be non-negative"),
        ("derivatives", ["--top", "-2"], "--top: must be non-negative"),
        ("localness", ["--top", "-2"], "--top: must be non-negative"),
        ("prune", ["--top-n", "x", "--out", "out.jsonl"], "invalid int value: 'x'"),
    ])
    def test_out_of_range_flag_is_usage_error(
        self, f1_paths, tmp_path, capsys, monkeypatch, command, flags, message
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, *f1_paths, *flags])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--types", "0"], "type_count must be positive, got 0"),
        (["--core-fraction", "2"], "core_type_fraction must be in [0, 1]"),
        (["--call-sites", "3", "1"], "call_sites_per_method must satisfy"),
    ])
    def test_out_of_range_gen_flag_is_usage_error(self, tmp_path, capsys, flags, message):
        hp, cp = tmp_path / "h.jsonl", tmp_path / "cg.jsonl"
        assert main(["gen", "--out-hierarchy", str(hp), "--out-callgraph", str(cp),
                     *flags]) == 2
        assert message in capsys.readouterr().err
        assert not hp.exists() and not cp.exists()

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


SUBCOMMANDS = ["gen", "origins", "derivatives", "localness", "prune", "vuln-sim", "pipeline"]


class TestParserText:
    """`main` builds only the invoked subcommand's parser; what it prints
    must be what the fully built parser prints."""

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["--help", "origins"],
        ["--verbose", "-h", "prune"],
        *([command, "--help"] for command in SUBCOMMANDS),
        [],
        ["frobnicate"],
        ["--bogus", "origins", "h.jsonl", "cg.jsonl"],
        ["origins", "h.jsonl", "cg.jsonl", "--bogus"],
        ["prune", "h.jsonl", "cg.jsonl", "--top-n", "1"],
        ["pipeline"],
    ])
    def test_same_text_and_exit_code_as_the_full_parser(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

        def run(parse):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            out = capsys.readouterr()
            return exc.value.code, out.out, out.err

        code, out, err = run(main)
        assert out or err
        assert (code, out, err) == run(build_parser().parse_args)

    def test_main_builds_the_first_token_that_is_not_an_option(
        self, f1_paths, monkeypatch, capsys
    ):
        built = []
        full = cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda command=None: built.append(command) or full(command))
        assert main(["--verbose", "derivatives", *f1_paths, "--top", "1"]) == 0
        assert built == ["derivatives"]

    @pytest.mark.parametrize("argv, code, parsers", [
        (["origins", "H", "CG"], 0, 2),
        (["--verbose", "prune", "H", "CG", "--top-n", "1", "--out", os.devnull], 0, 2),
        (["--help"], 0, 1 + len(SUBCOMMANDS)),
        (["--verbose", "-h", "prune"], 0, 1 + len(SUBCOMMANDS)),
        (["frobnicate"], 2, 1 + len(SUBCOMMANDS)),
    ])
    def test_argument_parsers_built(self, argv, code, parsers, f1_paths, monkeypatch, capsys):
        built = []
        real = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        paths = dict(zip(("H", "CG"), f1_paths))
        try:
            exit_code = main([paths.get(a, a) for a in argv])
        except SystemExit as exc:
            exit_code = exc.code
        assert (exit_code, len(built)) == (code, parsers)

    def test_every_subcommand_is_covered(self):
        assert "{" + ",".join(SUBCOMMANDS) + "}" in build_parser().format_usage()


class TestVerbose:
    @pytest.mark.parametrize("first, second, level", [
        ([], ["--verbose"], logging.INFO),
        (["--verbose"], [], logging.WARNING),
    ])
    def test_every_call_sets_the_level(self, f1_paths, capsys, first, second, level):
        root = logging.getLogger()
        saved, handlers = root.level, list(root.handlers)
        try:
            for flags in (first, second):
                assert main([*flags, "origins", *f1_paths]) == 0
            assert root.level == level
            assert root.handlers == handlers  # pytest's capture handlers stay
        finally:
            root.setLevel(saved)


class TestModuleEntryPoint:
    def python_m(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "cgprune", *argv], capture_output=True, text=True,
            cwd=Path(cgprune.__file__).parent.parent, env={**os.environ, "COLUMNS": "80"},
        )

    def test_help_matches_in_process_text(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(["prune", "--help"])
        assert exc.value.code == 0
        run = self.python_m("prune", "--help")
        assert run.returncode == 0
        assert run.stdout == capsys.readouterr().out

    def test_no_subcommand_exits_2(self):
        run = self.python_m()
        assert run.returncode == 2
        assert "required: command" in run.stderr
