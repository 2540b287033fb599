"""Batch pipeline: config parsing, staged execution, report emission."""

import csv
import io
import json
import logging
import math
import re
import statistics
from dataclasses import dataclass, field, fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgprune import (
    AnalysisReport,
    ConfigError,
    PipelineConfig,
    TypeHierarchy,
    run_pipeline,
    save_call_graph,
    save_hierarchy,
    write_aggregates_csv,
    write_report_csv,
    write_report_json,
)
from cgprune.pipeline import (
    AGGREGATE_COLUMNS,
    DEFAULT_SWEEP,
    REPORT_COLUMNS,
    GraphSummary,
    PipelineError,
    SweepRecord,
)


def f1_config(f1, tmp_path, **overrides) -> PipelineConfig:
    hp = tmp_path / "f1.hierarchy.jsonl"
    cp = tmp_path / "f1.callgraph.jsonl"
    save_hierarchy(f1.h, str(hp))
    save_call_graph(f1.cg, str(cp))
    data = {
        "corpus": "f1",
        "inputs": [{"id": "f1", "hierarchy": hp.name, "callgraph": cp.name}],
        "sweep": [0, 1],
        "cve_count": 1,
        "application_project": "app",
        "warmup": 0,
        "repetitions": 1,
    }
    data.update(overrides)
    return PipelineConfig.from_mapping(data, base_dir=str(tmp_path))


class TestConfig:
    def test_defaults(self):
        config = PipelineConfig.from_mapping(
            {"synthetic": {"count": 1, "params": {}}}
        )
        assert config.sweep == DEFAULT_SWEEP
        assert config.mode == "exhaustive"
        assert config.threshold == 0.95
        assert config.warmup == 1
        assert config.repetitions == 3

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="sweeep"):
            PipelineConfig.from_mapping(
                {"synthetic": {"count": 1, "params": {}}, "sweeep": [1]}
            )

    @pytest.mark.parametrize("data, message", [
        ({"synthetic": {"cout": 3, "params": {}}}, "synthetic: unknown key 'cout'"),
        ({"synthetic": {"count": 1, "params": {}, "seeds": [1], "Count": 2}},
         "synthetic: unknown key 'Count', 'seeds'"),
        ({"inputs": [{"id": "a", "hierarchy": "h", "callgraph": "c", "core_prefix": ["x"]}]},
         "inputs[0]: unknown key 'core_prefix'"),
        ({"inputs": [{"hierarchy": "h", "callgraph": "c"},
                     {"hierarchy": "h", "callgrph": "c", "callgraph": "c"}]},
         "inputs[1]: unknown key 'callgrph'"),
    ], ids=["synthetic", "synthetic-two", "input", "second-input"])
    def test_unknown_nested_keys_rejected(self, data, message):
        with pytest.raises(ConfigError) as info:
            PipelineConfig.from_mapping(data)
        assert str(info.value) == message

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            PipelineConfig.from_mapping(
                {"synthetic": {"count": 1, "params": {}}, "mode": "both"}
            )

    def test_needs_inputs_or_synthetic(self):
        with pytest.raises(ConfigError, match="no input graphs"):
            PipelineConfig.from_mapping({"corpus": "x"})

    def test_paths_resolve_relative_to_config_file(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "inputs": [{"hierarchy": "h.jsonl", "callgraph": "cg.jsonl"}],
        }))
        config = PipelineConfig.from_file(str(cfg_path))
        assert config.inputs[0].hierarchy_path == str(tmp_path / "h.jsonl")

    @pytest.mark.parametrize("key, value, message", [
        ("threshold", 3, "threshold must be in [0, 1], got 3"),
        ("threshold", -0.5, "threshold must be in [0, 1], got -0.5"),
        ("threshold", "high", "threshold must be a number, got 'high'"),
        ("cve_count", 0, "cve_count must be positive, got 0"),
        ("warmup", -1, "warmup must be non-negative, got -1"),
        ("warmup", 1.5, "warmup must be an integer, got 1.5"),
        ("repetitions", 0, "repetitions must be positive, got 0"),
        ("localness_top", -1, "localness_top must be non-negative, got -1"),
    ])
    def test_out_of_range_values_rejected(self, key, value, message):
        with pytest.raises(ConfigError) as exc:
            PipelineConfig.from_mapping(
                {"synthetic": {"count": 1, "params": {}}, key: value}
            )
        assert str(exc.value) == message

    @pytest.mark.parametrize("key, value", [
        ("threshold", 0), ("threshold", 1), ("cve_count", 1), ("warmup", 0),
        ("repetitions", 1), ("localness_top", 0),
    ])
    def test_boundary_values_accepted(self, key, value):
        config = PipelineConfig.from_mapping(
            {"synthetic": {"count": 1, "params": {}}, key: value}
        )
        assert getattr(config, key) == value

    @pytest.mark.parametrize("data, message", [
        ({"sweep": 5}, "sweep must be a list of integers, got 5"),
        ({"sweep": ["a"]}, "sweep must be a list of integers, got ['a']"),
        ({"sweep": [1, True]}, "sweep must be a list of integers, got [1, True]"),
        ({"sweep": [1, -1]}, "sweep values must be non-negative, got -1"),
        ({"threshold": True}, "threshold must be a number, got True"),
        ({"synthetic": {"count": "2"}}, "synthetic.count must be an integer, got '2'"),
        ({"synthetic": 5}, "synthetic must be an object with an object 'params'"),
        ({"synthetic": {"params": [1]}},
         "synthetic must be an object with an object 'params'"),
        ({"synthetic": {"params": {"call_sites_per_method": 5}}}, "synthetic.params:"),
        ({"inputs": [{"hierarchy": 5, "callgraph": "cg.jsonl"}]},
         "inputs[0].hierarchy must be a string, got 5"),
        ({"inputs": [{"id": 7, "hierarchy": "h.jsonl", "callgraph": "cg.jsonl"}]},
         "inputs[0].id must be a string, got 7"),
        ({"inputs": "h.jsonl"}, "inputs must be a list of objects, got 'h.jsonl'"),
        ({"inputs": ["h.jsonl"]}, "inputs must be a list of objects, got ['h.jsonl']"),
        ({"core_prefixes": "org.lib"},
         "core_prefixes must be a list of strings, got 'org.lib'"),
        ({"oracle": ["keep-all"]}, "oracle must be one of"),
        ({"cve_seed": "7"}, "cve_seed must be an integer, got '7'"),
        ({"include_core_cves": "false"},
         "include_core_cves must be a boolean, got 'false'"),
        ({"extended_hierarchy": "no"}, "extended_hierarchy must be a boolean, got 'no'"),
        ({"package_boundary": 1}, "package_boundary must be a boolean, got 1"),
        ({"corpus": 5}, "corpus must be a string, got 5"),
        ({"application_project": 7}, "application_project must be a string, got 7"),
        ({"synthetic": {"params": {"seed": "x"}}},
         "synthetic.params: seed must be an integer, got 'x'"),
        ({"synthetic": {"params": {"type_count": 2.5}}},
         "synthetic.params: type_count must be an integer, got 2.5"),
        ({"synthetic": {"params": {"call_sites_per_method": [0, 2.5]}}},
         "synthetic.params: call_sites_per_method must be two integers, got [0, 2.5]"),
        ({"synthetic": {"params": {"max_parents_per_type": True}}},
         "synthetic.params: max_parents_per_type must be an integer, got True"),
        ({"sweep": [1, 1, 0]}, "sweep values must be distinct, got 1 more than once"),
        ({"sweep": []}, "sweep must name at least one Top-N"),
        ({"inputs": [{"id": "a", "hierarchy": "h.jsonl", "callgraph": "cg.jsonl"},
                     {"id": "a", "hierarchy": "h2.jsonl", "callgraph": "cg2.jsonl"}]},
         "graph ids must be distinct, got 'a' more than once"),
        ({"inputs": [{"id": "syn000", "hierarchy": "h.jsonl", "callgraph": "cg.jsonl"}]},
         "graph ids must be distinct, got 'syn000' more than once"),
    ], ids=[
        "sweep-number", "sweep-strings", "sweep-bool", "sweep-negative", "threshold-bool",
        "count-string",
        "synthetic-number", "params-list", "call-sites-number", "path-number",
        "id-number",
        "inputs-string", "input-string", "prefixes-string", "oracle-list",
        "seed-string", "core-cves-string", "extended-string", "boundary-number",
        "corpus-number", "project-number", "params-seed-string",
        "params-count-float", "params-call-sites-float", "params-parents-bool",
        "sweep-repeated", "sweep-empty", "input-ids-repeated", "input-id-synthetic",
    ])
    def test_ill_typed_values_rejected(self, data, message):
        data = {"synthetic": {"count": 1, "params": {}}, **data}
        with pytest.raises(ConfigError) as exc:
            PipelineConfig.from_mapping(data)
        assert str(exc.value).startswith(message)

    def test_readme_lists_every_config_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| key | type | default | allowed |\n", 1)[1].split("\n\n", 1)[0]
        keys = set(re.findall(r"^\| `(\w+)` \|", table, re.MULTILINE))
        assert keys == {f.name for f in fields(PipelineConfig)}

    def test_bad_synthetic_param_rejected(self):
        with pytest.raises(ConfigError, match="synthetic.params"):
            PipelineConfig.from_mapping(
                {"synthetic": {"count": 1, "params": {"bogus": 3}}}
            )

    @pytest.mark.parametrize("params, message", [
        ({"type_count": 0}, "type_count must be positive, got 0"),
        ({"core_type_fraction": 2}, "core_type_fraction must be in [0, 1]"),
    ])
    def test_out_of_range_synthetic_param_rejected(self, params, message):
        with pytest.raises(ConfigError, match="synthetic.params") as exc:
            PipelineConfig.from_mapping(
                {"synthetic": {"count": 1, "params": params}}
            )
        assert message in str(exc.value)


class TestRunPipelineOnF1:
    def test_sweep_0_and_1_records(self, f1, tmp_path):
        report = run_pipeline(f1_config(f1, tmp_path))
        assert [r.top_n for r in report.records] == [0, 1]
        base, top1 = report.records
        assert (base.edges, base.reduction_ratio) == (7, 0.0)
        assert (base.reachable_pairs, base.reachable_fraction) == (2, 1.0)
        assert top1.edges == 5
        assert top1.reduction_ratio == pytest.approx(2 / 7)
        assert (top1.reachable_pairs, top1.reachable_fraction) == (0, 0.0)
        assert (top1.pair_delta, top1.fraction_delta) == (-2, -1.0)
        assert report.errors == ()

    def test_sweep_0_only_is_baseline(self, f1, tmp_path):
        report = run_pipeline(f1_config(f1, tmp_path, sweep=[0]))
        (record,) = report.records
        assert record.edges == f1.cg.edge_count
        assert record.reduction_ratio == 0.0
        assert record.reachable_pairs == report.graphs[0].base_pairs

    def test_graph_summary(self, f1, tmp_path):
        report = run_pipeline(f1_config(f1, tmp_path))
        (g,) = report.graphs
        assert (g.nodes, g.edges) == (10, 7)
        assert g.vulnerable_count == 1
        assert g.localness_levels == (6, 1, 1, 2)
        assert g.top_origins[0] == ("java.util.Iterator.next():void", 2)

    def test_node_count_constant_across_sweep(self, f1, tmp_path):
        report = run_pipeline(f1_config(f1, tmp_path, sweep=[0, 1, 2, 1000]))
        assert {r.nodes for r in report.records} == {10}


class TestErrorContinuation:
    def test_bad_graph_skipped_good_graph_reported(self, f1, tmp_path, caplog):
        config = f1_config(f1, tmp_path)
        broken = PipelineConfig.from_mapping({
            "corpus": "f1",
            "inputs": [
                {"id": "missing", "hierarchy": "nope.jsonl", "callgraph": "x.jsonl"},
                {
                    "id": "f1",
                    "hierarchy": config.inputs[0].hierarchy_path,
                    "callgraph": config.inputs[0].callgraph_path,
                },
            ],
            "sweep": [0, 1],
            "cve_count": 1,
            "application_project": "app",
            "warmup": 0,
            "repetitions": 1,
        }, base_dir=str(tmp_path))
        with caplog.at_level(logging.WARNING, logger="cgprune.pipeline"):
            report = run_pipeline(broken)
        assert [e.graph_id for e in report.errors] == ["missing"]
        assert report.errors[0].stage == "load"
        assert report.errors[0].error_type == "FileNotFoundError"
        assert {r.graph_id for r in report.records} == {"f1"}
        assert "missing" in caplog.text
        path = tmp_path / "report.json"
        write_report_json(report, str(path))
        (entry,) = json.loads(path.read_text())["errors"]
        assert entry == {
            "graph_id": "missing", "stage": "load",
            "message": report.errors[0].message, "error_type": "FileNotFoundError",
        }

    def test_stage_name_identifies_failure_point(self, f1, tmp_path):
        config = f1_config(f1, tmp_path)
        report = run_pipeline(PipelineConfig(
            corpus="f1",
            inputs=config.inputs,
            sweep=(0, 1),
            # with the library reclassified as core, no dependency method is
            # left to mark vulnerable: inject fails, so the graph fails whole
            core_prefixes=("org.lib",),
            application_project="app",
            warmup=0,
            repetitions=1,
        ))
        assert report.records == ()
        assert [e.stage for e in report.errors] == ["inject"]
        assert "no dependency nodes" in report.errors[0].message
        assert report.errors[0].error_type == "NoEligibleNodesError"

    def test_graph_without_the_application_project_fails_at_inject(self, f1, tmp_path):
        # a graph that lacks the project would measure nothing: its zeros
        # must not reach the records and the aggregates
        other = TypeHierarchy({
            tid: t._replace(project_id="lib") if t.project_id == "app" else t
            for tid, t in f1.h.types.items()
        }, f1.h.core_project_id)
        save_hierarchy(other, str(tmp_path / "noapp.hierarchy.jsonl"))
        save_call_graph(f1.cg, str(tmp_path / "noapp.callgraph.jsonl"))
        config = f1_config(f1, tmp_path, inputs=[
            {"id": "f1", "hierarchy": "f1.hierarchy.jsonl", "callgraph": "f1.callgraph.jsonl"},
            {"id": "noapp", "hierarchy": "noapp.hierarchy.jsonl",
             "callgraph": "noapp.callgraph.jsonl"},
        ])
        report = run_pipeline(config)
        assert [g.graph_id for g in report.graphs] == ["f1"]
        assert {r.graph_id for r in report.records} == {"f1"}
        assert report.errors == (PipelineError(
            "noapp", "inject", "project 'app' has no application type", "GraphError"
        ),)

    def test_partial_sweep_never_reported(self, f1, tmp_path, monkeypatch):
        # fail the comparison on the second sweep entry: records from the
        # first entry must not leak into the report
        from cgprune import pipeline as pl

        real = pl.compare
        calls = []

        def flaky(base, prop):
            calls.append(None)
            if len(calls) == 2:
                raise ValueError("boom")
            return real(base, prop)

        monkeypatch.setattr(pl, "compare", flaky)
        report = run_pipeline(f1_config(f1, tmp_path))
        assert report.records == ()
        assert report.graphs == ()
        assert [e.stage for e in report.errors] == ["propagate-top1"]
        assert report.errors[0].error_type == "ValueError"

    def test_bug_propagates_instead_of_error_row(self, f1, tmp_path, monkeypatch):
        # only domain errors (GraphError, ValueError, OSError) become error
        # rows; anything else is a defect in the analysis and must surface
        from cgprune import pipeline as pl

        def broken(base, prop):
            raise RuntimeError("boom")

        monkeypatch.setattr(pl, "compare", broken)
        with pytest.raises(RuntimeError, match="boom"):
            run_pipeline(f1_config(f1, tmp_path))


# column values: integers (negative too), unit floats, repeated thirds, and
# magnitudes from 1e-20 to 1e26 of either sign
_values = st.one_of(
    st.integers(-10**6, 10**6).map(float),
    st.floats(0.0, 1.0),
    st.sampled_from([1 / 3, 2 / 3, -1 / 3]),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1.0, 1.0), st.integers(-20, 26)),
)
_columns = st.one_of(
    st.lists(_values, min_size=1, max_size=12),
    # single values and constant columns
    st.builds(lambda v, n: [v] * n, _values, st.integers(1, 12)),
)


@st.composite
def _record_sets(draw) -> list[SweepRecord]:
    """1-6 records at each of a few Top-N values, each column drawn by
    `_columns` and repeated or cut to the rows' count (so a constant column
    stays constant)."""
    records = []
    for n in draw(st.lists(st.integers(0, 100), min_size=1, max_size=4, unique=True)):
        rows = draw(st.integers(1, 6))
        columns = [
            (column * rows)[:rows]
            for column in draw(st.lists(
                _columns, min_size=len(AGGREGATE_COLUMNS), max_size=len(AGGREGATE_COLUMNS)
            ))
        ]
        records.extend(
            SweepRecord(f"g{i}", n, *values) for i, values in enumerate(zip(*columns))
        )
    return records


class TestAggregates:
    def test_recomputable_from_records(self, f1, tmp_path):
        config = PipelineConfig.from_mapping({
            "corpus": "syn",
            "synthetic": {"count": 3, "params": {"seed": 5, "type_count": 40}},
            "sweep": [1, 5],
            "cve_count": 5,
            "application_project": "p1",
            "warmup": 0,
            "repetitions": 1,
        })
        report = run_pipeline(config)
        assert report.errors == ()
        aggregates = report.aggregates()
        for n, cols in aggregates.items():
            rows = [r for r in report.records if r.top_n == n]
            for name, (mean, std) in cols.items():
                values = [float(getattr(r, name)) for r in rows]
                expect_mean = sum(values) / len(values)
                expect_var = sum((v - expect_mean) ** 2 for v in values) / len(values)
                assert mean == pytest.approx(expect_mean, abs=1e-9)
                assert std == pytest.approx(expect_var ** 0.5, abs=1e-9)

    def test_non_finite_column_rejected(self):
        for value in (math.inf, -math.inf, math.nan):
            report = AnalysisReport(
                corpus="c", graphs=(), errors=(), records=(
                    _record("g", 1), _record("g", 5),
                    _record("h", 5, reduction_ratio=value),
                ),
            )
            with pytest.raises(ValueError) as exc:
                report.aggregates()
            assert str(exc.value) == (
                f"cannot aggregate reduction_ratio at Top-N 5: it holds {value!r}"
            )

    @settings(max_examples=75, deadline=None)
    @given(_record_sets())
    def test_bit_exact_against_statistics(self, records):
        report = AnalysisReport(corpus="c", graphs=(), records=tuple(records), errors=())
        aggregates = report.aggregates()
        assert list(aggregates) == sorted({r.top_n for r in records})
        for n, cols in aggregates.items():
            assert list(cols) == list(AGGREGATE_COLUMNS)
            rows = [r for r in records if r.top_n == n]
            for name, got in cols.items():
                values = [float(getattr(r, name)) for r in rows]
                expect = (statistics.fmean(values), statistics.pstdev(values))
                assert got == expect, (n, name, values)
                # == holds for 0.0 and -0.0 alike; the sign must match too
                assert [math.copysign(1.0, v) for v in got] == [
                    math.copysign(1.0, v) for v in expect
                ], (n, name, values)


class TestReportWriters:
    @pytest.fixture
    def report(self, f1, tmp_path):
        return run_pipeline(f1_config(f1, tmp_path))

    def test_csv_shape(self, report, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(report, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:5] == ["graph_id", "top_n", "nodes", "edges",
                               "reduction_ratio"]
        assert len(rows) == 1 + len(report.records)

    def test_aggregates_csv_one_row_per_n(self, report, tmp_path):
        path = tmp_path / "agg.csv"
        write_aggregates_csv(report, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [r[0] for r in rows[1:]] == ["0", "1"]

    def test_json_is_sorted_and_complete(self, report, tmp_path):
        path = tmp_path / "report.json"
        write_report_json(report, str(path))
        payload = json.loads(path.read_text())
        assert payload["corpus"] == "f1"
        assert len(payload["records"]) == 2
        assert payload["aggregates"]["1"]["edges"]["mean"] == 5.0
        assert payload["errors"] == []

    def test_determinism_modulo_timing(self, f1, tmp_path):
        config = PipelineConfig.from_mapping({
            "corpus": "syn",
            "synthetic": {"count": 2, "params": {"seed": 9, "type_count": 30}},
            "sweep": [1, 3],
            "cve_count": 4,
            "application_project": "p1",
            "warmup": 0,
            "repetitions": 1,
        })

        def strip(report):
            return [
                {
                    k: v for k, v in record.__dict__.items()
                    if not k.endswith("_s")
                }
                for record in report.records
            ]

        assert strip(run_pipeline(config)) == strip(run_pipeline(config))


def _json_oracle(report: AnalysisReport) -> str:
    """The report as `json.dump` writes it, the reference for the writer."""
    payload = {
        "corpus": report.corpus,
        "graphs": [vars(g) for g in report.graphs],
        "records": [vars(r) for r in report.records],
        "aggregates": {
            str(n): {name: {"mean": mean, "std": std} for name, (mean, std) in cols.items()}
            for n, cols in report.aggregates().items()
        },
        "errors": [vars(e) for e in report.errors],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class _StatedAggregates(AnalysisReport):
    """A report with aggregates given, not computed: a column holding inf or
    nan has none, since `statistics.pstdev` fails on it."""

    stated: dict = field(default_factory=dict)

    def aggregates(self):
        return self.stated


_ODD_TEXT = 'ünïcødé "quoted" back\\slash \x00\x1f\t\n \u2028 \U0001f600'


def _summary(graph_id: str, **overrides) -> GraphSummary:
    values = dict(
        graph_id=graph_id, nodes=3, edges=2, duplicate_edges=0,
        localness_levels=(1, 0, 2, 0), top_origins=(("T0::f():V", 2),),
        origin_localness=(("T0::f():V", (0.5, 0.25, 0.25, 0.0)), ("x", None)),
        vulnerable_count=1, base_pairs=1, base_fraction=0.5, base_elapsed_s=1e-05,
    )
    values.update(overrides)
    return GraphSummary(**values)


def _record(graph_id: str, top_n: int, **overrides) -> SweepRecord:
    values = dict(
        graph_id=graph_id, top_n=top_n, nodes=3, edges=1, reduction_ratio=0.5,
        reachable_pairs=1, reachable_fraction=1 / 3, pair_delta=0,
        fraction_delta=-0.0, analysis_elapsed_s=2.5e-06, prune_elapsed_s=1e-07,
    )
    values.update(overrides)
    return SweepRecord(**values)


# text with NUL, control characters and non-ASCII (`st.text()` draws no
# surrogates), plus the writer's own separators
_texts = st.one_of(st.text(max_size=12), st.sampled_from([", ", "\0", _ODD_TEXT]))
# finite, with room for a few to be summed; -0.0 and subnormals included
_numbers = {
    "str": _texts,
    "int": st.integers(-2**63, 2**63),
    "float": st.floats(-1e300, 1e300),
}


# records share a Top-N often enough that aggregates take the non-constant path
_random_records = st.builds(SweepRecord, **{
    **{f.name: _numbers[f.type] for f in fields(SweepRecord)},
    "top_n": st.integers(0, 3) | st.integers(-2**63, 2**63),
})


@st.composite
def _reports(draw) -> AnalysisReport:
    """A report of random text and numbers."""
    return AnalysisReport(
        corpus=draw(_texts),
        graphs=tuple(draw(st.lists(st.builds(_summary, _texts), max_size=2))),
        records=tuple(draw(st.lists(_random_records, max_size=8))),
        errors=tuple(draw(st.lists(st.builds(PipelineError, _texts, _texts, _texts, _texts),
                                   max_size=2))),
    )


class TestReportJsonMatchesJsonDump:
    def check(self, report, tmp_path):
        path = tmp_path / "report.json"
        write_report_json(report, str(path))
        assert path.read_text(encoding="utf-8") == _json_oracle(report)

    def test_empty_report(self, tmp_path):
        self.check(AnalysisReport(corpus="c", graphs=(), records=(), errors=()), tmp_path)

    def test_graph_without_records_or_errors(self, tmp_path):
        report = AnalysisReport(
            corpus="c", graphs=(_summary("g", top_origins=(), origin_localness=()),),
            records=(), errors=(),
        )
        self.check(report, tmp_path)

    def test_inf_and_nan_in_float_fields(self, tmp_path):
        nan, inf = math.nan, math.inf
        report = _StatedAggregates(
            corpus="c",
            graphs=(_summary("g", base_fraction=nan, base_elapsed_s=inf,
                             origin_localness=(("o", (-inf, nan, 0.0, 1.0)),)),),
            records=(_record("g", 1, reduction_ratio=inf, fraction_delta=-inf,
                             reachable_fraction=nan),),
            errors=(),
            stated={1: {
                **dict.fromkeys(AGGREGATE_COLUMNS, (1.0, 0.0)),
                "reduction_ratio": (inf, nan), "fraction_delta": (-inf, 0.0),
            }},
        )
        self.check(report, tmp_path)

    def test_escaped_text_in_corpus_ids_and_messages(self, tmp_path):
        report = AnalysisReport(
            corpus=_ODD_TEXT,
            graphs=(_summary(_ODD_TEXT + "1"),),
            records=(_record(_ODD_TEXT + "1", 0), _record(_ODD_TEXT + "1", 3)),
            errors=(PipelineError(_ODD_TEXT + "2", "load", _ODD_TEXT, "ValueError"),),
        )
        self.check(report, tmp_path)

    def test_pipeline_report_with_keys_out_of_numeric_order(self, tmp_path):
        # aggregates are keyed "0", "1", "10", "100", "11", "2" in the file
        config = PipelineConfig.from_mapping({
            "corpus": "syn",
            "synthetic": {"count": 3, "params": {"seed": 2, "type_count": 30}},
            "sweep": [0, 1, 2, 10, 11, 100],
            "cve_count": 3,
            "application_project": "p1",
            "warmup": 0,
            "repetitions": 1,
        })
        report = run_pipeline(config)
        assert len(report.records) == 18
        self.check(report, tmp_path)

    @settings(max_examples=100, deadline=None)
    @given(_reports())
    def test_random_reports(self, tmp_path_factory, report):
        self.check(report, tmp_path_factory.mktemp("json"))


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


class TestCsvWritersMatchCsvLoop:
    @settings(max_examples=100, deadline=None)
    @given(_reports())
    def test_random_reports(self, tmp_path_factory, report):
        out = tmp_path_factory.mktemp("csv")
        write_report_csv(report, str(out / "report.csv"))
        write_aggregates_csv(report, str(out / "aggregates.csv"))
        records = _csv_text(REPORT_COLUMNS, (vars(r).values() for r in report.records))
        header = ["top_n"]
        for name in AGGREGATE_COLUMNS:
            header += [f"{name}_mean", f"{name}_std"]
        aggregates = _csv_text(header, (
            [n, *(v for name in AGGREGATE_COLUMNS for v in cols[name])]
            for n, cols in sorted(report.aggregates().items())
        ))
        for name, expect in (("report.csv", records), ("aggregates.csv", aggregates)):
            with open(out / name, newline="", encoding="utf-8") as fh:
                assert fh.read() == expect, name
