"""The benchmark tracer wraps cgprune names where they are imported.

`perfbench/spans.py` replaces each `(module, name)` of its `WRAPPED` table
in that module's namespace, so a refactor that drops or renames one of those
imports breaks traced benchmark runs.  These tests catch that in the suite.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import cgprune.pipeline as pipeline
from cgprune import (
    GenParams,
    PipelineConfig,
    ProjectRoleMap,
    generate_call_graph_cha,
    generate_hierarchy,
    inject_artificial_cves,
    run_pipeline,
)

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_wrapped_name_is_bound_and_called(spans):
    assert spans.WRAPPED
    for mod_name, attr in spans.WRAPPED:
        module = importlib.import_module(mod_name)
        assert callable(getattr(module, attr, None)), f"{mod_name}.{attr} is gone"
        assert f"{attr}(" in inspect.getsource(module), \
            f"{mod_name} no longer calls {attr}"


def test_install_then_uninstall_restores_originals(spans):
    originals = {
        key: getattr(importlib.import_module(key[0]), key[1])
        for key in spans.WRAPPED
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (mod_name, attr), fn in originals.items():
            assert getattr(importlib.import_module(mod_name), attr) is not fn
    finally:
        tracer.uninstall()
    for (mod_name, attr), fn in originals.items():
        assert getattr(importlib.import_module(mod_name), attr) is fn


def test_pipeline_calls_reach_the_wrapped_names(spans):
    config = PipelineConfig.from_mapping({
        "synthetic": {"count": 1, "params": {"type_count": 20, "seed": 1}},
        "sweep": [1], "cve_count": 2, "warmup": 0, "repetitions": 1,
    })
    tracer = spans.Tracer()
    tracer.install()
    try:
        run_pipeline(config)
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.take()}
    assert {"model.build_call_graph", "origins.find_origins",
            "pruning.prune_exhaustive", "vulnsim.propagate"} <= names


def test_traced_propagate_opens_one_reverse_adjacency_child(spans):
    params = GenParams(type_count=30, seed=3)
    h = generate_hierarchy(params)
    cg = generate_call_graph_cha(h, params)
    roles = ProjectRoleMap("p1")
    assignment = inject_artificial_cves(cg, h, roles, 5, 0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        pipeline.propagate(cg, assignment, roles, h, warmup=1, repetitions=2)
    finally:
        tracer.uninstall()
    recorded = tracer.take()
    assert [s.name for s in recorded] == ["vulnsim.propagate", "model.reverse_adjacency"]
    assert recorded[0].parent is None
    assert recorded[1].parent == 0


def test_a_traced_sweep_opens_one_prune_and_one_propagate_span_per_top_n(spans):
    # `pruning.prune_s` and `vulnsim.propagate_s` sum these spans, so each
    # must stay one call per Top-N (plus the base propagation)
    sweep = [0, 1, 2, 3]
    config = PipelineConfig.from_mapping({
        "synthetic": {"count": 1, "params": {"type_count": 20, "seed": 1}},
        "sweep": sweep, "cve_count": 2, "warmup": 0, "repetitions": 1,
    })
    tracer = spans.Tracer()
    tracer.install()
    try:
        report = run_pipeline(config)
    finally:
        tracer.uninstall()
    assert not report.errors
    names = [s.name for s in tracer.take()]
    assert names.count("pruning.prune_exhaustive") == len(sweep)
    assert names.count("vulnsim.propagate") == len(sweep) + 1
