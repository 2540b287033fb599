"""Tests of the span arithmetic and of wrapping names where they are imported.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_spans.py
"""

import pytest

from spans import Span, Tracer, self_times, summarize


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("cli", "cli.main", 0.0, None, end=10.0),
        Span("io", "io.load_call_graph", 1.0, 0, end=4.0),
        Span("model", "model.build_call_graph", 2.0, 1, end=3.0),
        Span("io", "io.load_call_graph", 5.0, 0, end=9.0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    totals = summarize(spans)
    assert totals["io.load_call_graph_s"] == 7.0
    assert totals["io.self_s"] == 6.0
    assert totals["model.self_s"] == 1.0
    assert totals["cli.self_s"] == 3.0
    # self times partition the root span
    assert sum(self_times(spans)) == spans[0].duration


def test_nested_model_call_is_a_child_of_vulnsim():
    pytest.importorskip("cgprune")
    import cgprune.pipeline as pipeline
    import cgprune.vulnsim as vulnsim
    from cgprune import GenParams, ProjectRoleMap, generate_call_graph_cha, generate_hierarchy

    params = GenParams(type_count=30, seed=3)
    h = generate_hierarchy(params)
    cg = generate_call_graph_cha(h, params)
    roles = ProjectRoleMap("p1")
    assignment = vulnsim.inject_artificial_cves(cg, h, roles, 5, 0)
    original = vulnsim.reverse_adjacency

    tracer = Tracer()
    tracer.install()
    try:
        result = pipeline.propagate(cg, assignment, roles, h, warmup=1, repetitions=2)
    finally:
        tracer.uninstall()
    assert vulnsim.reverse_adjacency is original

    spans = tracer.take()
    assert [s.name for s in spans] == ["vulnsim.propagate", "model.reverse_adjacency"]
    assert spans[1].parent == 0
    assert spans[0].counts["traversals"] == 3 * len(assignment.vulnerable)
    assert spans[0].counts["reachable_pairs"] == result.reachable_pairs
