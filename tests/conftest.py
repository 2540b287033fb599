"""Shared fixtures: the canonical F1 corpus and acceptance-line reporting."""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import strategies as st

from cgprune import (
    CallEdge,
    CallGraph,
    MethodNode,
    MethodSignature,
    TypeHierarchy,
    TypeNode,
    build_call_graph,
)


def sig(name: str) -> MethodSignature:
    return MethodSignature(name)


def m(type_id: str, name: str) -> MethodNode:
    return MethodNode(type_id, sig(name))


def make_f1_hierarchy() -> TypeHierarchy:
    """Six types: a core Object/Iterator pair, two iterator subtypes in
    different projects, and two standalone application classes."""
    types = {
        "T0": TypeNode(
            type_id="T0", fq_name="java.lang.Object", parents=(),
            declared=frozenset({sig("hashCode"), sig("toString")}),
            project_id="jre", package_name="java.lang", is_core_lib=True,
        ),
        "T1": TypeNode(
            type_id="T1", fq_name="java.util.Iterator", parents=("T0",),
            declared=frozenset({sig("next"), sig("hasNext")}),
            project_id="jre", package_name="java.util", is_core_lib=True,
        ),
        "T2": TypeNode(
            type_id="T2", fq_name="com.app.a.MyIter", parents=("T1",),
            declared=frozenset({sig("next"), sig("helper")}),
            project_id="app", package_name="com.app.a",
        ),
        "T3": TypeNode(
            type_id="T3", fq_name="org.lib.b.LibIter", parents=("T1",),
            declared=frozenset({sig("next")}),
            project_id="lib", package_name="org.lib.b",
        ),
        "T4": TypeNode(
            type_id="T4", fq_name="com.app.b.Service", parents=("T0",),
            declared=frozenset({sig("run"), sig("use")}),
            project_id="app", package_name="com.app.b",
        ),
        "T5": TypeNode(
            type_id="T5", fq_name="com.app.c.Helper", parents=("T0",),
            declared=frozenset({sig("fmt")}),
            project_id="app", package_name="com.app.c",
        ),
    }
    return TypeHierarchy(types=types, core_project_id="jre")


def f1_edges() -> dict[str, CallEdge]:
    return {
        "cs1a": CallEdge(m("T4", "run"), m("T2", "next"), "T1"),
        "cs1b": CallEdge(m("T4", "run"), m("T3", "next"), "T1"),
        "cs2": CallEdge(m("T2", "next"), m("T2", "helper"), "T2"),
        "cs3": CallEdge(m("T2", "helper"), m("T0", "hashCode"), "T0"),
        "cs4": CallEdge(m("T4", "use"), m("T4", "run"), "T4"),
        "cs5": CallEdge(m("T3", "next"), m("T4", "run"), "T4"),
        "cs6": CallEdge(m("T4", "use"), m("T5", "fmt"), "T5"),
    }


def f1_nodes() -> list[MethodNode]:
    return [
        m(tid, name)
        for tid, names in [
            ("T0", ["hashCode", "toString"]),
            ("T1", ["next", "hasNext"]),
            ("T2", ["next", "helper"]),
            ("T3", ["next"]),
            ("T4", ["run", "use"]),
            ("T5", ["fmt"]),
        ]
        for name in names
    ]


def make_f1_callgraph() -> CallGraph:
    return build_call_graph(f1_nodes(), f1_edges().values())


@dataclass(frozen=True)
class F1:
    h: TypeHierarchy
    cg: CallGraph
    edges: dict[str, CallEdge]


@pytest.fixture
def f1() -> F1:
    return F1(h=make_f1_hierarchy(), cg=make_f1_callgraph(), edges=f1_edges())


# Random hierarchies for differential tests.  Each type's parents are drawn
# from the types before it, so the parent relation is a DAG with multiple
# parents (diamonds), plus sometimes GHOST, a parent that names no type;
# each type declares a random subset of SIGS, so one signature may be
# declared at several independent roots, below another declarer, or where
# no edge target descends.
SIGS = ("f", "g", "h")
GHOST = "GHOST"


@st.composite
def hierarchies_with_graphs(draw) -> tuple[TypeHierarchy, CallGraph, list[str]]:
    """(hierarchy, call graph of up to 40 edges over its types, type ids)."""
    n = draw(st.integers(1, 10))
    type_ids = [f"T{i}" for i in range(n)]
    types = {}
    for i, tid in enumerate(type_ids):
        parents = draw(st.lists(st.sampled_from([*type_ids[:i], GHOST]), max_size=3, unique=True))
        declared = draw(st.sets(st.sampled_from(SIGS)))
        types[tid] = TypeNode(tid, f"x.{tid}", tuple(parents),
                              frozenset(sig(s) for s in declared), "p")
    methods = st.builds(MethodNode, st.sampled_from(type_ids), st.sampled_from(SIGS).map(sig))
    edges = draw(st.lists(
        st.builds(CallEdge, methods, methods, st.sampled_from(type_ids)), max_size=40,
    ))
    return TypeHierarchy(types), build_call_graph([], edges), type_ids


# --- acceptance-criterion reporting -----------------------------------------

_ACCEPTANCE: dict[int, tuple[str, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(num, description): marks a test as one acceptance criterion",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is not None and report.when == "call":
        num, desc = marker.args
        status = "PASS" if report.passed else "FAIL"
        # a parametrized criterion fails as a whole if any case fails
        if _ACCEPTANCE.get(num, (None, "PASS"))[1] == "FAIL":
            status = "FAIL"
        _ACCEPTANCE[num] = (desc, status)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        desc, status = _ACCEPTANCE[num]
        terminalreporter.write_line(f"[{status}] criterion {num}: {desc}")
