"""The benchmark's reference outputs, pinned in the suite.

`perfbench/run.py` checks each workload's reference graph (graph 0 of the
recorded seed) against the node/edge counts and the output fingerprints
kept in `perfbench/recorded.json`.  These tests build the same graph and run
the same commands through `cli.main`, so a change to any benchmarked output
fails here, not first in the benchmark.  They only read files under
`perfbench/`.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from cgprune import cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
RECORDED = json.loads((BENCH / "recorded.json").read_text(encoding="utf-8"))["workloads"]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_reference_graph_matches_the_recorded_outputs(workloads, name, tmp_path):
    w = workloads.WORKLOADS[name]
    ref = RECORDED[name]["reference"]
    assert (ref["types_per_graph"], ref["graphs"]) == (w.types, w.graphs)
    directory = str(tmp_path)
    sizes = workloads.build_corpus(w, ref["seed"], directory, graphs=1)
    assert [list(s) for s in sizes] == ref["nodes_edges"][:1]
    cmds = workloads.commands(w, directory, 0)
    codes = workloads.execute(cli.main, cmds)
    assert codes == [0] * len(cmds)
    prints, failed = workloads.outcome(w, directory, 0, cmds, codes)
    assert failed == 0
    assert prints == ref["fingerprints"]
