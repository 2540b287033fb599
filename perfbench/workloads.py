"""The benchmark's workloads: seeded corpora on disk and the commands run on them.

Every workload builds a corpus of `graphs` synthetic graphs during set-up
and writes them with `cgprune.io`; the timed program only reads those
files.  One run of a workload is one pass of its commands over one graph
of the corpus, and the timed loop cycles through the graphs, so the
reported median covers several graphs drawn from the seed rather than
hanging on one draw.

Why these three (module shares are measured by the traced run and kept in
recorded.json):

- ``sweep``: the paper's experiment as users run it, `cgprune pipeline`
  with the package defaults (9-point DEFAULT_SWEEP, 100 CVEs, warmup 1,
  repetitions 3) including report writing.  The per-CVE reverse BFS in
  `vulnsim.propagate` takes nearly all the time, so reachability work shows
  here and `io`/`pruning` barely register.
- ``fine-sweep``: `cgprune pipeline` on a larger graph with a dense sweep
  (every N from 0 to 99), 2 CVEs, warmup 0, repetitions 1.  The per-CVE BFS
  is almost bypassed; the per-N fixed costs do the work: cone building,
  edge scan and pruned-graph construction in `pruning`, and the reverse
  adjacency rebuilt inside every `propagate`.
- ``cli``: the one-shot commands `origins --top 0`, `derivatives --top 0`,
  `localness --top 25` and `prune --top-n 10 --out` on one larger graph.
  Each command reloads the files, so `io` parsing and validation dominate,
  then `origins`; `vulnsim` does no work; `prune --out` writes a graph.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io as stdio
import json
import os
from dataclasses import dataclass

from cgprune import io as cg_io
from cgprune import synth

# corpus seeds: graph i of benchmark seed s uses generator seed s * STRIDE + i
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    types: int
    graphs: int
    # pipeline config keys beyond the input graph; None for the CLI workload
    pipeline: dict | None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", types=120, graphs=32, pipeline={}),
        Workload(
            "fine-sweep", types=300, graphs=24,
            pipeline={
                "sweep": list(range(100)), "cve_count": 2,
                "warmup": 0, "repetitions": 1,
            },
        ),
        Workload("cli", types=400, graphs=12, pipeline=None),
    )
}

# the Top-N at which the independent recount checks the sweeps, and the
# Top-N the `prune` command of the CLI workload uses
RECOUNT_TOP_N = 10
CLI_PRUNE_TOP_N = 10


def graph_files(directory: str, i: int) -> tuple[str, str]:
    return (os.path.join(directory, f"g{i}.h.jsonl"),
            os.path.join(directory, f"g{i}.cg.jsonl"))


def config_path(directory: str, i: int) -> str:
    return os.path.join(directory, f"g{i}.config.json")


def out_dir(directory: str, i: int) -> str:
    return os.path.join(directory, "out", f"g{i}")


def build_corpus(w: Workload, seed: int, directory: str,
                 graphs: int | None = None) -> list[tuple[int, int]]:
    """Generate and write the corpus; returns (nodes, edges) per graph.

    Calls go through the `cgprune.synth` and `cgprune.io` module attributes
    so a tracer installed on them sees set-up work.
    """
    sizes = []
    for i in range(w.graphs if graphs is None else graphs):
        params = synth.GenParams(type_count=w.types, seed=seed * SEED_STRIDE + i)
        h = synth.generate_hierarchy(params)
        cg = synth.generate_call_graph_cha(h, params)
        h_path, cg_path = graph_files(directory, i)
        cg_io.save_hierarchy(h, h_path)
        cg_io.save_call_graph(cg, cg_path)
        if w.pipeline is not None:
            config = {
                "corpus": w.name,
                "inputs": [{"id": f"g{i}", "hierarchy": os.path.basename(h_path),
                            "callgraph": os.path.basename(cg_path)}],
                **w.pipeline,
            }
            with open(config_path(directory, i), "w", encoding="utf-8") as fh:
                json.dump(config, fh, sort_keys=True)
        os.makedirs(out_dir(directory, i), exist_ok=True)
        sizes.append((cg.node_count, cg.edge_count))
    return sizes


def commands(w: Workload, directory: str, i: int) -> list[tuple[list[str], list[str]]]:
    """One run on graph i: (cgprune argv, output files) per command."""
    out = out_dir(directory, i)
    if w.pipeline is not None:
        return [(
            ["pipeline", "--config", config_path(directory, i), "--out-dir", out],
            [os.path.join(out, n) for n in ("report.json", "report.csv", "aggregates.csv")],
        )]
    h_path, cg_path = graph_files(directory, i)
    files = [os.path.join(out, n) for n in
             ("origins.csv", "derivatives.csv", "localness.csv", "pruned.jsonl")]
    return [
        (["origins", h_path, cg_path, "--top", "0", "--out", files[0]], [files[0]]),
        (["derivatives", h_path, cg_path, "--top", "0", "--out", files[1]], [files[1]]),
        (["localness", h_path, cg_path, "--top", "25", "--out", files[2]], [files[2]]),
        (["prune", h_path, cg_path, "--top-n", str(CLI_PRUNE_TOP_N),
          "--out", files[3]], [files[3]]),
    ]


def _is_timing(column: str) -> bool:
    # report columns ending in _s are elapsed times; aggregates add _mean/_std
    return column.endswith(("_s", "_s_mean", "_s_std"))


def _strip_timing(value):
    if isinstance(value, dict):
        return {k: _strip_timing(v) for k, v in value.items() if not _is_timing(k)}
    if isinstance(value, list):
        return [_strip_timing(v) for v in value]
    return value


def _canonical(path: str) -> bytes:
    """File content with every timing field removed (pipeline reports) or
    as written (everything else)."""
    name = os.path.basename(path)
    if name == "report.json":
        with open(path, encoding="utf-8") as fh:
            data = _strip_timing(json.load(fh))
        return json.dumps(data, sort_keys=True).encode()
    if name in ("report.csv", "aggregates.csv"):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        keep = [j for j, col in enumerate(rows[0]) if not _is_timing(col)]
        return "\n".join(",".join(row[j] for j in keep) for row in rows).encode()
    with open(path, "rb") as fh:
        return fh.read()


def fingerprint(files: list[str]) -> str:
    """sha256 over the canonical content of the given output files."""
    digest = hashlib.sha256()
    for path in files:
        digest.update(os.path.basename(path).encode() + b"\0")
        digest.update(_canonical(path) + b"\0")
    return digest.hexdigest()


def pipeline_errors(w: Workload, directory: str, i: int) -> int:
    """Graphs the pipeline reported under `errors` (0 for the CLI workload)."""
    if w.pipeline is None:
        return 0
    with open(os.path.join(out_dir(directory, i), "report.json"), encoding="utf-8") as fh:
        return len(json.load(fh)["errors"])


def execute(main, cmds: list[tuple[list[str], list[str]]]) -> list[int]:
    """Run each command through `main`, output swallowed; exit codes in order.

    `main` is passed in so the caller can hand over a traced version.
    """
    codes = []
    sink = stdio.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv, _files in cmds:
            try:
                codes.append(main(argv))
            except SystemExit as exc:  # argparse rejecting the command line
                codes.append(exc.code if isinstance(exc.code, int) else 2)
    return codes


def outcome(w: Workload, directory: str, i: int,
            cmds: list[tuple[list[str], list[str]]], codes: list[int]) -> tuple[list[str], int]:
    """Fingerprint per command and the count of failed operations.

    A command fails when it exits non-zero or, for the pipeline, when its
    graph lands in the report's `errors`.
    """
    failed = sum(1 for code in codes if code != 0)
    prints = []
    for _argv, files in cmds:
        try:
            prints.append(fingerprint(files))
        except (OSError, ValueError):
            prints.append("unreadable")
    if failed == 0:
        failed = pipeline_errors(w, directory, i)
    return prints, failed
