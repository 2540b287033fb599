"""Independent recount of what the workloads report, straight from the files.

Nothing here imports cgprune.  The interchange files are parsed with `json`,
and origin finding, Top-N pruning, CVE sampling and reachability are
re-derived from their definitions:

- origin of a call target (T, sig): among T's reflexive ancestors that
  declare sig, those with no strict ancestor declaring sig; the one with the
  least (depth, type id) wins;
- origins ranked by edges caused, descending, ties by (type id, signature);
- an edge is pruned at Top-N when one of the first N origins has the
  target's signature and the target's type descends from it (reflexively);
- CVEs: `random.Random(seed).sample` over the canonically sorted
  dependency methods (non-core, outside the application project);
- pairs: per vulnerable method, a reverse breadth-first search; every
  application method that reaches it, other than itself, is one pair.

A faster implementation that changes any of these numbers therefore fails
the check even if the output fingerprint were recorded again.
"""

from __future__ import annotations

import csv
import json
import random
import re
from collections import Counter, defaultdict

_SIG = re.compile(r"^([^()\s][^()]*)\((.*)\):(.+)$")


def sig_key(text: str) -> tuple:
    """Sort key of a signature text: (name, parameter types, return type)."""
    name, params, ret = _SIG.match(text).groups()
    return (name, tuple(p for p in params.split(",") if p), ret)


def node_key(uid: str) -> tuple:
    tid, sig = uid.split("::", 1)
    return (tid, sig_key(sig))


class Graph:
    """A hierarchy plus call graph, as plain dicts keyed by id strings."""

    def __init__(self, hierarchy_path: str, callgraph_path: str) -> None:
        self.parents: dict[str, tuple[str, ...]] = {}
        self.declares: dict[str, frozenset[str]] = {}
        self.project: dict[str, str] = {}
        self.core: dict[str, bool] = {}
        for record in _records(hierarchy_path):
            if record["kind"] == "type":
                tid = record["id"]
                self.parents[tid] = tuple(record["parents"])
                self.declares[tid] = frozenset(record["declares"])
                self.project[tid] = record["project"]
                self.core[tid] = bool(record.get("core", False))
        self.nodes: set[str] = set()
        self.edges: set[tuple[str, str, str]] = set()
        for record in _records(callgraph_path):
            if record["kind"] == "node":
                self.nodes.add(record["id"])
            elif record["kind"] == "edge":
                self.edges.add((record["src"], record["dst"], record["recv"]))
                self.nodes.update((record["src"], record["dst"]))

    def _depths(self, tid: str) -> dict[str, int]:
        depths = {tid: 0}
        frontier = [tid]
        while frontier:
            nxt = []
            for t in frontier:
                for p in self.parents[t]:
                    if p not in depths:
                        depths[p] = depths[t] + 1
                        nxt.append(p)
            frontier = nxt
        return depths

    def origin(self, uid: str) -> tuple[str, str]:
        tid, sig = uid.split("::", 1)
        depths = self._depths(tid)
        firsts = [
            a for a in depths
            if sig in self.declares[a]
            and not any(sig in self.declares[b] for b in self._depths(a) if b != a)
        ] or [tid]
        return min(firsts, key=lambda a: (depths[a], a)), sig

    def ranked_origins(self) -> list[tuple[tuple[str, str], int]]:
        """(origin type, signature) with caused-edge counts, in rank order."""
        origin_of = {dst: self.origin(dst) for dst in {e[1] for e in self.edges}}
        counts = Counter(origin_of[e[1]] for e in self.edges)
        return sorted(counts.items(),
                      key=lambda item: (-item[1], item[0][0], sig_key(item[0][1])))

    def kept_edges(self, top_n: int) -> set[tuple[str, str, str]]:
        children = defaultdict(list)
        for tid, parents in self.parents.items():
            for p in parents:
                children[p].append(tid)
        cone: dict[str, set[str]] = defaultdict(set)
        for (origin_type, sig), _count in self.ranked_origins()[:top_n]:
            stack = [origin_type]
            while stack:
                t = stack.pop()
                if t not in cone[sig]:
                    cone[sig].add(t)
                    stack.extend(children[t])

        def pruned(edge: tuple[str, str, str]) -> bool:
            tid, sig = edge[1].split("::", 1)
            return tid in cone.get(sig, ())

        return {e for e in self.edges if not pruned(e)}

    def vulnerable(self, app: str, count: int, seed: int) -> list[str]:
        eligible = sorted(
            (n for n in self.nodes
             if not self.core[n.split("::", 1)[0]]
             and self.project[n.split("::", 1)[0]] != app),
            key=node_key,
        )
        return random.Random(seed).sample(eligible, min(count, len(eligible)))

    def pairs(self, edges, vulnerable: list[str], app: str) -> int:
        callers = defaultdict(list)
        for src, dst, _recv in edges:
            callers[dst].append(src)
        apps = {n for n in self.nodes
                if self.project[n.split("::", 1)[0]] == app
                and not self.core[n.split("::", 1)[0]]}
        total = 0
        for vuln in vulnerable:
            seen = {vuln}
            frontier = [vuln]
            while frontier:
                nxt = []
                for n in frontier:
                    for c in callers[n]:
                        if c not in seen:
                            seen.add(c)
                            nxt.append(c)
                frontier = nxt
            total += len((seen & apps) - {vuln})
        return total


def _records(path: str):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


def check_pipeline(graph: Graph, report_path: str, config: dict, top_n: int) -> list[str]:
    """Problems found comparing a one-graph pipeline report with a recount
    of its base pairs and of its pairs at `top_n`."""
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    app = config.get("application_project", "p1")
    vulnerable = graph.vulnerable(app, config.get("cve_count", 100),
                                  config.get("cve_seed", 0))
    problems = []
    base = graph.pairs(graph.edges, vulnerable, app)
    if report["graphs"][0]["base_pairs"] != base:
        problems.append(f"base_pairs {report['graphs'][0]['base_pairs']} != recount {base}")
    at_n = graph.pairs(graph.kept_edges(top_n), vulnerable, app)
    reported = [r["reachable_pairs"] for r in report["records"] if r["top_n"] == top_n]
    if reported != [at_n]:
        problems.append(f"pairs at top {top_n} {reported} != recount {at_n}")
    return problems


def check_cli(graph: Graph, origins_csv: str, pruned_path: str, top_n: int) -> list[str]:
    """Problems found comparing `origins --top 0` and `prune --top-n` output
    with the recounted ranking and kept-edge set."""
    problems = []
    with open(origins_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    listed = [((r[1], r[3]), int(r[4])) for r in rows]
    if listed != graph.ranked_origins():
        problems.append("origins ranking differs from recount")
    kept = {(r["src"], r["dst"], r["recv"]) for r in _records(pruned_path)
            if r["kind"] == "edge"}
    if kept != graph.kept_edges(top_n):
        problems.append("pruned edge set differs from recount")
    return problems
