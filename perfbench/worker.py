"""Timed loop of one workload, in a fresh process so its peak memory is its own.

Usage: python3 worker.py PLAN_JSON

The plan (written by run.py) names the workload, the corpus directory, the
number of seconds to measure and whether to trace.  The worker runs one
workload run at a time until the time is up, cycling through the corpus
graphs, and prints one JSON object on its last line.  There is no warm-up
run: the program has no caches to fill, and its first run in a fresh
process is what a user of the CLI pays.  With tracing, each graph is run
untraced and then traced, so the difference of the two means is the
tracing overhead.  A calibration pass (calibrate.py) is timed before the
first run and after every untraced run, and each untraced run is also
reported scaled to reference speed by the passes either side of it.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

import calibrate
import spans
import workloads
from cgprune import cli


def main(plan_path: str) -> dict:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    w = workloads.WORKLOADS[plan["workload"]]
    directory = plan["directory"]
    tracer = spans.Tracer() if plan["trace"] else None
    attempted = failed = 0
    first_print: dict[int, list[str]] = {}

    def one_run(i: int, traced: bool) -> float:
        nonlocal attempted, failed
        cmds = workloads.commands(w, directory, i)
        if traced:
            tracer.install()
        start = time.perf_counter()
        codes = workloads.execute(cli.main, cmds)
        elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        prints, bad = workloads.outcome(w, directory, i, cmds, codes)
        expected = first_print.setdefault(i, prints)
        attempted += len(cmds)
        failed += max(bad, sum(a != b for a, b in zip(prints, expected)))
        return elapsed

    first_timed = time.monotonic()
    calibration = calibrate.Calibration()
    calibrations = [calibration.measure()]
    deadline = time.perf_counter() + plan["seconds"]
    times: list[float] = []
    scaled: list[float] = []
    traced_times: list[float] = []
    summaries: list[dict[str, float]] = []
    groups = []
    i = 0
    while time.perf_counter() < deadline:
        g = i % w.graphs
        times.append(one_run(g, False))
        calibrations.append(calibration.measure())
        scaled.append(calibrate.scale(times[-1], calibrations[-2:]))
        if tracer is not None:
            traced_times.append(one_run(g, True))
            group = tracer.take()
            groups.append(group)
            summaries.append(spans.summarize(group))
        i += 1
    result = {
        "first_timed_monotonic": first_timed,
        "times": times,
        "scaled_times": scaled,
        "calibrations": calibrations,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": attempted,
        "failed": failed,
        "graphs_run": sorted(first_print),
    }
    if tracer is not None:
        spans.Tracer.dump(groups, os.path.join(directory, "spans.json"))
        keys = sorted({k for s in summaries for k in s})
        result["per_run"] = {
            k: statistics.fmean(s.get(k, 0.0) for s in summaries) for k in keys
        }
        result["traced_mean_s"] = statistics.fmean(traced_times)
        result["untraced_mean_s"] = statistics.fmean(times)
    return result


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: worker.py PLAN_JSON")
    print(json.dumps(main(sys.argv[1])))
