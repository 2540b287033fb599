"""cgprune benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Set-up generates the workload's corpus from the seed (`cgprune.synth`) and
writes it (`cgprune.io`) under `.perfbench_work/`, several times, keeping
the median.  A fresh worker process (worker.py) then runs the workload in a
closed loop, one run at a time on one thread, for `--seconds`.  Outside
the timed region every run's outputs are fingerprinted; afterwards the
reference graph's fingerprint is compared with recorded.json and the
outputs are recounted independently (recount.py).

End-to-end metrics (`--trace 0`):
  wall_s       median wall time of one workload run, at reference speed
  setup_s      median corpus build time plus the worker's start-up
               (interpreter and imports) up to its first timed run, at
               reference speed
  peak_rss_mb  peak resident memory of the worker process
"At reference speed": a run is scaled by the calibration passes timed
either side of it, the set-up by the mean of all passes of the run
(calibrate.py), so a shared host's changing speed cancels out; the
unscaled median run time is printed beside it.
Per-layer metrics (`--trace 1`) come from spans around cgprune's public
functions (spans.py); see BENCHMARK.json for the list.

The last line of standard output is the result JSON; the lines before it
repeat each metric with its unit, the sample count and the error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
RECORDED = os.path.join(HERE, "recorded.json")

# set-up repetitions per run; setup_s reports their median
SETUPS = 3
# generous cap on the worker beyond its measuring time
WORKER_SLACK_S = 90


def per_layer(run: dict[str, float], setup: dict[str, float],
              traced_s: float, untraced_s: float) -> dict[str, tuple[float, str]]:
    """Named per-layer metrics from the mean traced-run totals (`run`) and
    the median traced set-up totals (`setup`)."""
    def g(key: str) -> float:
        return run.get(key, 0.0)

    scanned = g("pruning.edges_scanned")
    traversals = g("vulnsim.traversals")
    m = {
        "io.load_call_graph_s": (g("io.load_call_graph_s"), "s"),
        "io.load_hierarchy_s": (g("io.load_hierarchy_s"), "s"),
        "io.save_call_graph_s": (g("io.save_call_graph_s"), "s"),
        "io.self_s": (g("io.self_s"), "s"),
        "io.records_read": (g("io.records_read"), "count"),
        "io.bytes_read": (g("io.bytes_read"), "bytes"),
        "io.bytes_written": (g("io.bytes_written"), "bytes"),
        "io.setup_save_s": (setup.get("io.save_hierarchy_s", 0.0)
                            + setup.get("io.save_call_graph_s", 0.0), "s"),
        "model.build_call_graph_s": (g("model.build_call_graph_s"), "s"),
        "model.validate_s": (g("model.validate_call_graph_s")
                             + g("model.validate_hierarchy_s"), "s"),
        "model.reverse_adjacency_s": (g("model.reverse_adjacency_s"), "s"),
        "model.self_s": (g("model.self_s"), "s"),
        "model.calls": (g("model.calls"), "count"),
        "synth.generate_s": (setup.get("synth.generate_hierarchy_s", 0.0)
                             + setup.get("synth.generate_call_graph_cha_s", 0.0), "s"),
        "synth.edges_generated": (setup.get("synth.edges_generated", 0.0), "count"),
        "origins.find_origins_s": (g("origins.find_origins_s"), "s"),
        "origins.frequencies_s": (g("origins.origin_edge_frequencies_s")
                                  + g("origins.unique_derivative_counts_s"), "s"),
        "origins.self_s": (g("origins.self_s"), "s"),
        "origins.targets": (g("origins.targets"), "count"),
        "origins.ambiguous": (g("origins.ambiguous"), "count"),
        "localness.label_all_s": (g("localness.label_all_s"), "s"),
        "localness.self_s": (g("localness.self_s"), "s"),
        "localness.nodes_labelled": (g("localness.nodes_labelled"), "count"),
        "pruning.prune_s": (g("pruning.prune_exhaustive_s"), "s"),
        "pruning.self_s": (g("pruning.self_s"), "s"),
        "pruning.calls": (g("pruning.calls"), "count"),
        "pruning.edges_scanned": (scanned, "count"),
        "pruning.candidate_edges": (g("pruning.candidate_edges"), "count"),
        "pruning.pruned_edges": (g("pruning.pruned_edges"), "count"),
        "pruning.pruned_ratio": (g("pruning.pruned_edges") / scanned if scanned else 0.0,
                                 "ratio"),
        "vulnsim.propagate_s": (g("vulnsim.propagate_s"), "s"),
        "vulnsim.self_s": (g("vulnsim.self_s"), "s"),
        "vulnsim.inject_s": (g("vulnsim.inject_artificial_cves_s"), "s"),
        "vulnsim.calls": (g("vulnsim.calls"), "count"),
        "vulnsim.traversals": (traversals, "count"),
        "vulnsim.useful_traversal_ratio": (
            g("vulnsim.useful_traversals") / traversals if traversals else 0.0, "ratio"),
        "vulnsim.reachable_pairs": (g("vulnsim.reachable_pairs"), "count"),
        "pipeline.self_s": (g("pipeline.self_s"), "s"),
        "pipeline.write_reports_s": (g("pipeline.write_report_csv_s")
                                     + g("pipeline.write_aggregates_csv_s")
                                     + g("pipeline.write_report_json_s"), "s"),
        "cli.self_s": (g("cli.self_s"), "s"),
        "trace.wall_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }
    return m


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main() -> None:
    started = time.monotonic()
    # every run compiles from source alike; no bytecode is left in the checkout
    sys.dont_write_bytecode = True
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "cgprune", "__init__.py")):
        fail(f"no cgprune sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import cgprune
    if os.path.dirname(os.path.dirname(os.path.abspath(cgprune.__file__))) != SRC:
        fail(f"imported cgprune from {cgprune.__file__}, not from {SRC}")
    import calibrate
    import recount
    import spans
    import workloads
    from cgprune import cli

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    with open(RECORDED, encoding="utf-8") as fh:
        recorded = json.load(fh)
    directory = os.path.join(WORK, w.name)
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)

    # set-up, repeated; the worker reads the files the last repetition wrote
    tracer = spans.Tracer() if args.trace else None
    calibration = calibrate.Calibration()
    calibrations = [calibration.measure()]
    builds, setup_totals = [], []
    for _ in range(SETUPS):
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        sizes = workloads.build_corpus(w, args.seed, directory)
        builds.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
            setup_totals.append(spans.summarize(tracer.take()))
        calibrations.append(calibration.measure())

    plan = os.path.join(directory, "plan.json")
    with open(plan, "w", encoding="utf-8") as fh:
        json.dump({"workload": w.name, "directory": directory,
                   "seconds": args.seconds, "trace": bool(args.trace)}, fh)
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), plan],
        capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=args.seconds + WORKER_SLACK_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    attempted, failed = result["attempted"], result["failed"]

    # correctness, outside the timed region
    problems = []
    ref = recorded["workloads"][w.name]["reference"]
    ref_dir = os.path.join(directory, "reference")
    os.makedirs(ref_dir)
    ref_sizes = workloads.build_corpus(w, ref["seed"], ref_dir, graphs=1)
    if [list(s) for s in ref_sizes] != [ref["nodes_edges"][0]]:
        problems.append(f"reference graph has {ref_sizes[0]} nodes/edges, "
                        f"recorded {ref['nodes_edges'][0]}")
    cmds = workloads.commands(w, ref_dir, 0)
    prints, bad = workloads.outcome(w, ref_dir, 0, cmds,
                                    workloads.execute(cli.main, cmds))
    attempted += len(cmds)
    mismatched = sum(a != b for a, b in zip(prints, ref["fingerprints"]))
    failed += max(bad, mismatched)
    if mismatched:
        problems.append("reference fingerprint differs from recorded.json")
    for i in result["graphs_run"]:
        graph = recount.Graph(*workloads.graph_files(directory, i))
        out = workloads.out_dir(directory, i)
        if w.pipeline is not None:
            found = recount.check_pipeline(
                graph, os.path.join(out, "report.json"), w.pipeline,
                workloads.RECOUNT_TOP_N)
        else:
            found = recount.check_cli(
                graph, os.path.join(out, "origins.csv"),
                os.path.join(out, "pruned.jsonl"), workloads.CLI_PRUNE_TOP_N)
        attempted += 1
        failed += bool(found)
        problems.extend(f"graph {i}: {p}" for p in found)

    if args.trace:
        setup_median = {k: statistics.median(s.get(k, 0.0) for s in setup_totals)
                        for k in {k for s in setup_totals for k in s}}
        metrics = per_layer(result["per_run"], setup_median,
                            result["traced_mean_s"], result["untraced_mean_s"])
    else:
        metrics = {
            "wall_s": (statistics.median(result["scaled_times"]), "s"),
            "setup_s": (calibrate.scale(
                statistics.median(builds) + result["first_timed_monotonic"] - spawned,
                calibrations + result["calibrations"]), "s"),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
        }

    for p in problems:
        print(f"check failed: {p}")
    for name, (value, unit) in metrics.items():
        print(f"{w.name} {name} {value:.6g} {unit}")
    times = sorted(result["scaled_times"])
    # the highest percentile with at least ten samples beyond it
    tail = len(times) - 10
    tail_text = f", p{100 * tail / len(times):.0f} {times[tail - 1]:.6g} s" if tail > 0 else ""
    print(f"{w.name} runs {len(times)}{tail_text} at reference speed; unscaled median "
          f"{statistics.median(result['times']):.6g} s, calibration mean "
          f"{statistics.fmean(calibrations + result['calibrations']):.4g} s "
          f"(reference {calibrate.REFERENCE_S} s); on {len(result['graphs_run'])} graph(s) "
          f"of ~{statistics.fmean(e for _n, e in sizes):.0f} edges; "
          f"error_rate {failed / attempted:.4g} ({failed}/{attempted} operations); "
          f"elapsed {time.monotonic() - started:.1f} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
