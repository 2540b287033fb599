"""Record the reference values run.py checks and the figures kept beside them.

Usage (from the root of a checkout):

    python3 perfbench/record.py fingerprints
    python3 perfbench/record.py shares [--seconds N]
    python3 perfbench/record.py noise [--runs 10] [--seconds N] [--workload NAME]

`fingerprints` writes, per workload, the node and edge counts of the
reference seed's corpus and the output fingerprint of its first graph.  Run
it only when a change is meant to alter results or the generator, and say
so.  `shares` runs each workload traced and records each layer's self time
as a share of the traced run.  `noise` runs each workload on seeds
1..runs and records the quartiles of every end-to-end metric, the spread
the bounds in BENCHMARK.json were set against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from cgprune import cli  # noqa: E402
from run import RECORDED, WORK  # noqa: E402

REFERENCE_SEED = 0
LAYERS = ("cli", "pipeline", "io", "model", "origins", "localness", "pruning", "vulnsim")


def run_bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fingerprints(recorded: dict) -> None:
    for w in workloads.WORKLOADS.values():
        directory = os.path.join(WORK, "record", w.name)
        os.makedirs(directory, exist_ok=True)
        sizes = workloads.build_corpus(w, REFERENCE_SEED, directory)
        cmds = workloads.commands(w, directory, 0)
        prints, failed = workloads.outcome(
            w, directory, 0, cmds, workloads.execute(cli.main, cmds))
        if failed:
            sys.exit(f"{w.name}: reference run failed")
        entry = recorded["workloads"].setdefault(w.name, {})
        entry["reference"] = {
            "seed": REFERENCE_SEED,
            "graphs": w.graphs,
            "types_per_graph": w.types,
            "nodes_edges": [list(s) for s in sizes],
            "fingerprints": prints,
        }
        print(w.name, sizes, prints)


def shares(recorded: dict, seconds: float) -> None:
    for name in workloads.WORKLOADS:
        m = {k: v["value"] for k, v in run_bench(name, REFERENCE_SEED, seconds, 1)["metrics"].items()}
        wall = m["trace.wall_s"]
        share = {layer: m[f"{layer}.self_s"] / wall for layer in LAYERS}
        share["pruning.prune_s+model.reverse_adjacency_s"] = (
            m["pruning.prune_s"] + m["model.reverse_adjacency_s"]) / wall
        recorded["workloads"][name]["share_of_traced_wall_s"] = {
            k: round(v, 4) for k, v in share.items()}
        top = max(LAYERS, key=lambda layer: share[layer])
        print(f"{name}: largest self time in {top}; vulnsim.calls {m['vulnsim.calls']:g}; "
              f"io+model share {share['io'] + share['model']:.3f}; "
              f"prune+reverse_adjacency share "
              f"{share['pruning.prune_s+model.reverse_adjacency_s']:.3f}")


def noise(recorded: dict, runs: int, seconds: float, names: list[str]) -> None:
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in range(1, runs + 1):
            result = run_bench(name, seed, seconds, 0)
            if not result["correct"]:
                sys.exit(f"{name} seed {seed}: incorrect result")
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        table = {}
        for metric, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            table[metric] = {"q1": q1, "median": med, "q3": q3,
                             "iqr_over_median": (q3 - q1) / med, "values": vs}
            print(f"{name} {metric} median {med:.4g} iqr/median {(q3 - q1) / med:.3f}")
        recorded["workloads"][name]["noise"] = {
            "seeds": list(range(1, runs + 1)), "seconds": seconds, "metrics": table}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("fingerprints", "shares", "noise"))
    parser.add_argument("--runs", type=int, default=10)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        run_seconds = json.load(fh)["run_seconds"]
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    recorded = {"workloads": {}}
    if os.path.exists(RECORDED):
        with open(RECORDED, encoding="utf-8") as fh:
            recorded = json.load(fh)
    if args.what == "fingerprints":
        fingerprints(recorded)
    elif args.what == "shares":
        shares(recorded, args.seconds)
    else:
        noise(recorded, args.runs, args.seconds, args.workload or list(workloads.WORKLOADS))
    with open(RECORDED, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
