"""Command-line interface.

Subcommands mirror the analysis stages: `gen` (synthetic corpora), `origins`
and `derivatives` (frequency tables), `localness` (per-origin level
distributions), `prune` (exhaustive or oracle-gated), `vuln-sim`
(vulnerability reachability, optionally diffing a pruned variant), and
`pipeline` (the whole batch run from a config file).

Exit codes: 0 success, 2 usage error (argparse), 3 validation error
(malformed or inconsistent inputs), 4 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import errno
import logging
import os
import sys
from typing import Callable, Sequence

from .io import (
    apply_core_prefixes,
    load_call_graph,
    load_hierarchy,
    save_call_graph,
    save_hierarchy,
)
from .localness import LocalnessOptions, label_all, localness_distribution
from .model import CallGraph, GraphError, TypeHierarchy
from .origins import (
    OriginRef,
    build_exclusion_list,
    find_origins,
    origin_edge_frequencies,
    unique_derivative_counts,
)
from .pipeline import (
    MODES,
    ConfigError,
    PipelineConfig,
    run_pipeline,
    write_aggregates_csv,
    write_report_csv,
    write_report_json,
)
from .pruning import (
    ORACLES,
    load_exclusion_list,
    prune_exhaustive,
    prune_selective,
    save_exclusion_list,
)
from .synth import GenParams, generate_call_graph_cha, generate_hierarchy
from .vulnsim import (
    ProjectRoleMap,
    compare,
    inject_artificial_cves,
    load_assignment,
    propagate,
    save_assignment,
)


def _checked(
    convert: Callable[[str], float], ok: Callable[[float], bool], rule: str
) -> Callable[[str], float]:
    """An argparse `type=` that converts the text, then insists on `rule`,
    so an out-of-range flag is a usage error (exit 2) like a malformed one."""
    def check(text: str) -> float:
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    check.__name__ = convert.__name__  # argparse says "invalid int value: ..."
    return check


_non_negative_int = _checked(int, lambda v: v >= 0, "non-negative")
_positive_int = _checked(int, lambda v: v > 0, "positive")
_unit_float = _checked(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("hierarchy", help="hierarchy interchange file")
    p.add_argument("callgraph", help="call graph interchange file")
    p.add_argument(
        "--core-prefix",
        action="append",
        default=[],
        metavar="PREFIX",
        help="treat types whose name or package is PREFIX or lies inside it "
             "(PREFIX.*) as core library (repeatable)",
    )


def _load_inputs(args: argparse.Namespace) -> tuple[TypeHierarchy, CallGraph]:
    h = apply_core_prefixes(load_hierarchy(args.hierarchy), args.core_prefix)
    cg = load_call_graph(args.callgraph, h)
    return h, cg


def _open_out(path: str | None):
    if path is None:
        return sys.stdout
    return open(path, "w", newline="", encoding="utf-8")


def _write_rows(path: str | None, header: list[str], rows: list[list[object]]) -> None:
    out = _open_out(path)
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        params = GenParams(
            type_count=args.types,
            max_parents_per_type=args.max_parents,
            signature_pool_size=args.sig_pool,
            override_probability=args.override_prob,
            call_sites_per_method=tuple(args.call_sites),
            project_count=args.projects,
            core_type_fraction=args.core_fraction,
            seed=args.seed,
        )
    except ValueError as exc:
        # GenParams checks the flags' ranges, so this is a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    h = generate_hierarchy(params)
    cg = generate_call_graph_cha(h, params)
    save_hierarchy(h, args.out_hierarchy)
    save_call_graph(cg, args.out_callgraph)
    print(
        f"generated {len(h.types)} types, {cg.node_count} methods, "
        f"{cg.edge_count} edges (seed {params.seed})"
    )
    return 0


def _write_ranked_origins(
    args: argparse.Namespace,
    h: TypeHierarchy,
    rows: Sequence[tuple[OriginRef, int]],
    count_column: str,
) -> None:
    """The first `args.top` (0 = all) ranked (origin, count) rows as CSV."""
    _write_rows(
        args.out,
        ["rank", "origin_type", "origin_fq", "signature", count_column],
        [
            [i + 1, o.origin_type, h.node(o.origin_type).fq_name,
             o.signature.to_text(), count]
            for i, (o, count) in enumerate(rows[: args.top or None])
        ],
    )


def cmd_origins(args: argparse.Namespace) -> int:
    h, cg = _load_inputs(args)
    origins = find_origins(cg, h)
    if origins.ambiguous:
        print(
            f"note: {len(origins.ambiguous)} target(s) had multiple candidate "
            f"origins; picked by (depth, type id)",
            file=sys.stderr,
        )
    table = origin_edge_frequencies(cg, origins)
    _write_ranked_origins(args, h, table.rows, "edge_count")
    return 0


def cmd_derivatives(args: argparse.Namespace) -> int:
    h, cg = _load_inputs(args)
    origins = find_origins(cg, h)
    counts = unique_derivative_counts(cg, origins)
    _write_ranked_origins(args, h, counts, "derivative_count")
    return 0


def cmd_localness(args: argparse.Namespace) -> int:
    h, cg = _load_inputs(args)
    options = LocalnessOptions(
        extended_hierarchy=not args.strict_hierarchy,
        package_boundary=args.package_boundary,
    )
    origins = find_origins(cg, h)
    table = origin_edge_frequencies(cg, origins)
    top = [o for o, _ in table.top(args.top)]
    labels = label_all(cg, h, options)
    dist = localness_distribution(origins, labels, top)
    rows = []
    for origin in top:
        levels = dist.per_origin[origin]
        cells = list(levels) if levels is not None else ["", "", "", ""]
        rows.append([origin.render(h), *cells])
    _write_rows(args.out, ["origin", "level0", "level1", "level2", "level3"], rows)
    return 0


def cmd_prune(args: argparse.Namespace) -> int:
    h, cg = _load_inputs(args)
    if args.exclusion_file:
        excl = load_exclusion_list(args.exclusion_file, h)
    else:
        origins = find_origins(cg, h)
        table = origin_edge_frequencies(cg, origins)
        excl = build_exclusion_list(table, args.top_n)
    if args.mode == "exhaustive":
        result = prune_exhaustive(cg, excl, h)
    else:
        result = prune_selective(cg, excl, h, ORACLES[args.oracle](), args.threshold)
    # a missing target directory fails, with the error `open` gives, before
    # either file is written
    for path in (args.save_exclusion, args.out):
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if args.save_exclusion:
        save_exclusion_list(excl, args.save_exclusion, h)
    save_call_graph(result.pruned_graph, args.out)
    print(
        f"candidates {result.candidate_edges}, pruned {result.pruned_edges}, "
        f"kept {result.pruned_graph.edge_count} of {cg.edge_count} edges "
        f"(reduction {result.reduction_ratio:.4f}) in {result.elapsed:.4f}s"
    )
    if result.oracle_failures:
        print(
            f"note: oracle failed on {result.oracle_failures} edge(s); kept them",
            file=sys.stderr,
        )
    return 0


def cmd_vuln_sim(args: argparse.Namespace) -> int:
    h, cg = _load_inputs(args)
    if not h.application_types(args.app_project):
        raise GraphError(f"project {args.app_project!r} has no application type")
    roles = ProjectRoleMap(application_project_id=args.app_project)
    if args.assignment_in:
        assignment = load_assignment(args.assignment_in, cg)
    else:
        assignment = inject_artificial_cves(
            cg, h, roles, args.cves, args.seed, include_core=args.include_core
        )
    # read and check every input before the assignment file is written
    pruned_cg = None
    if args.compare_to:
        pruned_cg = load_call_graph(args.compare_to, h)
        absent = min(assignment.vulnerable - pruned_cg.nodes, default=None)
        if absent is not None:
            print(f"error: {args.compare_to}: graph lacks vulnerable method "
                  f"{absent.uid} of the assignment", file=sys.stderr)
            return 3
    if args.assignment_out:
        save_assignment(assignment, args.assignment_out)
    base = propagate(
        cg, assignment, roles, h,
        warmup=args.warmup, repetitions=args.repetitions,
    )
    print(
        f"base: {len(assignment.vulnerable)} vulnerable, "
        f"{base.reachable_pairs} reachable pairs, "
        f"fraction {base.reachable_vuln_fraction:.4f}, "
        f"elapsed {base.elapsed:.4f}s"
    )
    if pruned_cg is not None:
        pruned = propagate(
            pruned_cg, assignment, roles, h,
            warmup=args.warmup, repetitions=args.repetitions,
        )
        delta = compare(base, pruned)
        print(
            f"pruned: {pruned.reachable_pairs} reachable pairs, "
            f"fraction {pruned.reachable_vuln_fraction:.4f}, "
            f"elapsed {pruned.elapsed:.4f}s"
        )
        print(
            f"delta: pairs {delta.pair_delta:+d}, "
            f"fraction {delta.fraction_delta:+.4f}, "
            f"speedup {delta.speedup:.2f}x"
        )
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    config = PipelineConfig.from_file(args.config)
    report = run_pipeline(config)
    os.makedirs(args.out_dir, exist_ok=True)
    write_report_csv(report, os.path.join(args.out_dir, "report.csv"))
    write_aggregates_csv(report, os.path.join(args.out_dir, "aggregates.csv"))
    write_report_json(report, os.path.join(args.out_dir, "report.json"))
    print(
        f"corpus {report.corpus}: {len(report.graphs)} graph(s), "
        f"{len(report.records)} record(s), {len(report.errors)} error(s); "
        f"reports in {args.out_dir}"
    )
    for err in report.errors:
        print(f"error: {err.graph_id} failed at {err.stage}: {err.message}",
              file=sys.stderr)
    if report.errors and not report.records:
        return 4
    return 0


def _gen_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-hierarchy", required=True, metavar="PATH")
    p.add_argument("--out-callgraph", required=True, metavar="PATH")
    p.add_argument("--seed", type=int, default=GenParams.seed)
    p.add_argument("--types", type=int, default=GenParams.type_count)
    p.add_argument("--max-parents", type=int, default=GenParams.max_parents_per_type)
    p.add_argument("--sig-pool", type=int, default=GenParams.signature_pool_size)
    p.add_argument("--override-prob", type=float, default=GenParams.override_probability)
    p.add_argument("--call-sites", type=int, nargs=2, default=GenParams.call_sites_per_method,
                   metavar=("LOW", "HIGH"))
    p.add_argument("--projects", type=int, default=GenParams.project_count)
    p.add_argument("--core-fraction", type=float, default=GenParams.core_type_fraction)


def _ranking_arguments(p: argparse.ArgumentParser) -> None:
    _add_input_args(p)
    p.add_argument("--top", type=_non_negative_int, default=10,
                   help="rows to emit (0 = all)")
    p.add_argument("--out", metavar="CSV", help="output file (default stdout)")


def _localness_arguments(p: argparse.ArgumentParser) -> None:
    _add_input_args(p)
    p.add_argument("--top", type=_non_negative_int, default=10,
                   help="origins to report (0 = none)")
    p.add_argument("--strict-hierarchy", action="store_true",
                   help="count only ancestor/descendant pairs as same hierarchy")
    p.add_argument("--package-boundary", action="store_true",
                   help="draw the level-2/3 line between packages, not projects")
    p.add_argument("--out", metavar="CSV", help="output file (default stdout)")


def _prune_arguments(p: argparse.ArgumentParser) -> None:
    _add_input_args(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--top-n", type=_non_negative_int, metavar="N",
                       help="build the exclusion list from the Top-N origins")
    group.add_argument("--exclusion-file", metavar="PATH",
                       help="load a saved exclusion list instead")
    p.add_argument("--out", required=True, metavar="PATH",
                   help="where to write the pruned call graph")
    p.add_argument("--mode", choices=MODES, default=PipelineConfig.mode)
    p.add_argument("--oracle", choices=list(ORACLES),
                   default=PipelineConfig.oracle, help="decision oracle for selective mode")
    p.add_argument("--threshold", type=_unit_float, default=PipelineConfig.threshold,
                   help="selective mode prunes only above this confidence")
    p.add_argument("--save-exclusion", metavar="PATH",
                   help="also save the exclusion list that was applied")


def _vuln_sim_arguments(p: argparse.ArgumentParser) -> None:
    _add_input_args(p)
    p.add_argument("--app-project", required=True,
                   help="project id whose methods count as application code")
    p.add_argument("--cves", type=_positive_int, default=PipelineConfig.cve_count,
                   help="how many dependency methods to mark vulnerable")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--include-core", action="store_true",
                   help="let core-library methods be marked vulnerable")
    p.add_argument("--assignment-in", metavar="PATH",
                   help="reuse a saved vulnerability assignment")
    p.add_argument("--assignment-out", metavar="PATH",
                   help="save the vulnerability assignment")
    p.add_argument("--compare-to", metavar="PATH",
                   help="pruned call graph to diff against")
    p.add_argument("--warmup", type=_non_negative_int, default=PipelineConfig.warmup)
    p.add_argument("--repetitions", type=_positive_int, default=PipelineConfig.repetitions)


def _pipeline_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, metavar="PATH")
    p.add_argument("--out-dir", default=".", metavar="DIR")


# name -> (help, argument adder, handler), in listing order
_COMMANDS = {
    "gen": ("generate a synthetic hierarchy and call graph", _gen_arguments, cmd_gen),
    "origins": ("rank origins by caused-edge frequency", _ranking_arguments, cmd_origins),
    "derivatives": ("rank origins by unique derivative count", _ranking_arguments,
                    cmd_derivatives),
    "localness": ("per-origin localness level distribution", _localness_arguments,
                  cmd_localness),
    "prune": ("prune edges targeting excluded derivatives", _prune_arguments, cmd_prune),
    "vuln-sim": ("inject artificial CVEs and measure reachability", _vuln_sim_arguments,
                 cmd_vuln_sim),
    "pipeline": ("run the batch pipeline from a config file", _pipeline_arguments,
                 cmd_pipeline),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `cgprune` argument parser.

    When `command` names a subcommand, only its subparser is built, with its
    arguments and handler: the six other `ArgumentParser`s, even without
    arguments, cost more than building and parsing the one command, and a
    one-shot command pays them on every run.  The top-level usage still
    lists every subcommand, through the subparsers' `metavar`.  When
    `command` names none, every subparser is built, so the top-level help
    is whole.
    """
    parser = argparse.ArgumentParser(
        prog="cgprune",
        description="Origin-method-guided call graph pruning and "
                    "vulnerability reachability analysis",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log stage progress to stderr"
    )
    every = command not in _COMMANDS
    chosen = _COMMANDS if every else {command: _COMMANDS[command]}
    # one subparser still shows the usage the full parser derives from its
    # choices; the full parser sets no metavar, since its error for a
    # missing subcommand names `command`
    sub = parser.add_subparsers(dest="command", required=True, metavar=None if every
                                else "{" + ",".join(_COMMANDS) + "}")
    for name, (help_text, add_arguments, handler) in chosen.items():
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # The top-level options take no value, so the first token other than
    # --verbose is the subcommand argparse will dispatch to, when it names
    # one.  Any other token there, such as -h, --help or an abbreviation of
    # either, gets the full parser, whose help lists every subcommand.
    command = next((a for a in argv if a != "--verbose"), None)
    args = build_parser(command).parse_args(argv)
    # basicConfig does nothing once the root logger has a handler, so the
    # level is set on every call
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(logging.INFO if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except (GraphError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
