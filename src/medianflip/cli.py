"""Command line front end.

Subcommands: gen (synthesize an instance), solve (equilibrium stats),
optimize (one method at one budget), flip (smallest flipping budget),
bench (experiment config file), jaccard (stooge-set similarity from a
JSON report). Exit codes: 0 success, 2 invalid input, 3 solver failure.
"""

import argparse
import json
import sys
from csv import writer as csv_writer
from dataclasses import fields

from .bench import (
    METHOD_OPTIONS,
    METHODS,
    ExperimentConfig,
    ExperimentReport,
    RunRecord,
    compare_stooges,
    emit_report,
    method_answer,
    run_experiment,
)
from .equilibrium import SolverError
from .generators import DISTRIBUTIONS, TOPOLOGIES, GeneratorSpec, generate
from .instance_io import (
    InstanceIOError,
    instance_stats,
    load_edge_list,
    load_instance,
    read_json_object,
    save_instance,
)
from .network import NetworkError
from .treedp import MODES

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SOLVER = 3


def _parse_param(text):
    key, sep, raw = text.partition("=")
    if not sep:
        raise ValueError(f"expected KEY=VALUE, got {text!r}")
    if raw.lower() in ("true", "false"):
        return key, raw.lower() == "true"
    if "," in raw:
        return key, tuple(int(v) for v in raw.split(","))
    try:
        value = int(raw)
    except ValueError:
        value = float(raw)
    return key, value


def _add_instance_args(parser):
    parser.add_argument("--instance", help="canonical instance document")
    parser.add_argument("--edges", help="edge-list file (pair format)")
    parser.add_argument("--opinions", help="opinions file (pair format)")
    parser.add_argument("--directed", action="store_true",
                        help="treat the edge list as directed")


def _load_from_args(args):
    if args.instance:
        return load_instance(args.instance)
    if args.edges:
        if not args.opinions:
            raise InstanceIOError("--edges requires --opinions")
        return load_edge_list(args.edges, args.opinions,
                              directed=args.directed)
    raise InstanceIOError("need --instance or --edges/--opinions")


def _cmd_gen(args):
    params = dict(_parse_param(p) for p in args.param)
    spec = GeneratorSpec(topology=args.topology, dist=args.dist,
                         seed=args.seed, params=params,
                         opinion_file=args.opinion_file)
    instance = generate(spec)
    save_instance(instance, args.out)
    print(f"wrote {args.out}: n={instance.network.node_count} "
          f"m={instance.network.edge_count}")
    return EXIT_OK


def _cmd_solve(args):
    instance = _load_from_args(args)
    stats = instance_stats(instance)
    if args.json:
        print(json.dumps(stats._asdict()))
    else:
        print(f"n {stats.n}")
        print(f"m {stats.m}")
        print(f"median {stats.median:.6f}")
        print(f"mean {stats.mean:.6f}")
    return EXIT_OK


def _add_method_args(parser):
    add = parser.add_argument
    add("--method", required=True, choices=METHODS)
    add("--theta", type=float, default=0.5)
    add("--seed", type=int, default=None)
    add("--phi", type=float, default=None)
    add("--c", type=float, default=None,
        help="huber tuning constant (default: picked by find_c)")
    add("--tau", type=float, default=None)
    add("--eta", type=float, default=None)
    add("--max-iters", dest="max_iters", type=int, default=None)
    add("--mode", default=None, choices=MODES, help="tree-dp stooge mode")


def _method_params(args):
    """The options given; method_runner rejects those the method ignores."""
    names = {name for names in METHOD_OPTIONS.values() for name in names}
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def _write_trace(path, trace):
    with open(path, "w", newline="") as fh:
        out = csv_writer(fh)
        out.writerow(("iteration", "surrogate", "true_median", "l1_used"))
        for entry in trace:
            out.writerow((entry.iteration, entry.surrogate,
                          entry.true_median, entry.l1_used))


def _budget_text(budget):
    """A whole budget as an integer, any other as its shortest repr, so
    that the printed budget reads back as the same float."""
    budget = float(budget)
    return str(int(budget)) if budget.is_integer() else repr(budget)


def _cmd_optimize(args):
    instance = _load_from_args(args)
    _, result = method_answer(instance, args.method, theta=args.theta,
                              seed=args.seed, params=_method_params(args),
                              budget=args.budget)
    # one write: a 10 000-node ascent can move thousands of stooges
    print("\n".join([
        f"method {args.method}",
        f"budget {_budget_text(args.budget)}",
        f"flipped {'true' if result.flipped else 'false'}",
        f"final_median {result.final_median:.6f}",
        f"l0_used {result.l0_budget_used}",
        f"l1_used {result.l1_budget_used:.6f}",
        # %s, not %r: a numpy scalar's repr names its type
        *map("stooge %d %s".__mod__, result.stooges.items())]))
    if args.trace:
        _write_trace(args.trace, result.objective_trace)
    if args.out:
        modified = instance.with_alpha(result.alpha_final)
        if result.s_final is not None:
            modified = modified.with_s(result.s_final)
        save_instance(modified, args.out)
    return EXIT_OK


def _cmd_flip(args):
    instance = _load_from_args(args)
    found, _ = method_answer(instance, args.method, theta=args.theta,
                             seed=args.seed, params=_method_params(args),
                             max_budget=args.max_budget,
                             resolution=args.resolution)
    if found is None:
        print("no flipping budget found")
        return EXIT_OK
    print(f"budget_to_flip {_budget_text(found)}")
    print(f"percent_of_n "
          f"{100.0 * found / instance.network.node_count:.2f}")
    return EXIT_OK


def _from_doc(cls, doc, where, *args):
    """cls(*args, **doc); a doc that is not an object, keys that name no
    field of cls, missing required keys and values of the wrong kind
    are invalid input."""
    if not isinstance(doc, dict):
        raise InstanceIOError(f"{where} is not a JSON object")
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise InstanceIOError(f"unknown keys {sorted(unknown)} in {where}")
    try:
        return cls(*args, **doc)
    except TypeError as exc:
        raise InstanceIOError(f"{where}: {exc}") from exc


def _cmd_bench(args):
    doc = read_json_object(args.config)
    source = doc.pop("instance", None)
    # the config is checked before its instance is loaded or generated
    config = _from_doc(ExperimentConfig, doc, "config", None)
    if isinstance(source, str):
        config.instance = load_instance(source)
    elif isinstance(source, dict):
        config.instance = generate(_from_doc(GeneratorSpec, source,
                                             "config 'instance'"))
    else:
        raise InstanceIOError(
            "config 'instance' must be a path or a spec object")
    report = run_experiment(config)
    emit_report(report, args.out, format="csv")
    if args.json:
        emit_report(report, args.json, format="json")
    for method, agg in report.aggregates.items():
        mean_b = agg["mean_budget"]
        shown = "-" if mean_b is None else f"{mean_b:.2f}"
        print(f"{method}: mean_budget {shown} successes {agg['successes']} "
              f"failures {agg['failures']}")
    return EXIT_OK


def _cmd_jaccard(args):
    rows = read_json_object(args.report).get("records", [])
    if not isinstance(rows, list):
        raise InstanceIOError(f"{args.report}: 'records' is not a list")
    records = [_from_doc(RunRecord, r, "report record") for r in rows]
    matrix, methods = compare_stooges(ExperimentReport(records, {}))
    print(" ".join(methods))
    for row in matrix:
        print(" ".join(f"{v:.3f}" for v in row))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="medianflip",
        description="Opinion-dynamics equilibria and median interventions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic instance")
    p.add_argument("--topology", required=True, choices=TOPOLOGIES)
    p.add_argument("--dist", default="normal", choices=DISTRIBUTIONS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--param", action="append", default=[],
                   metavar="KEY=VALUE", help="topology parameter override")
    p.add_argument("--opinion-file", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="equilibrium statistics")
    _add_instance_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("optimize", help="run one method at one budget")
    _add_instance_args(p)
    _add_method_args(p)
    p.add_argument("--budget", type=float, required=True,
                   help="stooge count (continuous methods use half in l1)")
    p.add_argument("--trace", default=None,
                   help="write the objective trace CSV here")
    p.add_argument("--out", default=None,
                   help="write the modified instance here")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("flip", help="search the smallest flipping budget")
    _add_instance_args(p)
    _add_method_args(p)
    p.add_argument("--max-budget", dest="max_budget", type=float,
                   default=None, help="search cap in stooges (default n)")
    p.add_argument("--resolution", type=float, default=0.5,
                   help="continuous search resolution in stooges")
    p.set_defaults(func=_cmd_flip)

    p = sub.add_parser("bench", help="run an experiment config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="report.csv")
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("jaccard", help="stooge similarity from a report")
    p.add_argument("--report", required=True,
                   help="JSON report written by bench")
    p.set_defaults(func=_cmd_jaccard)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceIOError, NetworkError, ValueError, OSError,
            json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (SolverError, RuntimeError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
