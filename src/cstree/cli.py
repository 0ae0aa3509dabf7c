"""Command line interface: train, prune, sweep, experiment."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .competition import LambdaGrid, run_competitions
from .costs import (
    CostDistributionSpec,
    generate_test_costs,
    load_cost_file,
    two_class_matrix,
)
from .data import load_csv, split_train_test
from .evaluation import CostBreakdown, average_cost, routed_costs
from .experiment import (
    PRUNE_FLAGS,
    ExperimentConfig,
    report_summary,
    resolve_costs,
    run_experiment,
    trial_rows,
    trial_streams,
    write_rows_csv,
    write_summary_json,
    write_trace_csv,
)
from .pruning import post_prune
from .tree import build_tree, check_training_rows, deserialize, pruned_route, serialize


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # flags are spelled in full: an abbreviation such as prune's
        # "--prune" would otherwise silently select "--prune-on-tie"
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # usage problems should exit 1 like every other validation error
    def error(self, message):
        raise ValueError(message)


def _data_flags(parser):
    parser.add_argument("--data", required=True, help="CSV file with a header row")
    parser.add_argument(
        "--label-column",
        default=None,
        help="name of the class column (default: last column)",
    )


def _cost_flags(parser):
    parser.add_argument(
        "--cost-file",
        default=None,
        help="JSON file with test_costs and/or mc_matrix",
    )
    parser.add_argument("--mc-file", default=None, help="JSON file with mc_matrix")
    parser.add_argument(
        "--mc-01",
        type=float,
        default=None,
        help="two-class penalty for predicting class 1 on a true class 0",
    )
    parser.add_argument(
        "--mc-10",
        type=float,
        default=None,
        help="two-class penalty for predicting class 0 on a true class 1",
    )


def _draw_flags(parser):
    parser.add_argument(
        "--cost-dist",
        default="uniform",
        choices=["uniform", "normal", "pareto"],
        help="distribution for drawn test costs (default uniform)",
    )
    parser.add_argument("--cost-lower", type=int, default=1)
    parser.add_argument("--cost-upper", type=int, default=10)
    parser.add_argument("--normal-mean", type=float, default=5.5)
    parser.add_argument("--normal-sd", type=float, default=2.0)
    parser.add_argument("--pareto-shape", type=float, default=2.0)


def _lambda_flags(parser):
    parser.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        default=None,
        help="single exponent; overrides the grid flags",
    )
    parser.add_argument("--lambda-start", type=float, default=-4.0)
    parser.add_argument("--lambda-end", type=float, default=0.0)
    parser.add_argument("--lambda-step", type=float, default=0.25)


def _tie_flag(parser):
    parser.add_argument(
        "--prune-on-tie",
        action="store_true",
        help="also prune when keeping and pruning cost exactly the same",
    )


def _run_flags(parser, prune_choices, prune_default):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--prune", choices=list(prune_choices), default=prune_default
    )
    parser.add_argument(
        "--no-prune",
        action="store_true",
        help="shorthand for --prune none",
    )
    _tie_flag(parser)
    parser.add_argument("--min-leaf", type=int, default=2)


def _output_flags(parser, tree_out=True):
    parser.add_argument("--out-csv", default=None)
    parser.add_argument("--out-json", default=None)
    if tree_out:
        parser.add_argument("--tree-out", default=None)


def _cost_spec(args) -> CostDistributionSpec:
    return CostDistributionSpec(
        kind=args.cost_dist,
        lower=args.cost_lower,
        upper=args.cost_upper,
        normal_mean=args.normal_mean,
        normal_sd=args.normal_sd,
        pareto_shape=args.pareto_shape,
    )


def _flag_mc(args):
    """The matrix given by --mc-file or --mc-01/--mc-10, or None."""
    if args.mc_file:
        _, mc = load_cost_file(args.mc_file)
        if mc is None:
            raise ValueError(f"{args.mc_file}: no mc_matrix key")
        return mc
    if args.mc_01 is not None or args.mc_10 is not None:
        if args.mc_01 is None or args.mc_10 is None:
            raise ValueError("--mc-01 and --mc-10 must be given together")
        return two_class_matrix(args.mc_01, args.mc_10)
    return None


def _load(args):
    """The dataset plus resolve_costs' fixed test costs (or None) and matrix."""
    dataset = load_csv(args.data, args.label_column)
    return (dataset, *resolve_costs(dataset, args.cost_file, _flag_mc(args)))


def _test_costs(args, dataset, fixed_tc):
    """The fixed test costs, else a draw from the cost stream of trial 0."""
    if fixed_tc is not None:
        return fixed_tc
    return generate_test_costs(
        _cost_spec(args), dataset.num_attributes, trial_streams(args.seed, 0)[0]
    )


def _resolve_grid(args) -> LambdaGrid:
    if args.lam is not None:
        return LambdaGrid(start=args.lam, end=args.lam, step=0.25)
    return LambdaGrid(start=args.lambda_start, end=args.lambda_end, step=args.lambda_step)


def _prune_mode(args) -> str:
    return "none" if args.no_prune else args.prune


def _mapping_lines(dataset):
    return [
        f"class {index} = {name}" for index, name in enumerate(dataset.class_names)
    ]


def _mapping_json(dataset):
    return [[index, name] for index, name in enumerate(dataset.class_names)]


def _breakdown_json(cost: CostBreakdown):
    return {
        "test_cost_total": cost.test_cost_total,
        "misclassification_total": cost.misclassification_total,
        "average": cost.average,
        "count": cost.count,
    }


def cmd_train(args) -> None:
    dataset, fixed_tc, mc = _load(args)
    tc = _test_costs(args, dataset, fixed_tc)
    lam = args.lam if args.lam is not None else 0.0
    if args.train_fraction is not None:
        train, test = split_train_test(
            dataset, args.train_fraction, trial_streams(args.seed, 0)[1]
        )
    else:
        train, test = dataset, None
    tree = build_tree(train, tc, lam, args.min_leaf)
    entries = []
    if _prune_mode(args) == "post":
        tree, entries = post_prune(tree, tc, mc, args.prune_on_tie)
    train_cost = average_cost(tree, train, tc, mc)
    nodes = tree.node_count()
    for line in _mapping_lines(dataset):
        print(line)
    print(f"lambda {lam}  nodes {nodes}  leaves {tree.leaf_count()}")
    print(
        f"training average cost {train_cost.average} "
        f"(tests {train_cost.test_cost_total}, penalties {train_cost.misclassification_total})"
    )
    report = {
        "class_mapping": _mapping_json(dataset),
        "lambda": lam,
        "test_costs": list(tc.costs),
        "nodes": nodes,
        "train": _breakdown_json(train_cost),
        "trace": entries,
    }
    if test is not None:
        test_cost = average_cost(tree, test, tc, mc)
        print(f"testing average cost {test_cost.average}")
        report["test"] = _breakdown_json(test_cost)
    if args.tree_out:
        Path(args.tree_out).write_text(serialize(tree), encoding="utf-8")
    if args.out_csv:
        write_trace_csv(entries, args.out_csv)
    if args.out_json:
        write_summary_json(report, args.out_json)


def cmd_prune(args) -> None:
    dataset, fixed_tc, mc = _load(args)
    tree = deserialize(Path(args.fixture).read_text(encoding="utf-8"))
    tc = fixed_tc if fixed_tc is not None else tree.tc_used
    if len(tc) != dataset.num_attributes:
        raise ValueError("test cost count and attribute count differ")
    leaves = check_training_rows(tree, dataset)
    pruned_tree, entries = post_prune(tree, tc, mc, args.prune_on_tie)
    # one routing for both trees: a pruned leaf's rows are its grown leaves' rows
    initial, final = routed_costs(
        [leaves, pruned_route(leaves, tree, pruned_tree)], dataset, tc, mc
    )
    for line in _mapping_lines(dataset):
        print(line)
    print(f"initial average cost {initial.average} over {initial.count} rows")
    for step, entry in enumerate(entries, start=1):
        word = "prune" if entry.pruned else "keep"
        print(
            f"step {step}: attribute {entry.attribute} "
            f"keep {entry.cost_keep.average} vs prune {entry.cost_prune.average} -> {word}"
        )
    print(f"pruned average cost {final.average}; nodes {pruned_tree.node_count()}")
    if args.out_csv:
        write_trace_csv(entries, args.out_csv)
    if args.tree_out:
        Path(args.tree_out).write_text(serialize(pruned_tree), encoding="utf-8")
    if args.out_json:
        write_summary_json(
            {
                "class_mapping": _mapping_json(dataset),
                "initial": _breakdown_json(initial),
                "pruned": _breakdown_json(final),
                "trace": entries,
            },
            args.out_json,
        )


def cmd_sweep(args) -> None:
    dataset, fixed_tc, mc = _load(args)
    tc = _test_costs(args, dataset, fixed_tc)
    grid = _resolve_grid(args)
    train, test = split_train_test(
        dataset, args.train_fraction, trial_streams(args.seed, 0)[1]
    )
    sweeps = run_competitions(
        train, tc, mc, grid, PRUNE_FLAGS[_prune_mode(args)], args.min_leaf,
        args.prune_on_tie,
    )
    rows = trial_rows(0, sweeps, test, tc, mc)
    for line in _mapping_lines(dataset):
        print(line)
    for flag, sweep in sweeps.items():
        label = "pruned" if flag else "unpruned"
        row = next(r for r in rows if r.pruned == flag and r.lam == sweep.winner_lambda)
        print(
            f"winner ({label}): lambda {sweep.winner_lambda} "
            f"train {row.train_average} test {row.test_average}"
        )
    summary = {"class_mapping": _mapping_json(dataset), "seed": args.seed}
    summary.update(report_summary(rows))
    summary["winners"] = {
        ("pruned" if flag else "unpruned"): sweep.winner_lambda
        for flag, sweep in sweeps.items()
    }
    if args.out_csv:
        write_rows_csv(rows, args.out_csv)
    if args.out_json:
        write_summary_json(summary, args.out_json)
    if args.tree_out:
        pick = sweeps[True] if True in sweeps else sweeps[False]
        Path(args.tree_out).write_text(serialize(pick.winner_tree), encoding="utf-8")


def cmd_experiment(args) -> None:
    # run_experiment checks the matrix against the dataset's classes
    mc = _flag_mc(args)
    config = ExperimentConfig(
        data_path=args.data,
        label_column=args.label_column,
        train_fraction=args.train_fraction,
        trials=args.trials,
        seed=args.seed,
        cost_spec=_cost_spec(args),
        cost_file=args.cost_file,
        mc=mc,
        grid=_resolve_grid(args),
        prune_mode=_prune_mode(args),
        min_leaf_size=args.min_leaf,
        prune_on_tie=args.prune_on_tie,
    )
    rows, summary = run_experiment(config)
    for pair in summary["class_mapping"]:
        print(f"class {pair[0]} = {pair[1]}")
    print(f"trials {summary['trials']}  rows {len(rows)}")
    for mode, stats in summary["modes"].items():
        print(f"{mode}: winner co-minimal on test in {stats['winner_comin_test_rate']:.0%} of trials")
    if "reduction" in summary:
        print(f"average reduction ratio {summary['reduction']['average_reduction_ratio']:.4f}")
    if args.out_csv:
        write_rows_csv(rows, args.out_csv)
    if args.out_json:
        write_summary_json(summary, args.out_json)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="cstree",
        description="cost-sensitive decision trees with exponent competition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="grow one tree at a single exponent")
    _data_flags(train)
    _cost_flags(train)
    _draw_flags(train)
    train.add_argument("--lambda", dest="lam", type=float, default=None)
    train.add_argument(
        "--train-fraction",
        type=float,
        default=None,
        help="hold out rows for testing; default trains on every row",
    )
    _run_flags(train, ("none", "post"), "post")
    _output_flags(train)
    train.set_defaults(func=cmd_train)

    prune = sub.add_parser("prune", help="prune a serialized tree on its training data")
    prune.add_argument("--fixture", required=True, help="tree JSON to load")
    _data_flags(prune)
    _cost_flags(prune)
    _tie_flag(prune)
    _output_flags(prune)
    prune.set_defaults(func=cmd_prune)

    sweep = sub.add_parser("sweep", help="one competition over the exponent grid")
    _data_flags(sweep)
    _cost_flags(sweep)
    _draw_flags(sweep)
    _lambda_flags(sweep)
    sweep.add_argument("--train-fraction", type=float, default=0.6)
    _run_flags(sweep, ("none", "post", "both"), "post")
    _output_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

    experiment = sub.add_parser("experiment", help="repeated randomized trials")
    _data_flags(experiment)
    _cost_flags(experiment)
    _draw_flags(experiment)
    _lambda_flags(experiment)
    experiment.add_argument("--train-fraction", type=float, default=0.6)
    experiment.add_argument("--trials", type=int, default=100)
    _run_flags(experiment, ("none", "post", "both"), "both")
    _output_flags(experiment, tree_out=False)
    experiment.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything else is a genuine runtime failure
        print(f"unexpected failure: {exc!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
