"""Repeatable trial harness and report writers.

A run makes ``trials`` independent passes over one dataset. Each trial
draws fresh test costs (unless a fixed cost file pins them), splits the
rows into train and test, grows one tree per grid exponent, optionally
prunes, and measures average costs on both sides of the split. Reports
are deterministic: rerunning a configuration reproduces the CSV and the
JSON summary byte for byte.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .competition import LambdaGrid, run_competitions
from .costs import (
    CostDistributionSpec,
    MisclassificationMatrix,
    TestCostVector,
    _sum_in_order,
    generate_test_costs,
    load_cost_file,
    two_class_matrix,
)
from .data import Dataset, load_csv, split_train_test
from .evaluation import average_costs, average_reduction_ratio, reduction_ratio
from .pruning import PruneTraceEntry
from .tree import DEFAULT_MIN_LEAF, node_counts

__all__ = [
    "ExperimentConfig",
    "TrialReportRow",
    "trial_streams",
    "resolve_costs",
    "run_experiment",
    "trial_rows",
    "report_summary",
    "write_rows_csv",
    "write_summary_json",
    "write_trace_csv",
    "DEFAULT_MC",
]

# prune mode -> the prune flags of the competitions it reports
PRUNE_FLAGS = {"none": (False,), "post": (True,), "both": (False, True)}
PRUNE_MODES = tuple(PRUNE_FLAGS)

# Used for two-class data whenever no matrix is supplied explicitly.
DEFAULT_MC = two_class_matrix(500.0, 50.0)

CSV_COLUMNS = (
    "trial",
    "lambda",
    "pruned",
    "train_avg_cost",
    "test_avg_cost",
    "tree_nodes",
    "reduction_ratio",
)

TRACE_COLUMNS = (
    "step",
    "attribute",
    "tc_keep",
    "mc_keep",
    "ac_keep",
    "tc_prune",
    "mc_prune",
    "ac_prune",
    "instances",
    "pruned",
)


def trial_streams(master_seed: int, trial: int):
    """Two independent generators for one trial, replayable in isolation.

    Streams are keyed by the tuple (master_seed, trial, purpose):
    purpose 0 draws test costs, purpose 1 draws the train/test split.
    """
    if master_seed < 0:
        raise ValueError("master seed must be nonnegative")
    if trial < 0:
        raise ValueError("trial index must be nonnegative")
    costs_rng = np.random.default_rng([master_seed, trial, 0])
    split_rng = np.random.default_rng([master_seed, trial, 1])
    return costs_rng, split_rng


@dataclass
class ExperimentConfig:
    """Everything a run needs; defaults follow the standard protocol."""

    data_path: str | Path
    label_column: str | None = None
    train_fraction: float = 0.6
    trials: int = 100
    seed: int = 0
    cost_spec: CostDistributionSpec = field(default_factory=CostDistributionSpec)
    cost_file: str | Path | None = None
    mc: MisclassificationMatrix | None = None
    grid: LambdaGrid = field(default_factory=LambdaGrid)
    prune_mode: str = "both"
    min_leaf_size: int = DEFAULT_MIN_LEAF
    prune_on_tie: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.prune_mode not in PRUNE_MODES:
            raise ValueError(f"prune_mode must be one of {PRUNE_MODES}")
        if self.min_leaf_size < 1:
            raise ValueError("min_leaf_size must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class TrialReportRow:
    """One (trial, exponent, prune flag) measurement."""

    trial: int
    lam: float
    pruned: bool
    train_average: float
    test_average: float
    tree_nodes: int
    reduction: float | None = None


def resolve_costs(
    dataset: Dataset,
    cost_file: str | Path | None = None,
    mc: MisclassificationMatrix | None = None,
):
    """The fixed test costs and the misclassification matrix for a dataset.

    Returns ``(TestCostVector | None, MisclassificationMatrix)``. The test
    costs are the cost file's, or None when they are to be drawn. The
    matrix is ``mc``, else the cost file's, else DEFAULT_MC for two-class
    data. Both must fit the dataset's attribute and class counts.
    """
    fixed_tc, file_mc = load_cost_file(cost_file) if cost_file is not None else (None, None)
    mc = mc or file_mc
    if mc is None:
        if dataset.num_classes != 2:
            raise ValueError(
                "a misclassification matrix is required for more than two classes"
            )
        mc = DEFAULT_MC
    if mc.num_classes != dataset.num_classes:
        raise ValueError("matrix classes and dataset classes differ")
    if fixed_tc is not None and len(fixed_tc) != dataset.num_attributes:
        raise ValueError("cost file length and attribute count differ")
    return fixed_tc, mc


def run_experiment(config: ExperimentConfig):
    """Run all trials; returns (rows, summary)."""
    dataset = load_csv(config.data_path, config.label_column)
    fixed_tc, mc = resolve_costs(dataset, config.cost_file, config.mc)
    rows: list[TrialReportRow] = []
    for trial in range(config.trials):
        costs_rng, split_rng = trial_streams(config.seed, trial)
        if fixed_tc is not None:
            tc = fixed_tc
        else:
            tc = generate_test_costs(config.cost_spec, dataset.num_attributes, costs_rng)
        train, test = split_train_test(dataset, config.train_fraction, split_rng)
        sweeps = run_competitions(
            train, tc, mc, config.grid, PRUNE_FLAGS[config.prune_mode],
            config.min_leaf_size, config.prune_on_tie,
        )
        rows += trial_rows(trial, sweeps, test, tc, mc)
    summary = {
        "trials": config.trials,
        "seed": config.seed,
        "prune_mode": config.prune_mode,
        "class_mapping": [
            [index, name] for index, name in enumerate(dataset.class_names)
        ],
    }
    summary.update(report_summary(rows))
    return rows, summary


def trial_rows(
    trial: int,
    sweeps: dict,
    test: Dataset,
    tc: TestCostVector,
    mc: MisclassificationMatrix,
) -> list[TrialReportRow]:
    """Rows of one trial's competitions (run_competitions' result), by
    exponent and then unpruned before pruned, with held-out costs. A pruned
    row carries its reduction ratio when the unpruned competition ran too.
    Every distinct tree is costed on the test rows in one average_costs
    call, and counted once."""
    rows = []
    trees = {}  # root node -> a record's tree that holds it
    for sweep in sweeps.values():
        for record in sweep.records:
            trees.setdefault(record.tree.root, record.tree)
    held_out = average_costs(trees.values(), test, tc, mc)
    measured = {  # root node -> (held-out average, node count)
        root: (cost.average, nodes)
        for root, cost, nodes in zip(trees, held_out, node_counts(list(trees)))
    }
    for records in zip(*(sweep.records for sweep in sweeps.values())):
        by_flag = dict(zip(sweeps, records))
        for flag, record in by_flag.items():
            saved = None
            if flag and False in by_flag:
                before = by_flag[False].train_cost.average
                after = record.train_cost.average
                # a tree that charges nothing has nothing to reduce
                saved = reduction_ratio(before, after) if before > 0 else 0.0
            test_average, nodes = measured[record.tree.root]
            rows.append(
                TrialReportRow(
                    trial=trial,
                    lam=record.lam,
                    pruned=flag,
                    train_average=record.train_cost.average,
                    test_average=test_average,
                    tree_nodes=nodes,
                    reduction=saved,
                )
            )
    return rows


def _lam_key(lam: float) -> str:
    return repr(float(lam))


def _mode_stats(rows, lams, trials):
    by_trial = {trial: {} for trial in trials}
    for row in rows:
        if row.lam in by_trial[row.trial]:
            raise ValueError("duplicate row for one trial and exponent")
        by_trial[row.trial][row.lam] = row
    if any(len(seen) != len(lams) for seen in by_trial.values()):
        raise ValueError("rows do not cover every trial and exponent")
    per_lambda = {}
    for lam in lams:
        column = [by_trial[trial][lam] for trial in trials]
        per_lambda[_lam_key(lam)] = {
            "mean_train_avg_cost": _sum_in_order(r.train_average for r in column) / len(column),
            "mean_test_avg_cost": _sum_in_order(r.test_average for r in column) / len(column),
            # node counts are ints, which every Python version sums exactly
            "mean_tree_nodes": sum(r.tree_nodes for r in column) / len(column),
        }
    counts = {_lam_key(lam): 0 for lam in lams}
    winner_hits = 0
    for trial in trials:
        trial_rows = by_trial[trial]
        lowest_test = min(r.test_average for r in trial_rows.values())
        for lam in lams:
            if trial_rows[lam].test_average == lowest_test:
                counts[_lam_key(lam)] += 1
        lowest_train = min(r.train_average for r in trial_rows.values())
        winner = max(lam for lam in lams if trial_rows[lam].train_average == lowest_train)
        if trial_rows[winner].test_average == lowest_test:
            winner_hits += 1
    return {
        "per_lambda": per_lambda,
        "win_counts": counts,
        "winner_comin_test_rate": winner_hits / len(trials),
    }


def report_summary(rows) -> dict:
    """Aggregate trial rows; everything here is recomputable from the CSV.

    Per prune mode, ``win_counts`` credits every exponent whose test
    average ties the trial's minimum, so the counts can sum to more than
    the number of trials. Every trial must have exactly one row per
    exponent of the grid.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("need at least one row")
    lams = sorted({row.lam for row in rows})
    trials = sorted({row.trial for row in rows})
    summary: dict = {"grid": lams, "modes": {}}
    unpruned = [row for row in rows if not row.pruned]
    pruned = [row for row in rows if row.pruned]
    if unpruned:
        summary["modes"]["unpruned"] = _mode_stats(unpruned, lams, trials)
    if pruned:
        summary["modes"]["pruned"] = _mode_stats(pruned, lams, trials)
    measured = [row for row in pruned if row.reduction is not None]
    if measured:
        per_lambda = {}
        for lam in lams:
            column = [row.reduction for row in measured if row.lam == lam]
            if column:
                per_lambda[_lam_key(lam)] = _sum_in_order(column) / len(column)
        summary["reduction"] = {
            "per_lambda_mean": per_lambda,
            "average_reduction_ratio": average_reduction_ratio(per_lambda.values()),
        }
    return summary


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_rows_csv(rows, path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    _cell(row.trial),
                    _cell(row.lam),
                    _cell(row.pruned),
                    _cell(row.train_average),
                    _cell(row.test_average),
                    _cell(row.tree_nodes),
                    _cell(row.reduction),
                ]
            )


# one PruneTraceEntry as json.dumps(..., indent=2) writes its object in
# the list that is a report's "trace" value
_TRACE_ENTRY = """{{
      "step": {},
      "node": {},
      "attribute": {},
      "keep": {{
        "test_cost_total": {},
        "misclassification_total": {},
        "average": {},
        "count": {}
      }},
      "prune": {{
        "test_cost_total": {},
        "misclassification_total": {},
        "average": {},
        "count": {}
      }},
      "instances": {},
      "pruned": {}
    }}"""


def _float_json(value: float) -> str:
    """A float as json spells it."""
    if value != value:
        return "NaN"
    if value in (math.inf, -math.inf):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


def _write_trace(fh, entries) -> None:
    """Write ``entries`` as the JSON list of their objects: step (counted
    from 1), node, attribute, the keep and prune breakdowns, instances and
    pruned. One entry is rendered and written at a time."""
    separator = "[\n    "
    for step, entry in enumerate(entries, start=1):
        keep, prune = entry.cost_keep, entry.cost_prune
        fh.write(separator + _TRACE_ENTRY.format(
            int.__repr__(step),
            encode_basestring_ascii(entry.node_id),
            int.__repr__(entry.attribute),
            _float_json(keep.test_cost_total),
            _float_json(keep.misclassification_total),
            _float_json(keep.average),
            int.__repr__(keep.count),
            _float_json(prune.test_cost_total),
            _float_json(prune.misclassification_total),
            _float_json(prune.average),
            int.__repr__(prune.count),
            int.__repr__(entry.instance_count),
            "true" if entry.pruned else "false",
        ))
        separator = ",\n    "
    fh.write("\n  ]" if entries else "[]")


def write_summary_json(report: dict, path) -> None:
    """Write a report, a dict with string keys, as ``json.dump(report, fh,
    indent=2)`` writes it, plus a final newline. Every JSON report of the
    CLI (``--out-json``) is written here.

    Each top-level value is rendered by ``json.dumps(value, indent=2)`` and
    indented one level. A value that is a list of PruneTraceEntry is
    written as the list of the entries' JSON objects (see _write_trace),
    spelled as json spells their numbers, strings and booleans, without
    building them as dicts first.
    """
    with Path(path).open("w", encoding="utf-8") as fh:
        separator = "{\n  "
        for key, value in report.items():
            fh.write(separator + encode_basestring_ascii(key) + ": ")
            if isinstance(value, list) and value and isinstance(value[0], PruneTraceEntry):
                _write_trace(fh, value)
            else:
                fh.write(json.dumps(value, indent=2).replace("\n", "\n  "))
            separator = ",\n  "
        fh.write("\n}\n" if report else "{}\n")


def write_trace_csv(entries: list[PruneTraceEntry], path) -> None:
    """One row per pruning decision, in decision order."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for step, entry in enumerate(entries, start=1):
            writer.writerow(
                [
                    _cell(step),
                    _cell(entry.attribute),
                    _cell(entry.cost_keep.test_cost_total),
                    _cell(entry.cost_keep.misclassification_total),
                    _cell(entry.cost_keep.average),
                    _cell(entry.cost_prune.test_cost_total),
                    _cell(entry.cost_prune.misclassification_total),
                    _cell(entry.cost_prune.average),
                    _cell(entry.instance_count),
                    _cell(entry.pruned),
                ]
            )
