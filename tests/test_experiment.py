"""Trial harness determinism, aggregation, and report files."""

import json

import numpy as np
import pytest

from cstree.competition import LambdaGrid
from cstree.costs import CostDistributionSpec, two_class_matrix
from cstree.experiment import (
    DEFAULT_MC,
    ExperimentConfig,
    TrialReportRow,
    report_summary,
    run_experiment,
    trial_streams,
    write_rows_csv,
    write_summary_json,
    write_trace_csv,
)


class TestTrialStreams:
    def test_replayable(self):
        a_costs, a_split = trial_streams(7, 3)
        b_costs, b_split = trial_streams(7, 3)
        assert a_costs.integers(0, 1000, 5).tolist() == b_costs.integers(0, 1000, 5).tolist()
        assert a_split.integers(0, 1000, 5).tolist() == b_split.integers(0, 1000, 5).tolist()

    def test_purposes_are_independent(self):
        costs_rng, split_rng = trial_streams(7, 3)
        assert costs_rng.integers(0, 10**9, 8).tolist() != split_rng.integers(0, 10**9, 8).tolist()

    def test_trials_are_independent(self):
        first, _ = trial_streams(7, 0)
        second, _ = trial_streams(7, 1)
        assert first.integers(0, 10**9, 8).tolist() != second.integers(0, 10**9, 8).tolist()

    def test_seeds_are_independent(self):
        first, _ = trial_streams(0, 5)
        second, _ = trial_streams(1, 5)
        assert first.integers(0, 10**9, 8).tolist() != second.integers(0, 10**9, 8).tolist()

    @pytest.mark.parametrize("seed,trial", [(-1, 0), (0, -1)])
    def test_rejects_negative_keys(self, seed, trial):
        with pytest.raises(ValueError):
            trial_streams(seed, trial)


class TestExperimentConfig:
    def test_defaults(self, sample_path):
        config = ExperimentConfig(data_path=sample_path)
        assert config.trials == 100
        assert config.train_fraction == 0.6
        assert config.prune_mode == "both"
        assert config.grid.values()[0] == -4.0
        assert config.cost_spec.kind == "uniform"

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"trials": 0}, "at least one trial"),
            ({"prune_mode": "pre"}, "prune_mode"),
            ({"min_leaf_size": 0}, "min_leaf_size"),
            ({"seed": -1}, "seed"),
        ],
    )
    def test_validation(self, sample_path, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(data_path=sample_path, **kwargs)


def small_config(sample_path, **overrides):
    base = dict(
        data_path=sample_path,
        trials=3,
        seed=11,
        grid=LambdaGrid(-2.0, 0.0, 1.0),
        prune_mode="both",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_row_grid_covers_everything(self, sample_path):
        rows, summary = run_experiment(small_config(sample_path))
        assert len(rows) == 3 * 3 * 2
        seen = {(r.trial, r.lam, r.pruned) for r in rows}
        assert len(seen) == len(rows)
        assert {r.trial for r in rows} == {0, 1, 2}
        assert {r.lam for r in rows} == {-2.0, -1.0, 0.0}
        assert summary["trials"] == 3
        assert summary["seed"] == 11
        assert summary["class_mapping"] == [[0, "0"], [1, "1"]]

    def test_prune_mode_none(self, sample_path):
        rows, summary = run_experiment(small_config(sample_path, prune_mode="none"))
        assert len(rows) == 9
        assert not any(r.pruned for r in rows)
        assert all(r.reduction is None for r in rows)
        assert set(summary["modes"]) == {"unpruned"}

    def test_prune_mode_post(self, sample_path):
        rows, summary = run_experiment(small_config(sample_path, prune_mode="post"))
        assert len(rows) == 9
        assert all(r.pruned for r in rows)
        # without the unpruned baseline there is no ratio to report
        assert all(r.reduction is None for r in rows)
        assert set(summary["modes"]) == {"pruned"}
        assert "reduction" not in summary

    def test_reduction_recomputable_from_rows(self, sample_path):
        rows, _ = run_experiment(small_config(sample_path))
        by_key = {(r.trial, r.lam, r.pruned): r for r in rows}
        for (trial, lam, pruned), row in by_key.items():
            if not pruned:
                continue
            before = by_key[(trial, lam, False)].train_average
            assert before > 0
            expected = (before - row.train_average) / before
            assert row.reduction == pytest.approx(expected, rel=1e-12)
            assert row.train_average <= before + 1e-9

    def test_pruned_trees_never_larger(self, sample_path):
        rows, _ = run_experiment(small_config(sample_path))
        by_key = {(r.trial, r.lam, r.pruned): r for r in rows}
        for (trial, lam, pruned), row in by_key.items():
            if pruned:
                assert row.tree_nodes <= by_key[(trial, lam, False)].tree_nodes

    def test_summary_aggregates_match_rows(self, sample_path):
        rows, summary = run_experiment(small_config(sample_path))
        pruned = [r for r in rows if r.pruned]
        stats = summary["modes"]["pruned"]
        for lam in (-2.0, -1.0, 0.0):
            column = [r for r in pruned if r.lam == lam]
            got = stats["per_lambda"][repr(lam)]
            assert got["mean_train_avg_cost"] == pytest.approx(
                sum(r.train_average for r in column) / 3, rel=1e-12
            )
            assert got["mean_test_avg_cost"] == pytest.approx(
                sum(r.test_average for r in column) / 3, rel=1e-12
            )
            assert got["mean_tree_nodes"] == pytest.approx(
                sum(r.tree_nodes for r in column) / 3, rel=1e-12
            )
        assert sum(stats["win_counts"].values()) >= 3
        assert 0.0 <= stats["winner_comin_test_rate"] <= 1.0

        per_lam = summary["reduction"]["per_lambda_mean"]
        assert set(per_lam) == {repr(-2.0), repr(-1.0), repr(0.0)}
        means = list(per_lam.values())
        assert summary["reduction"]["average_reduction_ratio"] == pytest.approx(
            sum(means) / len(means), rel=1e-12
        )

    def test_identical_reruns(self, sample_path, tmp_path):
        config_a = small_config(sample_path)
        config_b = small_config(sample_path)
        rows_a, summary_a = run_experiment(config_a)
        rows_b, summary_b = run_experiment(config_b)
        assert rows_a == rows_b
        assert json.dumps(summary_a, sort_keys=True) == json.dumps(summary_b, sort_keys=True)

        a_csv, b_csv = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows_csv(rows_a, a_csv)
        write_rows_csv(rows_b, b_csv)
        assert a_csv.read_bytes() == b_csv.read_bytes()

        a_json, b_json = tmp_path / "a.json", tmp_path / "b.json"
        write_summary_json(summary_a, a_json)
        write_summary_json(summary_b, b_json)
        assert a_json.read_bytes() == b_json.read_bytes()

    def test_seed_changes_the_draws(self, sample_path):
        rows_a, _ = run_experiment(small_config(sample_path, seed=11))
        rows_b, _ = run_experiment(small_config(sample_path, seed=12))
        assert rows_a != rows_b

    def test_fixed_cost_file(self, sample_path, costs_file_path):
        rows, _ = run_experiment(
            small_config(sample_path, cost_file=costs_file_path, trials=2)
        )
        assert len(rows) == 2 * 3 * 2

    def test_cost_file_arity_mismatch(self, sample_path, tmp_path):
        bad = tmp_path / "short.json"
        bad.write_text(json.dumps({"test_costs": [1, 2]}), encoding="utf-8")
        with pytest.raises(ValueError, match="attribute count"):
            run_experiment(small_config(sample_path, cost_file=bad))

    def test_three_classes_need_an_explicit_matrix(self, tmp_path):
        lines = ["a1,a2,class"]
        for i, label in enumerate(["x", "y", "z"] * 4):
            lines.append(f"{i},{i % 3},{label}")
        path = tmp_path / "three.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="matrix is required"):
            run_experiment(small_config(path))

    def test_zero_cost_baseline_reports_zero_reduction(self, sample_path, tmp_path):
        # a stump with an all-zero penalty matrix charges nothing, so the
        # saving is defined as zero rather than a division error
        free = tmp_path / "free.json"
        free.write_text(
            json.dumps(
                {"test_costs": [1] * 8, "mc_matrix": [[0.0, 0.0], [0.0, 0.0]]}
            ),
            encoding="utf-8",
        )
        rows, _ = run_experiment(
            small_config(
                sample_path,
                cost_file=free,
                min_leaf_size=100,
                trials=1,
                grid=LambdaGrid(0.0, 0.0, 1.0),
            )
        )
        for row in rows:
            assert row.tree_nodes == 1
            assert row.train_average == 0.0
            assert row.test_average == 0.0
            if row.pruned:
                assert row.reduction == 0.0

    def test_default_matrix_used_for_two_classes(self, sample_path):
        config = small_config(sample_path, trials=1)
        assert config.mc is None
        rows, _ = run_experiment(config)
        assert rows  # ran with DEFAULT_MC
        assert DEFAULT_MC.cost(0, 1) == 500.0
        assert DEFAULT_MC.cost(1, 0) == 50.0


class TestReportSummary:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one row"):
            report_summary([])

    def test_rejects_duplicate_rows(self):
        row = TrialReportRow(
            trial=0, lam=-1.0, pruned=True, train_average=1.0, test_average=1.0, tree_nodes=1
        )
        with pytest.raises(ValueError, match="duplicate"):
            report_summary([row, row])


class TestWriters:
    def test_rows_csv_cell_formats(self, tmp_path):
        rows = [
            TrialReportRow(
                trial=0,
                lam=-0.25,
                pruned=False,
                train_average=8.375,
                test_average=115.0 / 15.0,
                tree_nodes=5,
                reduction=None,
            ),
            TrialReportRow(
                trial=1,
                lam=0.0,
                pruned=True,
                train_average=1.0,
                test_average=2.0,
                tree_nodes=3,
                reduction=0.35,
            ),
        ]
        path = tmp_path / "rows.csv"
        write_rows_csv(rows, path)
        text = path.read_text(encoding="utf-8")
        assert "\r" not in text
        lines = text.splitlines()
        assert lines[0] == "trial,lambda,pruned,train_avg_cost,test_avg_cost,tree_nodes,reduction_ratio"
        assert lines[1] == "0,-0.25,false,8.375,7.666666666666667,5,"
        assert lines[2] == "1,0.0,true,1.0,2.0,3,0.35"

    def test_trace_csv(self, bound_fixture, table_costs, example_mc, tmp_path):
        from cstree.pruning import post_prune

        _, trace = post_prune(bound_fixture, table_costs, example_mc)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == (
            "step,attribute,tc_keep,mc_keep,ac_keep,tc_prune,mc_prune,ac_prune,"
            "instances,pruned"
        )
        assert len(lines) == 5
        second = lines[2].split(",")
        assert second[0] == "2"
        assert second[1] == "4"
        assert second[2] == "120.0"
        assert second[3] == "0.0"
        assert second[4] == "8.0"
        assert second[5] == "15.0"
        assert second[6] == "100.0"
        assert float(second[7]) == pytest.approx(115 / 15, rel=1e-12)
        assert second[8] == "15"
        assert second[9] == "true"
        flags = [line.split(",")[-1] for line in lines[1:]]
        assert flags == ["false", "true", "false", "false"]

    def test_summary_json_round_trips(self, sample_path, tmp_path):
        _, summary = run_experiment(small_config(sample_path, trials=1))
        path = tmp_path / "summary.json"
        write_summary_json(summary, path)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert json.loads(text) == json.loads(json.dumps(summary))


def _breakdown_dict(cost):
    return {
        "test_cost_total": cost.test_cost_total,
        "misclassification_total": cost.misclassification_total,
        "average": cost.average,
        "count": cost.count,
    }


def _trace_dicts(entries):
    """The trace as the dicts the report writer must spell out."""
    return [
        {
            "step": step,
            "node": entry.node_id,
            "attribute": entry.attribute,
            "keep": _breakdown_dict(entry.cost_keep),
            "prune": _breakdown_dict(entry.cost_prune),
            "instances": entry.instance_count,
            "pruned": entry.pruned,
        }
        for step, entry in enumerate(entries, start=1)
    ]


def _odd_entries():
    """Trace entries whose figures json spells in every way it can."""
    from cstree.evaluation import CostBreakdown
    from cstree.pruning import PruneTraceEntry

    odd = [-0.0, 5e-324, 1e308, 0.1, float("nan"), float("inf"), float("-inf"), 1e16, 2.5]
    return [
        PruneTraceEntry(
            node_id, attribute,
            CostBreakdown(odd[i % 9], odd[(i + 1) % 9], odd[(i + 2) % 9], 2**53 + i),
            CostBreakdown(odd[(i + 3) % 9], odd[(i + 4) % 9], odd[(i + 5) % 9], i),
            2**63 - 1 - i, bool(i % 2),
        )
        for i, (node_id, attribute) in enumerate(
            [("root", 0), ("root.left", 3), ("root.right.léft", 12), ("root.\"q\"", 1)] * 3
        )
    ]


class TestReportWriter:
    """write_summary_json writes every report as json.dump with indent=2
    does; the stdlib is the reference."""

    def check(self, tmp_path, report, reference):
        path = tmp_path / "report.json"
        write_summary_json(report, path)
        assert path.read_text(encoding="utf-8") == json.dumps(reference, indent=2) + "\n"

    def test_plain_values(self, tmp_path):
        report = {
            "class_mapping": [[0, "gamma"], [1, "café"], [2, "温度☃"]],
            "seed": 2**53 + 1,
            "zeros": [-0.0, 0.0, 5e-324, 1e308, -1e308, 1e16, 0.1],
            "big": -(2**64),
            "nested": {"a": {"b": [], "c": {}}, "d": [1, [2, [3]]], "e": None, "f": True},
            "empty trace": [],
            "text": "line\nbreak \"quoted\" \\ tab\t",
            "non-finite": [float("nan"), float("inf"), float("-inf")],
        }
        self.check(tmp_path, report, report)

    def test_trace_entries(self, tmp_path):
        entries = _odd_entries()
        report = {"class_mapping": [[0, "é"]], "initial": {"average": -0.0},
                  "trace": entries}
        self.check(tmp_path, report, {**report, "trace": _trace_dicts(entries)})

    def test_train_report_with_test_after_trace(self, tmp_path):
        entries = _odd_entries()[:2]
        report = {"class_mapping": [[0, "0"], [1, "1"]], "lambda": -0.0,
                  "test_costs": [1.5, 5e-324], "nodes": 5,
                  "train": {"average": 1e308, "count": 2**60}, "trace": entries,
                  "test": {"average": 0.1, "count": 3}}
        self.check(tmp_path, report, {**report, "trace": _trace_dicts(entries)})

    def test_empty_trace_and_empty_report(self, tmp_path):
        self.check(tmp_path, {"trace": []}, {"trace": []})
        self.check(tmp_path, {}, {})

    def test_pruning_trace_of_the_fixture(self, tmp_path, bound_fixture, table_costs, example_mc):
        from cstree.pruning import post_prune

        _, entries = post_prune(bound_fixture, table_costs, example_mc)
        assert entries
        report = {"initial": 1.0, "trace": entries}
        self.check(tmp_path, report, {**report, "trace": _trace_dicts(entries)})
