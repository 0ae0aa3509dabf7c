"""Exponent grids, the per-exponent tree competition, and how its trees
are scored on held-out rows and counted as winners across trials."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from cstree import pruning as pruning_module
from cstree import tree as tree_module
from cstree.competition import LambdaGrid, run_competition, run_competitions
from cstree.costs import (
    CostDistributionSpec,
    MisclassificationMatrix,
    TestCostVector,
    generate_test_costs,
)
from cstree.evaluation import average_cost, reduction_ratio
from cstree.experiment import TrialReportRow, report_summary, trial_rows
from cstree.pruning import post_prune
from cstree.tree import build_tree, serialize, structural_equal


class TestLambdaGrid:
    def test_default_has_seventeen_points(self):
        values = LambdaGrid().values()
        assert len(values) == 17
        assert values[0] == -4.0
        assert values[-1] == 0.0
        assert values[4] == -3.0
        diffs = {round(b - a, 9) for a, b in zip(values, values[1:])}
        assert diffs == {0.25}

    def test_single_point_grid(self):
        assert LambdaGrid(-2.0, -2.0, 0.5).values() == (-2.0,)

    def test_end_is_always_included_exactly(self):
        values = LambdaGrid(-1.0, 0.0, 0.1).values()
        assert values[-1] == 0.0
        assert len(values) == 11

    @pytest.mark.parametrize(
        "start,end,step,message",
        [
            (-1.0, 0.0, 0.0, "step"),
            (-1.0, 0.0, -0.5, "step"),
            (0.0, -1.0, 0.5, "start"),
            (-1.0, 0.5, 0.5, "zero or negative"),
            (-1.0, 0.0, 0.3, "whole number"),
        ],
    )
    def test_invalid_grids(self, start, end, step, message):
        with pytest.raises(ValueError, match=message):
            LambdaGrid(start, end, step)


class TestRunCompetition:
    def test_winner_minimises_training_average(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            ds = support.random_dataset(rng, max_rows=40)
            tc = support.random_costs(rng, ds.num_attributes)
            mc = support.random_matrix(rng, ds.num_classes)
            result = run_competition(ds, tc, mc)
            averages = [r.train_cost.average for r in result.records]
            winner = result.record_for(result.winner_lambda)
            assert winner.train_cost.average == min(averages)

    def test_tie_goes_to_largest_exponent(self, sample, example_mc):
        # unit costs make every exponent grow the same tree, so the
        # training averages all tie and zero must win
        ones = TestCostVector((1.0,) * 8)
        result = run_competition(sample, ones, example_mc)
        assert result.winner_lambda == 0.0
        baseline = result.records[0]
        for record in result.records:
            assert structural_equal(record.tree, baseline.tree)
            assert record.train_cost == baseline.train_cost

    def test_respects_single_point_grid(self, sample, table_costs, example_mc):
        result = run_competition(
            sample, table_costs, example_mc, LambdaGrid(-2.0, -2.0, 1.0)
        )
        assert [r.lam for r in result.records] == [-2.0]
        assert result.winner_lambda == -2.0

    def test_pruning_never_hurts_any_competitor(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            ds = support.random_dataset(rng, max_rows=40)
            tc = support.random_costs(rng, ds.num_attributes)
            mc = support.random_matrix(rng, ds.num_classes)
            grid = LambdaGrid(-3.0, 0.0, 1.0)
            raw = run_competition(ds, tc, mc, grid, prune=False)
            cut = run_competition(ds, tc, mc, grid, prune=True)
            for a, b in zip(raw.records, cut.records):
                assert a.lam == b.lam
                assert b.train_cost.average <= a.train_cost.average + 1e-9

    def test_deterministic(self, sample, table_costs, example_mc):
        first = run_competition(sample, table_costs, example_mc)
        second = run_competition(sample, table_costs, example_mc)
        assert first.winner_lambda == second.winner_lambda
        assert serialize(first.winner_tree) == serialize(second.winner_tree)
        for a, b in zip(first.records, second.records):
            assert a.train_cost == b.train_cost

    def test_records_follow_grid_order(self, sample, table_costs, example_mc):
        result = run_competition(
            sample, table_costs, example_mc, LambdaGrid(-1.0, 0.0, 0.5)
        )
        assert [r.lam for r in result.records] == [-1.0, -0.5, 0.0]

    def test_record_for_unknown_exponent(self, sample, table_costs, example_mc):
        result = run_competition(
            sample, table_costs, example_mc, LambdaGrid(-1.0, 0.0, 0.5)
        )
        with pytest.raises(ValueError, match="no record"):
            result.record_for(-0.25)


class TestWithTestCosts:
    def test_fills_every_record(self, sample, table_costs, example_mc):
        train, test = support.partition(sample, 1, 125.5)
        sweeps = run_competitions(
            train, table_costs, example_mc, LambdaGrid(-1.0, 0.0, 0.5), (False, True)
        )
        report = trial_rows(4, sweeps, test, table_costs, example_mc)
        # by exponent, then unpruned before pruned
        assert [(r.lam, r.pruned) for r in report] == [
            (lam, flag) for lam in (-1.0, -0.5, 0.0) for flag in (False, True)
        ]
        for row in report:
            record = sweeps[row.pruned].record_for(row.lam)
            assert row.trial == 4
            assert row.train_average == record.train_cost.average
            assert row.test_average == average_cost(
                record.tree, test, table_costs, example_mc
            ).average
            assert row.tree_nodes == record.tree.node_count()
            assert (row.reduction is None) == (not row.pruned)


def _positions(root):
    """Every position under ``root`` as (node, attributes tested above it,
    its chain of (attribute, threshold, side) tests from the root)."""
    stack = [(root, frozenset(), ())]
    while stack:
        node, path, chain = stack.pop()
        yield node, path, chain
        if not node.is_leaf:
            deeper = path | {node.attribute}
            test = (node.attribute, node.threshold)
            stack += [(node.left, deeper, chain + (test + (0,),)),
                      (node.right, deeper, chain + (test + (1,),))]


class TestSharedTrees:
    """A node that several exponents' trees share is pruned once and its
    rows are cut once, and every report figure stays what a loop over the
    exponents gives."""

    def test_decides_and_routes_each_shared_node_once(self, sample, example_mc, monkeypatch):
        decided, splits = [], []

        def deciding(node, path, *args):
            decided.append((node, path))
            return decide(node, path, *args)

        def splitting(*args):
            splits.append(args)
            return split_rows(*args)

        decide, split_rows = pruning_module._decide, tree_module._split_rows
        monkeypatch.setattr(pruning_module, "_decide", deciding)
        monkeypatch.setattr(tree_module, "_split_rows", splitting)
        test = support.partition(sample, 1, 125.5)[1]
        visits = decisions = 0
        for seed in range(8):
            tc = generate_test_costs(CostDistributionSpec(), 8, np.random.default_rng(seed))
            decided.clear()
            splits.clear()
            sweeps = run_competitions(sample, tc, example_mc, prune_flags=(False, True))
            trained = len(splits)
            trial_rows(seed, sweeps, test, tc, example_mc)
            grown = {record.tree.root for record in sweeps[False].records}
            # every position of every distinct grown tree, as (node, path)
            positions = [(node, path) for root in grown for node, path, _ in _positions(root)]
            visits, decisions = visits + len(positions), decisions + len(decided)
            # one decision per distinct (node, path), however many trees hold it
            assert len(decided) == len(set(decided)) == len(set(positions))
            # one cut per distinct chain of tests, the node's own test
            # included, on each dataset
            chains = {
                chain + ((node.attribute, node.threshold),)
                for sweep in sweeps.values()
                for record in sweep.records
                for node, _, chain in _positions(record.tree.root)
                if not node.is_leaf
            }
            assert trained == len(splits) - trained == len(chains)
        # the distinct trees of a competition still share nodes, which a
        # pass per tree would decide again
        assert decisions < visits

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 4),
        min_leaf=st.integers(1, 2),
        prune_on_tie=st.booleans(),
    )
    def test_matches_a_per_exponent_loop(self, seed, k, min_leaf, prune_on_tie):
        rng = np.random.default_rng(seed)
        ds = support.random_dataset(rng, max_rows=50, max_classes=k)
        k = ds.num_classes
        # fractional costs, whose sums show the order of additions
        tc = TestCostVector(tuple(rng.uniform(0.1, 10.0, ds.num_attributes)))
        penalties = rng.uniform(0.1, 100.0, size=(k, k))
        np.fill_diagonal(penalties, 0.0)
        mc = MisclassificationMatrix(tuple(tuple(row) for row in penalties))
        shuffled = rng.permutation(len(ds))
        cut = len(ds) * 3 // 5
        train, test = ds.take(np.sort(shuffled[:cut])), ds.take(shuffled[cut:])
        grid = LambdaGrid()
        sweeps = run_competitions(train, tc, mc, grid, (False, True), min_leaf, prune_on_tie)
        rows = trial_rows(3, sweeps, test, tc, mc)
        expected = []
        for i, lam in enumerate(grid.values()):
            grown = build_tree(train, tc, lam, min_leaf)
            pruned = post_prune(grown, tc, mc, prune_on_tie)[0]
            trained = {}
            for flag, tree in ((False, grown), (True, pruned)):
                record = sweeps[flag].records[i]
                trained[flag] = average_cost(tree, train, tc, mc)
                assert record.lam == lam
                assert (record.tree.lambda_used, record.tree.tc_used) == (lam, tc)
                assert serialize(record.tree) == serialize(tree)
                assert repr(record.train_cost) == repr(trained[flag])
            before, after = trained[False].average, trained[True].average
            for flag, tree in ((False, grown), (True, pruned)):
                saved = None
                if flag:
                    saved = reduction_ratio(before, after) if before > 0 else 0.0
                expected.append(
                    TrialReportRow(
                        3, lam, flag, trained[flag].average,
                        average_cost(tree, test, tc, mc).average, tree.node_count(), saved,
                    )
                )
        assert [repr(row) for row in rows] == [repr(row) for row in expected]


def _rows(trial, test_averages, pruned=False):
    """Hand-made report rows of one trial, one per (exponent, test average)."""
    return [
        TrialReportRow(trial, lam, pruned, train_average=1.0, test_average=avg, tree_nodes=1)
        for lam, avg in test_averages
    ]


def _win_counts(rows):
    return report_summary(rows)["modes"]["unpruned"]["win_counts"]


class TestWinCounts:
    """report_summary's win counts: how often each exponent's tree reaches
    the minimal test cost of a trial."""

    def test_unique_minimum(self):
        rows = _rows(0, [(-1.0, 5.0), (-0.5, 3.0), (0.0, 4.0)]) + _rows(
            1, [(-1.0, 2.0), (-0.5, 3.0), (0.0, 4.0)]
        )
        assert _win_counts(rows) == {"-1.0": 1, "-0.5": 1, "0.0": 0}

    def test_ties_credit_everyone_at_the_minimum(self):
        rows = _rows(0, [(-1.0, 3.0), (-0.5, 3.0), (0.0, 9.0)])
        assert _win_counts(rows) == {"-1.0": 1, "-0.5": 1, "0.0": 0}

    def test_counts_can_exceed_sweep_count(self):
        rows = _rows(0, [(-1.0, 3.0), (-0.5, 3.0), (0.0, 3.0)]) + _rows(
            1, [(-1.0, 1.0), (-0.5, 1.0), (0.0, 2.0)]
        )
        assert sum(_win_counts(rows).values()) == 5

    def test_mismatched_grids_rejected(self):
        rows = _rows(0, [(-1.0, 3.0), (0.0, 4.0)]) + _rows(1, [(-2.0, 3.0), (0.0, 4.0)])
        with pytest.raises(ValueError, match="cover every trial and exponent"):
            report_summary(rows)

    def test_missing_test_cost_rejected(self):
        # the pruned competition of trial 1 has no test cost at -1
        rows = (
            _rows(0, [(-1.0, 3.0), (0.0, 4.0)])
            + _rows(0, [(-1.0, 3.0), (0.0, 4.0)], pruned=True)
            + _rows(1, [(-1.0, 3.0), (0.0, 4.0)])
            + _rows(1, [(0.0, 4.0)], pruned=True)
        )
        with pytest.raises(ValueError, match="cover every trial and exponent"):
            report_summary(rows)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            report_summary([])
