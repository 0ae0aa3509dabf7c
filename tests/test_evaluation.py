"""Average-cost accounting and reduction ratios."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import support
from cstree.costs import MisclassificationMatrix, TestCostVector, two_class_matrix
from cstree.data import Dataset
from cstree.evaluation import (
    CostBreakdown,
    average_cost,
    average_costs,
    average_reduction_ratio,
    reduction_ratio,
    routed_costs,
)
from cstree.pruning import post_prune
from cstree.tree import (
    DecisionTree,
    TreeNode,
    build_tree,
    check_training_rows,
    deserialize,
    pruned_route,
    route,
    serialize,
)


class TestCostBreakdown:
    def test_average_is_total_over_count(self):
        b = CostBreakdown.from_totals(201.0, 0.0, 24)
        assert b.average == 201.0 / 24
        assert b.test_cost_total == 201.0
        assert b.misclassification_total == 0.0
        assert b.count == 24

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one instance"):
            CostBreakdown.from_totals(1.0, 1.0, 0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(0, 1e6, allow_nan=False),
        st.floats(0, 1e6, allow_nan=False),
        st.integers(1, 500),
    )
    def test_invariant(self, tests, penalties, count):
        b = CostBreakdown.from_totals(tests, penalties, count)
        assert b.average == pytest.approx((tests + penalties) / count, rel=1e-12)


class TestAverageCost:
    def test_fixture_tree_on_its_own_sample(
        self, bound_fixture, sample, table_costs, example_mc
    ):
        b = average_cost(bound_fixture, sample, table_costs, example_mc)
        assert b.test_cost_total == 201.0
        assert b.misclassification_total == 0.0
        assert b.average == 201.0 / 24
        assert b.count == 24

    def test_single_leaf_majority_vote(self, sample, table_costs, example_mc):
        # a stump never pays for tests; it misclassifies the 9 minority rows
        stump = build_tree(
            sample, table_costs, 0.0, min_leaf_size=100
        )
        assert stump.root.is_leaf
        b = average_cost(stump, sample, table_costs, example_mc)
        assert b.test_cost_total == 0.0
        assert b.misclassification_total == 9 * 50.0
        assert b.average == 450.0 / 24

    def test_distinct_attributes_charged_once(self, bound_fixture, sample, example_mc):
        # rows through the left arm test attribute 1 twice but pay once
        ones = TestCostVector((1.0,) * 8)
        b = average_cost(bound_fixture, sample, ones, example_mc)
        # every row tests exactly two distinct attributes
        assert b.test_cost_total == 2.0 * 24

    def test_asymmetric_penalties(self, sample, table_costs):
        stump = build_tree(sample, table_costs, 0.0, min_leaf_size=100)
        lopsided = two_class_matrix(500.0, 50.0)
        flipped = two_class_matrix(50.0, 500.0)
        cheap = average_cost(stump, sample, table_costs, lopsided)
        dear = average_cost(stump, sample, table_costs, flipped)
        assert cheap.misclassification_total == 9 * 50.0
        assert dear.misclassification_total == 9 * 500.0

    def test_empty_subset_rejected(self, sample):
        # a row subset is a Dataset, which has at least one row, so there is
        # never an empty set of rows to average over
        with pytest.raises(ValueError, match="at least one instance"):
            sample.take([])

    def test_class_count_mismatch_rejected(self, bound_fixture, table_costs):
        three = Dataset.from_arrays(
            np.zeros((2, 8)), [0, 1], class_names=("a", "b")
        )
        wide = MisclassificationMatrix(((0, 1, 1), (1, 0, 1), (1, 1, 0)))
        with pytest.raises(ValueError, match="differ"):
            average_cost(bound_fixture, three, table_costs, wide)

    def test_subset_scoped_not_whole_dataset(
        self, bound_fixture, sample, table_costs, example_mc
    ):
        half = sample.take(np.arange(12))
        b = average_cost(bound_fixture, half, table_costs, example_mc)
        assert b.count == 12
        whole = average_cost(
            bound_fixture, sample, table_costs, example_mc
        )
        rest = average_cost(
            bound_fixture,
            sample.take(np.arange(12, 24)),
            table_costs,
            example_mc,
        )
        assert b.test_cost_total + rest.test_cost_total == whole.test_cost_total

    def test_matches_manual_walk(self, sample, table_costs, example_mc):
        rng = np.random.default_rng(5)
        for _ in range(10):
            ds = support.random_dataset(rng, max_classes=2)
            tc = support.random_costs(rng, ds.num_attributes)
            mc = support.random_matrix(rng, ds.num_classes)
            tree = build_tree(ds, tc, -1.0)
            got = average_cost(tree, ds, tc, mc)
            from cstree.tree import classify

            expect_tests = 0.0
            expect_penalty = 0.0
            for row, label in zip(ds.features, ds.labels):
                predicted, tested = classify(tree, row)
                expect_tests += sum(tc.cost(a) for a in tested)
                expect_penalty += mc.cost(int(label), predicted)
            assert got.test_cost_total == pytest.approx(expect_tests, rel=1e-12)
            assert got.misclassification_total == pytest.approx(expect_penalty, rel=1e-12)


class TestAverageCostOracle:
    """average_cost against the per-row walker of tests/oracles.py, with
    fractional costs so that every field must match to the last bit."""

    @staticmethod
    def case(seed, k, n=1200):
        rng = np.random.default_rng(seed)
        m = 8
        features = np.round(rng.normal(50.0, 10.0, size=(n, m)), 1)
        score = features[:, 0] + 0.5 * features[:, 2] + rng.normal(0.0, 6.0, n)
        labels = np.digitize(score, np.quantile(score, np.linspace(0, 1, k + 1)[1:-1]))
        ds = Dataset.from_arrays(features, labels, class_names=tuple(map(str, range(k))))
        # full-precision costs: adding them in another order changes the sums
        tc = TestCostVector(tuple(rng.uniform(0.1, 9.9, m)))
        values = np.round(rng.uniform(0.1, 99.9, size=(k, k)), 1)
        np.fill_diagonal(values, 0.0)
        mc = MisclassificationMatrix(tuple(map(tuple, values)))
        return rng, ds, tc, mc

    @staticmethod
    def assert_matches(tree, rows, tc, mc):
        got = average_cost(tree, rows, tc, mc)
        tests, penalties, mean = oracles.average_cost_json(
            serialize(tree),
            rows.features.tolist(),
            rows.labels.tolist(),
            list(tc.costs),
            [list(row) for row in mc.rows],
        )
        assert (got.test_cost_total, got.misclassification_total, got.average, got.count) == (
            tests, penalties, mean, len(rows)
        )

    @pytest.mark.parametrize("seed, k", [(1, 2), (2, 3)])
    def test_grown_and_deserialized_trees(self, seed, k):
        rng, ds, tc, mc = self.case(seed, k)
        order = rng.permutation(len(ds))
        train = ds.take(np.sort(order[:800]))
        unsorted = ds.take(order[300:])
        for lam in (-2.0, 0.0):
            tree = build_tree(train, tc, lam, min_leaf_size=1)
            assert tree.node_count() > 100
            for candidate in (tree, deserialize(serialize(tree))):
                for rows in (train, unsorted, ds):
                    self.assert_matches(candidate, rows, tc, mc)

    def test_root_leaf_tree(self):
        rng, ds, tc, mc = self.case(3, 3)
        hist = np.bincount(ds.labels, minlength=3)
        leaf = DecisionTree(
            TreeNode(histogram=hist, predicted_class=int(np.argmax(hist))), -1.0, tc
        )
        got = average_cost(leaf, ds, tc, mc)
        assert got.test_cost_total == 0.0
        self.assert_matches(leaf, ds.take(rng.permutation(len(ds))), tc, mc)


class TestPrunedRoute:
    """One routing of a grown tree serves its pruned tree: each pruned
    leaf gets the rows of the grown leaves below the node it replaced."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_routing_the_pruned_tree(self, seed):
        rng = np.random.default_rng(seed)
        ds = support.random_dataset(rng, max_rows=200, min_rows=30)
        tc = TestCostVector(tuple(rng.uniform(0.1, 9.9, ds.num_attributes)))
        mc = support.random_matrix(rng, ds.num_classes)
        tree = deserialize(serialize(build_tree(ds, tc, float(rng.choice([-3.0, 0.0])), 1)))
        leaves = check_training_rows(tree, ds)
        pruned, _ = post_prune(tree, tc, mc, bool(rng.integers(2)))
        got = pruned_route(leaves, tree, pruned)
        want = next(route([pruned], ds))
        assert [(leaf, path) for leaf, path, _ in got] == [(leaf, path) for leaf, path, _ in want]
        for (_, _, a), (_, _, b) in zip(got, want):
            assert np.array_equal(np.sort(a), np.sort(b))
        assert routed_costs([leaves, got], ds, tc, mc) == average_costs([tree, pruned], ds, tc, mc)


class TestReductionRatio:
    def test_worked_example(self):
        assert reduction_ratio(50.0, 30.0) == pytest.approx(0.40, abs=0)
        assert reduction_ratio(50.0, 30.0) == 0.4

    def test_no_change_is_zero(self):
        assert reduction_ratio(12.5, 12.5) == 0.0

    def test_regression_goes_negative(self):
        assert reduction_ratio(50.0, 75.0) == -0.5

    def test_free_result_is_full_saving(self):
        assert reduction_ratio(8.0, 0.0) == 1.0

    def test_rejects_nonpositive_baseline(self):
        with pytest.raises(ValueError, match="baseline"):
            reduction_ratio(0.0, 1.0)
        with pytest.raises(ValueError, match="baseline"):
            reduction_ratio(-3.0, 1.0)

    def test_rejects_negative_result(self):
        with pytest.raises(ValueError, match="negative"):
            reduction_ratio(5.0, -0.1)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.01, 1e5), st.floats(0, 1e5))
    def test_bounded_above_by_one(self, before, after):
        assert reduction_ratio(before, after) <= 1.0


class TestAverageReductionRatio:
    def test_worked_example_exact(self):
        assert average_reduction_ratio([0.4, 0.5, 0.3, 0.2]) == 0.35

    def test_single_ratio(self):
        assert average_reduction_ratio([0.4]) == 0.4

    def test_accepts_any_iterable(self):
        assert average_reduction_ratio(iter((0.2, 0.4))) == pytest.approx(0.3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one ratio"):
            average_reduction_ratio([])
