"""Keep-or-prune scoring and the bottom-up pruning pass."""

import numpy as np
import pytest

import oracles
import support
from cstree.costs import MisclassificationMatrix, TestCostVector, two_class_matrix
from cstree.data import Dataset
from cstree.evaluation import average_cost, average_costs
from cstree.pruning import PruneTraceEntry, post_prune, prune_trees
from cstree.tree import (
    DecisionTree,
    TreeNode,
    build_tree,
    deserialize,
    serialize,
    structural_equal,
    walk,
)


@pytest.fixture()
def fixture_entries(bound_fixture, table_costs, example_mc):
    """The fixture tree's post_prune trace entries by node id."""
    _, trace = post_prune(bound_fixture, table_costs, example_mc)
    return {e.node_id: e for e in trace}


class TestSubtreeCost:
    """Keep costs: each row pays the distinct tests on its full path."""

    def test_left_branch_full_path_charging(self, fixture_entries):
        b = fixture_entries["root.left"].cost_keep
        assert b.test_cost_total == 120.0
        assert b.misclassification_total == 0.0
        assert b.average == 8.0
        assert b.count == 15

    def test_retested_attribute_charged_once(self, fixture_entries):
        # this subtree re-tests the root attribute, so its rows pay for
        # two distinct tests, not three
        b = fixture_entries["root.left.right"].cost_keep
        assert b.test_cost_total == 48.0
        assert b.average == 8.0
        assert b.count == 6

    def test_right_branch(self, fixture_entries):
        b = fixture_entries["root.right"].cost_keep
        assert b.test_cost_total == 81.0
        assert b.average == 9.0
        assert b.count == 9

    def test_root_matches_average_cost(
        self, bound_fixture, fixture_entries, sample, table_costs, example_mc
    ):
        via_node = fixture_entries["root"].cost_keep
        via_rows = average_cost(bound_fixture, sample, table_costs, example_mc)
        assert via_node == via_rows
        assert via_node.average == 8.375

    def test_leaf_is_costed_too(self, fixture_entries):
        # the leaf root.left.left holds what root.left's keep cost has
        # beyond its other child root.left.right
        whole = fixture_entries["root.left"].cost_keep
        other = fixture_entries["root.left.right"].cost_keep
        assert whole.test_cost_total - other.test_cost_total == 72.0
        assert whole.misclassification_total - other.misclassification_total == 0.0
        assert whole.count - other.count == 9


class TestLeafReplacementCost:
    """Prune costs: only the tests above the node, plus overruled rows."""

    def test_mid_tree_replacement(self, fixture_entries):
        b = fixture_entries["root.left"].cost_prune
        assert b.test_cost_total == 15.0
        assert b.misclassification_total == 100.0
        assert b.average == 115.0 / 15.0
        assert b.average == pytest.approx(7.667, abs=0.005)

    def test_deep_replacement_keeps_path_tests(self, fixture_entries):
        b = fixture_entries["root.left.right"].cost_prune
        assert b.test_cost_total == 48.0
        assert b.misclassification_total == 100.0
        assert b.average == 148.0 / 6.0
        assert b.average == pytest.approx(24.67, abs=0.005)

    def test_root_replacement_pays_no_tests(self, fixture_entries):
        b = fixture_entries["root"].cost_prune
        assert b.test_cost_total == 0.0
        assert b.misclassification_total == 450.0
        assert b.average == 18.75

    def test_minority_heavy_node(self, fixture_entries):
        b = fixture_entries["root.right"].cost_prune
        assert b.test_cost_total == 9.0
        assert b.misclassification_total == 1000.0
        assert b.average == 1009.0 / 9.0
        assert b.average == pytest.approx(112.1, abs=0.05)


class TestPostPrune:
    def test_golden_trace(self, bound_fixture, table_costs, example_mc):
        pruned, trace = post_prune(bound_fixture, table_costs, example_mc)

        assert [e.node_id for e in trace] == [
            "root.left.right",
            "root.left",
            "root.right",
            "root",
        ]
        assert [e.attribute for e in trace] == [1, 4, 6, 1]
        assert [e.pruned for e in trace] == [False, True, False, False]
        assert [e.instance_count for e in trace] == [6, 15, 9, 24]

        keeps = [(e.cost_keep.test_cost_total, e.cost_keep.misclassification_total) for e in trace]
        assert keeps == [(48.0, 0.0), (120.0, 0.0), (81.0, 0.0), (201.0, 0.0)]
        prunes = [
            (e.cost_prune.test_cost_total, e.cost_prune.misclassification_total)
            for e in trace
        ]
        assert prunes == [(48.0, 100.0), (15.0, 100.0), (9.0, 100.0 * 10), (0.0, 450.0)]

        averages = [
            (e.cost_keep.average, e.cost_prune.average) for e in trace
        ]
        expected = [(8.0, 148 / 6), (8.0, 115 / 15), (9.0, 1009 / 9), (8.375, 18.75)]
        for got, want in zip(averages, expected):
            assert got[0] == pytest.approx(want[0], abs=0.005)
            assert got[1] == pytest.approx(want[1], abs=0.005)

        assert pruned.node_count() == 5
        assert pruned.root.left.is_leaf
        assert pruned.root.left.predicted_class == 0
        assert not pruned.root.right.is_leaf

    def test_pruned_average_drops(self, bound_fixture, sample, table_costs, example_mc):
        pruned, _ = post_prune(bound_fixture, table_costs, example_mc)
        before = average_cost(bound_fixture, sample, table_costs, example_mc)
        after = average_cost(pruned, sample, table_costs, example_mc)
        assert before.average == 8.375
        assert after.average == pytest.approx(196 / 24, rel=1e-12)
        assert after.average < before.average

    def test_input_tree_untouched(self, bound_fixture, table_costs, example_mc):
        before = serialize(bound_fixture)
        post_prune(bound_fixture, table_costs, example_mc)
        assert serialize(bound_fixture) == before

    def test_trace_flag_is_strict_comparison(self, bound_fixture, table_costs, example_mc):
        _, trace = post_prune(bound_fixture, table_costs, example_mc)
        for entry in trace:
            assert isinstance(entry, PruneTraceEntry)
            assert entry.pruned == (entry.cost_prune.average < entry.cost_keep.average)
            assert entry.cost_keep.count == entry.instance_count
            assert entry.cost_prune.count == entry.instance_count

    def test_exact_tie_keeps_by_default(self):
        ds = Dataset.from_arrays([[1.0], [2.0]], [0, 1], class_names=("0", "1"))
        tree = build_tree(ds, TestCostVector((3.0,)), 0.0, min_leaf_size=1)
        assert not tree.root.is_leaf
        mc = two_class_matrix(99.0, 6.0)
        kept, trace = post_prune(tree, tree.tc_used, mc)
        assert trace[0].cost_keep.average == trace[0].cost_prune.average == 3.0
        assert not trace[0].pruned
        assert not kept.root.is_leaf

    def test_exact_tie_prunes_when_asked(self):
        ds = Dataset.from_arrays([[1.0], [2.0]], [0, 1], class_names=("0", "1"))
        tree = build_tree(ds, TestCostVector((3.0,)), 0.0, min_leaf_size=1)
        mc = two_class_matrix(99.0, 6.0)
        cut, trace = post_prune(tree, tree.tc_used, mc, prune_on_tie=True)
        assert trace[0].pruned
        assert cut.root.is_leaf
        assert cut.root.predicted_class == 0

    def test_matrix_class_count_must_match_histograms(self, bound_fixture, table_costs):
        three = MisclassificationMatrix(((0, 1, 1), (1, 0, 1), (1, 1, 0)))
        with pytest.raises(ValueError, match="matrix classes and dataset classes differ"):
            post_prune(bound_fixture, table_costs, three)

    def test_wrong_cost_arity_rejected(self, bound_fixture, example_mc):
        with pytest.raises(ValueError, match="one test cost per attribute"):
            post_prune(bound_fixture, TestCostVector((1.0,)), example_mc)

    def test_never_raises_training_cost_and_settles_in_one_pass(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            ds = support.random_dataset(rng)
            tc = support.random_costs(rng, ds.num_attributes)
            mc = support.random_matrix(rng, ds.num_classes)
            lam = float(rng.choice([-4.0, -2.0, -0.5, 0.0]))
            tree = build_tree(ds, tc, lam)
            pruned, trace = post_prune(tree, tc, mc)

            before = average_cost(tree, ds, tc, mc)
            after = average_cost(pruned, ds, tc, mc)
            assert after.average <= before.average + 1e-9

            again, second_trace = post_prune(pruned, tc, mc)
            assert structural_equal(again, pruned)
            assert not any(e.pruned for e in second_trace)

    def test_trace_matches_per_row_oracle(self):
        # integer costs and penalties keep every total exact, so the
        # figures read off the histograms must equal per-row sums exactly
        rng = np.random.default_rng(29)
        decisions = set()
        for _ in range(40):
            ds = support.random_dataset(rng)
            tc = support.random_costs(rng, ds.num_attributes)
            mc = support.random_matrix(rng, ds.num_classes)
            lam = float(rng.choice([-4.0, -2.0, -0.5, 0.0]))
            on_tie = bool(rng.integers(2))
            grown = build_tree(ds, tc, lam, int(rng.integers(1, 4)))
            text = serialize(grown)
            _, trace = post_prune(deserialize(text), tc, mc, on_tie)
            assert trace == post_prune(grown, tc, mc, on_tie)[1]

            want = oracles.prune_trace_json(
                text, ds.features.tolist(), ds.labels.tolist(), tc.costs, mc.rows
            )
            assert [e.node_id for e in trace] == [w[0] for w in want]
            for entry, (_, attribute, kt, kp, pt, pp, n) in zip(trace, want):
                keep, prune = entry.cost_keep, entry.cost_prune
                assert entry.attribute == attribute
                assert entry.instance_count == keep.count == prune.count == n
                assert (keep.test_cost_total, keep.misclassification_total) == (kt, kp)
                assert (prune.test_cost_total, prune.misclassification_total) == (pt, pp)
                assert (keep.average, prune.average) == ((kt + kp) / n, (pt + pp) / n)
                decision = prune.average < keep.average or (
                    on_tie and prune.average == keep.average
                )
                assert entry.pruned == decision
                decisions.add(decision)
        assert decisions == {False, True}

    def test_pruned_tree_is_never_larger(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            ds = support.random_dataset(rng)
            tc = support.random_costs(rng, ds.num_attributes)
            mc = support.random_matrix(rng, ds.num_classes)
            tree = build_tree(ds, tc, -1.0)
            pruned, trace = post_prune(tree, tc, mc)
            assert pruned.node_count() <= tree.node_count()
            if any(e.pruned for e in trace):
                assert pruned.node_count() < tree.node_count()


def _unshared(root: TreeNode) -> TreeNode:
    """A copy of the tree under ``root`` with one new node per position."""
    built: list[TreeNode] = []
    for node, _ in reversed(list(walk(root))):
        if node.is_leaf:
            built.append(TreeNode(node.histogram.copy(), predicted_class=node.predicted_class))
        else:
            right, left = built.pop(), built.pop()
            built.append(
                TreeNode(node.histogram.copy(), node.attribute, node.threshold, left, right)
            )
    return built.pop()


def _random_graph(rng, k: int, m: int) -> list[TreeNode]:
    """Three roots over a pool of nodes whose children are drawn from the
    nodes built before them, so nodes recur within and across the trees."""
    pool = []
    for _ in range(4):
        histogram = rng.integers(0, 6, size=k)
        histogram[rng.integers(k)] += 1
        pool.append(TreeNode(histogram, predicted_class=int(np.argmax(histogram))))
    for _ in range(10):
        left, right = (pool[i] for i in rng.integers(len(pool), size=2))
        threshold = float(rng.integers(0, 6)) + 0.5
        pool.append(
            TreeNode(left.histogram + right.histogram, int(rng.integers(m)), threshold, left, right)
        )
    return pool[-3:]


class TestSharedNodes:
    """Nodes held by several trees, or under several paths of one tree,
    prune and cost exactly as copies that share nothing."""

    def test_shared_nodes_match_unshared_copies(self):
        rng = np.random.default_rng(41)
        # by hand: S sits under paths {0} and {0, 1} of one tree, twice
        # under path {0} of another, and under path {1} of a third
        hist = np.array
        s = TreeNode(hist([3, 2]), 2, 1.5, TreeNode(hist([3, 0]), predicted_class=0),
                     TreeNode(hist([0, 2]), predicted_class=1))
        leaf = TreeNode(hist([1, 4]), predicted_class=1)
        by_hand = [
            TreeNode(hist([7, 8]), 0, 2.5, s, TreeNode(hist([4, 6]), 1, 3.5, s, leaf)),
            TreeNode(hist([6, 4]), 0, 2.5, s, s),
            TreeNode(hist([4, 6]), 1, 0.5, s, leaf),
        ]
        cases = [(by_hand, 2, 3)]
        for _ in range(30):
            k, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            cases.append((_random_graph(rng, k, m), k, m))
        recurring = 0
        for roots, k, m in cases:
            features = rng.integers(0, 6, size=(40, m)).astype(np.float64)
            labels = rng.integers(0, k, size=40)
            labels[:k] = np.arange(k)
            rows = Dataset.from_arrays(features, labels, class_names=tuple(map(str, range(k))))
            # fractional costs, whose sums show the order of additions
            tc = TestCostVector(tuple(rng.uniform(0.1, 10.0, m)))
            penalties = rng.uniform(0.1, 100.0, size=(k, k))
            np.fill_diagonal(penalties, 0.0)
            mc = MisclassificationMatrix(tuple(tuple(row) for row in penalties))
            on_tie = bool(rng.integers(2))
            trees = [DecisionTree(root, -1.0, tc) for root in roots]
            copies = [DecisionTree(_unshared(root), -1.0, tc) for root in roots]
            pruned_copies = []
            for tree, copy in zip(trees, copies):
                pruned, trace = post_prune(tree, tc, mc, on_tie)
                pruned_copy, trace_copy = post_prune(copy, tc, mc, on_tie)
                assert serialize(pruned) == serialize(pruned_copy)
                assert trace == trace_copy
                assert average_cost(tree, rows, tc, mc) == average_cost(copy, rows, tc, mc)
                pruned_copies.append(pruned_copy)
            together = prune_trees(trees, tc, mc, on_tie)
            assert list(map(serialize, together)) == list(map(serialize, pruned_copies))
            assert average_costs(trees + together, rows, tc, mc) == [
                average_cost(tree, rows, tc, mc) for tree in copies + pruned_copies
            ]
            positions = [node for root in roots for node, _ in walk(root)]
            recurring += len(positions) - len(set(positions))
        assert recurring > 100
