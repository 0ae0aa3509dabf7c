"""Splitting heuristics, tree growth, classification, and serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import support
from cstree import tree as tree_module
from cstree.competition import LambdaGrid
from cstree.costs import TestCostVector, two_class_matrix
from cstree.data import Dataset
from cstree.evaluation import average_cost
from cstree.pruning import post_prune
from cstree.tree import (
    _first_maxima,
    MIN_SPLIT_INFO,
    DecisionTree,
    TreeNode,
    best_split,
    build_tree,
    build_trees,
    check_training_rows,
    classify,
    deserialize,
    entropy,
    serialize,
    structural_equal,
)

ENTROPY_15_9 = 0.9544340029249649  # frozen from the naive oracle


def two_class(features, labels) -> Dataset:
    return Dataset.from_arrays(
        np.asarray(features, dtype=float), labels, class_names=("0", "1")
    )


class TestEntropy:
    def test_balanced_pair(self):
        assert entropy((12, 12)) == 1.0

    def test_pure(self):
        assert entropy((6, 0)) == 0.0
        assert math.copysign(1.0, entropy((6, 0))) == 1.0

    def test_worked_value(self):
        assert entropy((15, 9)) == pytest.approx(ENTROPY_15_9, abs=1e-15)
        assert entropy((15, 9)) == pytest.approx(0.95443, abs=5e-6)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=6).filter(sum))
    def test_matches_oracle(self, counts):
        assert entropy(counts) == pytest.approx(oracles.entropy_bits(counts), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.permutations([3, 0, 7, 1]))
    def test_permutation_invariant(self, counts):
        assert entropy(counts) == entropy([7, 3, 1, 0])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=2, max_size=5).filter(sum))
    def test_bounds(self, counts):
        h = entropy(counts)
        assert 0.0 <= h <= math.log2(len(counts)) + 1e-12

    @pytest.mark.parametrize(
        "bad", [[], [0, 0], [-1, 2], [math.nan, 1], [math.inf, 1], [1e308, 1e308]]
    )
    def test_rejects_degenerate(self, bad):
        with pytest.raises(ValueError):
            entropy(bad)


def only_split(ds, cost=1.0, lam=0.0, tested=frozenset(), min_leaf_size=2):
    """best_split of every row of a one-attribute table."""
    return best_split(ds, TestCostVector((cost,)), lam, tested, min_leaf_size)


def assert_matches_oracle(ds, chosen, min_leaf=2):
    """best_split at exponent 0 agrees with the exhaustive oracle scan."""
    table = (ds.features.tolist(), ds.labels.tolist(), ds.num_classes)
    expected = oracles.best_gain_ratio_split(*table, min_leaf)
    # only a rounding-level gain may separate a split from none at all
    if expected is None:
        assert chosen is None or chosen.gain_ratio <= 1e-9
    elif chosen is None:
        assert expected[0] <= 1e-9
    else:
        assert chosen.heuristic_value == chosen.gain_ratio
        assert chosen.gain_ratio == pytest.approx(expected[0], rel=1e-12)
        if (chosen.attribute, chosen.threshold) != (expected[1], expected[2]):
            # a near tie: the oracle scores the other choice the same
            theirs = oracles.split_gain_ratio(*table, chosen.attribute, chosen.threshold, min_leaf)
            assert theirs == pytest.approx(expected[0], rel=1e-12)


class TestSplitStatistics:
    """Gain ratios of best_split's choice, checked against tests/oracles.py."""

    def test_sample_root_partition(self, sample):
        # the fixture tree's root test, attribute 1 <= 125.5, as the one
        # possible split of a two-valued column: 13/2 left, 2/7 right
        column = (sample.features[:, [1]] > 125.5).astype(float)
        ds = Dataset.from_arrays(column, sample.labels, class_names=sample.class_names)
        chosen = only_split(ds)
        assert chosen.threshold == 0.5
        left_h = oracles.entropy_bits([13, 2])
        right_h = oracles.entropy_bits([2, 7])
        gain = ENTROPY_15_9 - (15 / 24) * left_h - (9 / 24) * right_h
        assert chosen.gain_ratio == pytest.approx(gain / ENTROPY_15_9, abs=1e-12)
        # the sample's own root split is the oracle's best
        root = best_split(sample, TestCostVector((1,) * 8), 0.0)
        assert_matches_oracle(sample, root)

    def test_identical_child_distributions(self):
        # the one admissible threshold leaves both halves half-and-half
        ds = two_class([[1], [2], [3], [4]], [0, 1, 0, 1])
        assert only_split(ds) is None
        assert oracles.best_gain_ratio_split(ds.features.tolist(), ds.labels.tolist(), 2) is None

    def test_pure_children_gain_everything(self):
        ds = two_class([[1], [2], [3], [4]], [0, 0, 1, 1])
        chosen = only_split(ds)
        assert chosen.threshold == 2.5
        # gain entropy((2, 2)) over split information entropy((2, 2))
        assert chosen.gain_ratio == pytest.approx(1.0, abs=1e-15)
        assert_matches_oracle(ds, chosen)

    def test_one_sided_threshold_rejected(self):
        # only boundaries between distinct values are scanned, so every
        # candidate leaves a row on each side
        ds = two_class([[1], [2]], [0, 1])
        chosen = only_split(ds, min_leaf_size=1)
        assert chosen.threshold == 1.5
        left, right = support.partition(ds, 0, chosen.threshold)
        assert len(left) == len(right) == 1
        assert only_split(ds, min_leaf_size=2) is None

    def test_gain_never_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            ds = support.random_dataset(rng, max_rows=20, max_attrs=2)
            tc = TestCostVector((1.0,) * ds.num_attributes)
            chosen = best_split(ds, tc, 0.0)
            assert chosen is None or chosen.gain_ratio > 0.0
            assert_matches_oracle(ds, chosen)


class TestCandidateThresholds:
    """best_split's thresholds are midpoints strictly between distinct
    neighbouring values, as the oracle enumerates them."""

    def test_midpoints(self):
        assert only_split(two_class([[1], [2], [4]], [0, 1, 1]), min_leaf_size=1).threshold == 1.5
        assert only_split(two_class([[1], [2], [4]], [0, 0, 1]), min_leaf_size=1).threshold == 3.0

    def test_constant_column(self):
        assert only_split(two_class([[7], [7], [7]], [0, 1, 0]), min_leaf_size=1) is None

    def test_close_fractional_values(self):
        chosen = only_split(two_class([[0.153], [0.165]], [0, 1]), min_leaf_size=1)
        assert chosen.threshold == pytest.approx(0.159, abs=1e-12)

    def test_empty_subset_rejected(self, sample):
        # the smallest row subset is one row, which has no threshold
        assert best_split(sample.take([3]), TestCostVector((1,) * 8), 0.0, min_leaf_size=1) is None
        with pytest.raises(ValueError, match="at least one instance"):
            sample.take([])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=2, max_size=15))
    def test_strictly_between_neighbours(self, raw):
        values = [float(v) for v in raw]
        ds = two_class([[v] for v in values], [i % 2 for i in range(len(values))])
        chosen = only_split(ds, min_leaf_size=1)
        assert_matches_oracle(ds, chosen, min_leaf=1)
        if chosen is not None:
            distinct = sorted(set(values))
            mids = [(low + high) / 2.0 for low, high in zip(distinct, distinct[1:])]
            assert chosen.threshold in mids


class TestSplitHeuristic:
    """best_split scores a split as gain ratio times cost ** lambda, and a
    re-tested attribute with weight 1."""

    PURE = ([[1], [2], [3], [4]], [0, 0, 1, 1])  # gain ratio 1 at 2.5

    def test_punishes_expensive_attribute(self):
        chosen = only_split(two_class(*self.PURE), cost=4.0, lam=-2.0)
        assert chosen.heuristic_value == chosen.gain_ratio * 4.0**-2.0
        assert chosen.heuristic_value == pytest.approx(0.0625, abs=1e-15)

    def test_zero_exponent_is_plain_gain_ratio(self):
        chosen = only_split(two_class(*self.PURE), cost=4.0, lam=0.0)
        assert chosen.heuristic_value == chosen.gain_ratio

    def test_reuse_ignores_price(self):
        chosen = only_split(two_class(*self.PURE), cost=9.0, lam=-2.0, tested=frozenset({0}))
        assert chosen.heuristic_value == chosen.gain_ratio

    def test_rejects_positive_exponent(self):
        with pytest.raises(ValueError, match="zero or negative"):
            only_split(two_class(*self.PURE), lam=0.5)

    def test_rejects_free_test(self):
        with pytest.raises(ValueError, match="positive"):
            TestCostVector((0.0,))


class TestBestSplit:
    def test_sample_root_choice(self, sample, table_costs):
        candidate = best_split(sample, table_costs, -2.0)
        assert candidate.attribute == 1
        assert candidate.threshold == 116.5
        assert candidate.gain_ratio == pytest.approx(0.5487949406953986, abs=1e-12)
        assert candidate.heuristic_value == pytest.approx(candidate.gain_ratio, abs=1e-15)

    def test_pure_subset_yields_none(self, table_costs):
        ds = two_class([[i] * 8 for i in range(6)], [0] * 5 + [1])
        pure, _ = support.partition(ds, 0, 4.5)
        assert best_split(pure, table_costs, -1.0) is None

    def test_constant_attributes_yield_none(self):
        ds = two_class([[3.0], [3.0], [3.0], [3.0]], [0, 1, 0, 1])
        assert best_split(ds, TestCostVector((1,)), 0.0) is None

    def test_zero_gain_everywhere_yields_none(self):
        # the single admissible threshold leaves both halves half-and-half
        ds = two_class([[1], [1], [2], [2]], [0, 1, 0, 1])
        assert best_split(ds, TestCostVector((1,)), 0.0, min_leaf_size=1) is None

    def test_tie_breaks_to_lowest_attribute(self):
        column = [[v, v] for v in (1.0, 2.0, 3.0, 4.0)]
        ds = two_class(column, [0, 0, 1, 1])
        candidate = best_split(ds, TestCostVector((3, 3)), -1.0)
        assert candidate.attribute == 0

    def test_tie_breaks_to_lowest_threshold(self):
        ds = two_class([[1], [2], [3]], [0, 1, 0])
        candidate = best_split(ds, TestCostVector((2,)), 0.0, min_leaf_size=1)
        assert candidate.threshold == 1.5

    def test_min_leaf_filters_candidates(self):
        # isolating the lone positive is the best cut but strands one row
        ds = two_class([[1], [2], [3], [4]], [1, 0, 0, 0])
        strict = best_split(ds, TestCostVector((1,)), 0.0, min_leaf_size=2)
        assert strict.threshold == 2.5
        loose = best_split(ds, TestCostVector((1,)), 0.0, min_leaf_size=1)
        assert loose.threshold == 1.5
        assert loose.gain_ratio > strict.gain_ratio

    def test_cheap_attribute_beats_informative_one(self):
        # attribute 1 separates perfectly but costs 10; attribute 0 is
        # noisier but costs 1, so a negative exponent flips the choice
        features = [[0, 1], [0, 2], [1, 3], [0, 4], [1, 5], [1, 6]]
        ds = two_class(features, [0, 0, 0, 1, 1, 1])
        tc = TestCostVector((1.0, 10.0))
        assert best_split(ds, tc, 0.0).attribute == 1
        assert best_split(ds, tc, -2.0).attribute == 0

    def test_reuse_restores_expensive_attribute(self):
        features = [[0, 1], [0, 2], [1, 3], [0, 4], [1, 5], [1, 6]]
        ds = two_class(features, [0, 0, 0, 1, 1, 1])
        tc = TestCostVector((1.0, 10.0))
        again = best_split(ds, tc, -2.0, tested_on_path=frozenset({1}))
        assert again.attribute == 1

    def test_rejects_positive_exponent(self, sample, table_costs):
        with pytest.raises(ValueError):
            best_split(sample, table_costs, 0.25)

    def test_rejects_wrong_cost_arity(self, sample):
        with pytest.raises(ValueError, match="one test cost per attribute"):
            best_split(sample, TestCostVector((1, 2)), 0.0)

    @pytest.mark.parametrize("path", [{-1}, {8}, {1.5}, {True}, {"0"}, {0, 8}])
    def test_rejects_tested_attributes_out_of_range(self, sample, table_costs, path):
        # -1 would weigh the last attribute 1, and 8 or 1.5 would not index one
        with pytest.raises(ValueError, match="tested_on_path"):
            best_split(sample, table_costs, -1.0, tested_on_path=frozenset(path))

    def test_tested_attributes_may_be_numpy_ints(self, sample, table_costs):
        path = frozenset(np.flatnonzero([False, True]).tolist() + [np.int64(3)])
        assert best_split(sample, table_costs, -2.0, path) == best_split(
            sample, table_costs, -2.0, frozenset({1, 3})
        )

    def test_matches_plain_gain_ratio_oracle_at_zero(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            ds = support.random_dataset(rng, max_rows=30, max_attrs=4, max_classes=3)
            tc = support.random_costs(rng, ds.num_attributes)
            assert_matches_oracle(ds, best_split(ds, tc, 0.0))

    def test_matches_oracle_on_larger_tables(self):
        rng = np.random.default_rng(2024)
        for _ in range(12):
            ds = support.random_dataset(rng, max_rows=200, min_rows=40, max_attrs=5)
            min_leaf = int(rng.integers(1, 5))
            tc = support.random_costs(rng, ds.num_attributes)
            chosen = best_split(ds, tc, 0.0, min_leaf_size=min_leaf)
            assert_matches_oracle(ds, chosen, min_leaf)


class TestGridGrowth:
    def test_first_maximum_survives_products_that_collapse(self):
        top = 0.7
        below = math.nextafter(top, 0.0)
        weight = 5.0**-1.0
        assert below * weight == top * weight  # one ulp apart, equal products
        ratios = np.array([below, 0.1, top, top])
        assert int(np.argmax(ratios)) == 2
        # the pick is the first maximum of the products, not of the ratios;
        # weight 1 (a re-tested attribute) keeps the true maximum
        # one attribute and one row set: one block of all four candidates
        picks, scores = _first_maxima(ratios, np.array([0, 4]), np.array([[weight], [1.0]]),
                                      np.zeros(2, dtype=np.intp))
        assert picks.tolist() == [0, 2]
        assert scores.tolist() == [top * weight, top]

    def test_overflowing_weight_raises_only_where_used(self):
        # 1e-100 ** -4 overflows a float
        tc = TestCostVector((1e-100, 1.0))
        ds = two_class([[0, 0], [1, 0], [2, 1], [3, 1]], [0, 0, 1, 1])
        with pytest.raises(ValueError, match="attribute 0 to the power -4.0 overflows"):
            build_trees(ds, tc, [0.0, -4.0], min_leaf_size=1)
        with pytest.raises(ValueError, match="attribute 0"):
            best_split(ds, tc, -4.0, min_leaf_size=1)
        # a re-tested attribute weighs 1
        assert best_split(ds, tc, -4.0, frozenset({0}), min_leaf_size=1).heuristic_value == 1.0
        # a constant column has no admissible pair, so its weight is never needed
        constant = two_class([[5, 0], [5, 0], [5, 1], [5, 1]], [0, 0, 1, 1])
        tree = build_tree(constant, tc, -4.0, min_leaf_size=1)
        assert tree.root.attribute == 1

    def test_overflow_names_the_shallowest_node(self):
        # Attribute 0 costs 1; attributes 1 and 2 cost 1e-100, whose power
        # overflows from lam = -3.25 down. The root splits on attribute 0 at
        # 1.5 and its left child on attribute 0 again at 0.5. Two nodes then
        # need an overflowing weight: the right child of the root (depth 1)
        # for attribute 1, and the left child's right child (depth 2) for
        # attribute 2. Growth goes depth by depth, so it names the first.
        counts = {(0, 0, 0, 0): 1, (0, 0, 1, 1): 2, (1, 0, 0, 1): 3, (1, 0, 1, 0): 1,
                  (1, 1, 1, 1): 1, (2, 0, 1, 0): 1, (2, 0, 1, 1): 1, (2, 1, 0, 0): 2,
                  (2, 1, 0, 1): 3, (2, 1, 1, 0): 1, (2, 1, 1, 1): 2}
        table = np.array([cell for cell, k in counts.items() for _ in range(k)], dtype=float)
        ds = two_class(table[:, :3], table[:, 3].astype(int))
        tc = TestCostVector((1.0, 1e-100, 1e-100))
        a0 = ds.features[:, 0]
        rows = {
            "root": (np.arange(len(ds)), frozenset()),
            "left": (np.flatnonzero(a0 <= 1.5), frozenset({0})),
            "right": (np.flatnonzero(a0 > 1.5), frozenset({0})),
            "left right": (np.flatnonzero((a0 > 0.5) & (a0 <= 1.5)), frozenset({0})),
        }

        def alone(name, lam):
            positions, path = rows[name]
            return best_split(ds.take(positions), tc, lam, path, min_leaf_size=2)

        assert (alone("root", -4.0).attribute, alone("root", -4.0).threshold) == (0, 1.5)
        assert (alone("left", -4.0).attribute, alone("left", -4.0).threshold) == (0, 0.5)
        with pytest.raises(ValueError, match="attribute 1 to the power -4.0 overflows"):
            alone("right", -4.0)
        with pytest.raises(ValueError, match="attribute 2 to the power -4.0 overflows"):
            alone("left right", -4.0)
        # of the exponents that overflow there, the first of the grid
        for lams, lam in [([-4.0], -4.0), (LambdaGrid().values(), -4.0), ([0.0, -3.5, -4.0], -3.5)]:
            with pytest.raises(ValueError, match=f"attribute 1 to the power {lam!r} overflows"):
                build_trees(ds, tc, lams, min_leaf_size=2)

    def test_no_exponents_grow_no_trees(self):
        rows = two_class([[0], [1], [2], [3]], [0, 0, 1, 1])
        assert build_trees(rows, TestCostVector((1.0,)), []) == []

    @pytest.mark.parametrize("lam", [math.nan, -math.inf])
    def test_exponent_must_be_finite(self, lam):
        rows = two_class([[0], [1], [2], [3]], [0, 0, 1, 1])
        with pytest.raises(ValueError, match="finite and zero or negative"):
            build_trees(rows, TestCostVector((1.0,)), [0.0, lam])
        with pytest.raises(ValueError, match="finite and zero or negative"):
            best_split(rows, TestCostVector((1.0,)), lam)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        min_leaf=st.integers(1, 3),
        # costs near 1e100 give weights below the normal range from about
        # lam = -3.25 down
        scale=st.sampled_from([1.0, 1e100]),
    )
    def test_every_node_holds_the_best_split_choice(self, seed, min_leaf, scale):
        # Every node of every exponent's tree from build_trees must hold the
        # split best_split picks for its rows and path (None at a leaf), so
        # by induction each tree is the one that exponent grows alone.
        rng = np.random.default_rng(seed)
        ds = support.random_dataset(rng, max_rows=30)
        tc = TestCostVector(
            tuple(scale * float(c) for c in rng.uniform(0.5, 12.0, ds.num_attributes))
        )

        def walk(node, rows, lam, path):
            assert list(node.histogram) == list(support.histogram(rows))
            alone = best_split(rows, tc, lam, path, min_leaf)
            if node.is_leaf:
                assert alone is None
                return
            assert (node.attribute, node.threshold) == (alone.attribute, alone.threshold)
            left, right = support.partition(rows, node.attribute, node.threshold)
            walk(node.left, left, lam, path | {node.attribute})
            walk(node.right, right, lam, path | {node.attribute})

        lams = LambdaGrid().values()
        trees = build_trees(ds, tc, lams, min_leaf)
        assert [tree.lambda_used for tree in trees] == list(lams)
        for lam, tree in zip(lams, trees):
            walk(tree.root, ds, lam, frozenset())

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from([2, 3, 5, 12]),
        min_leaf=st.integers(1, 4),
        grid=st.sampled_from([1, 2, 3, 6]),
    )
    def test_every_node_matches_per_attribute_scan(self, seed, k, min_leaf, grid):
        # Every split growth scans, at every node of every exponent's tree,
        # held field for field and bit for bit to the per-attribute
        # reference, which shares no code with growth's scan. The tables
        # sit on a coarse grid, full of ties, with 0.0 and -0.0 mixed.
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 70)), int(rng.integers(1, 5))
        features = rng.integers(-grid, grid + 1, size=(n, m)) / 4.0
        features[(features == 0.0) & (rng.random((n, m)) < 0.5)] = -0.0
        labels = rng.integers(0, k, size=n)
        ds = Dataset.from_arrays(features, labels, class_names=tuple(map(str, range(k))))
        tc = TestCostVector(tuple(rng.uniform(0.5, 12.0, m)))
        lams = LambdaGrid().values()
        scanned = {}  # (rows, attributes tested above, exponent) -> growth's split
        scan_level = tree_module._scan_level

        def recording(scan, level, weights, lams_all, tc, min_leaf_size):
            picks = scan_level(scan, level, weights, lams_all, tc, min_leaf_size)
            starts = np.cumsum(level.sizes) - level.sizes
            fields = zip(picks.attribute.tolist(), picks.threshold.tolist(),
                         picks.gain_ratio.tolist(), picks.heuristic_value.tolist())
            for s, e, split in zip(level.pair_set, level.pair_exp, picks.split):
                rows = tuple(np.sort(level.order[0, starts[s]:starts[s] + level.sizes[s]]).tolist())
                path = frozenset(np.flatnonzero(level.paths[s]).tolist())
                scanned[rows, path, lams_all[e]] = (
                    tree_module.SplitCandidate(*next(fields)) if split else None
                )
            return picks

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tree_module, "_scan_level", recording)
            trees = build_trees(ds, tc, lams, min_leaf)
        for lam, tree in zip(lams, trees):
            stack = [(tree.root, np.arange(n), frozenset())]
            while stack:
                node, rows, path = stack.pop()
                split = scanned[tuple(rows.tolist()), path, lam]
                want = oracles.best_split_per_attribute(
                    ds.features[rows], ds.labels[rows], k, tc.costs, lam, path, min_leaf
                )
                if split is not None:
                    split = (split.attribute, split.threshold, split.gain_ratio,
                             split.heuristic_value)
                assert split == want
                if node.is_leaf:
                    assert split is None
                    continue
                assert (node.attribute, node.threshold) == split[:2]
                goes_left = ds.features[rows, node.attribute] <= node.threshold
                deeper = path | {node.attribute}
                stack.append((node.left, rows[goes_left], deeper))
                stack.append((node.right, rows[~goes_left], deeper))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4), scale=st.sampled_from([1.0, 1e100]))
    def test_equal_trees_share_one_root(self, seed, k, scale):
        # after one build_trees call, two exponents hold the same root
        # object exactly when their trees serialize alike, lambda aside
        rng = np.random.default_rng(seed)
        ds = support.random_dataset(rng, max_rows=40, max_classes=k)
        tc = TestCostVector(
            tuple(scale * float(c) for c in rng.uniform(0.5, 12.0, ds.num_attributes))
        )
        trees = build_trees(ds, tc, LambdaGrid().values(), int(rng.integers(1, 3)))

        def shape(tree):
            doc = json.loads(serialize(tree))
            del doc["lambda"]
            return doc

        for a in trees:
            for b in trees:
                assert (a.root is b.root) == (shape(a) == shape(b))


class TestPresort:
    """Growth sorts the training rows once per attribute, at the root, and
    every node below keeps its parent's order by partitioning it. It looks
    c * log2(c) and log2(c) up in tables built once per growth."""

    def test_count_tables_hold_the_vector_log2_of_any_block(self):
        # the reference computes each count's term inside blocks of class
        # counts; scalar math.log2 differs from numpy's vector log2 at some
        # counts below 20,000 on some builds (1621 among them)
        n = 20_000
        ds = Dataset.from_arrays(np.zeros((n, 1)), np.arange(n) % 2, class_names=("0", "1"))
        scan = tree_module._scan_data(ds)
        counts = np.random.default_rng(4).permutation(n + 1)
        for k in (1, 3, 12):
            block = counts[: len(counts) // k * k].reshape(-1, k)
            assert scan.xlog2x[block].tolist() == oracles._xlog2x(block).tolist()
            logs = np.zeros(block.shape)
            np.log2(block, out=logs, where=block > 0)
            assert scan.log2[block].tolist() == logs.tolist()

    @pytest.mark.parametrize("grid_size", [1, 17])
    @pytest.mark.parametrize("table", ["random", "pairs"])
    def test_one_sort_per_growth(self, monkeypatch, grid_size, table):
        if table == "pairs":
            # rows x = 0..599 labelled in alternating pairs: about 300 levels deep
            xs = np.arange(600)
            ds = two_class(xs[:, None], (xs // 2) % 2)
        else:
            ds = support.random_dataset(np.random.default_rng(8), max_rows=200, min_rows=150)
        lams = LambdaGrid().values()[-grid_size:]
        sorted_shapes = []
        argsort = np.argsort

        def counting(a, *args, **kwargs):
            sorted_shapes.append(np.shape(a))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting)
        trees = build_trees(ds, support.random_costs(np.random.default_rng(9), ds.num_attributes),
                            lams, min_leaf_size=1)
        assert sorted_shapes == [(ds.num_attributes, len(ds))]
        assert len(trees) == grid_size
        assert max(tree.node_count() for tree in trees) >= (599 if table == "pairs" else 15)


class TestScanReference:
    """best_split against the per-attribute scan reference in
    tests/oracles.py, field for field and bit for bit."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        # more than 8 classes reaches the blocked part of numpy's pairwise sum
        k=st.sampled_from([2, 3, 9, 12]),
        min_leaf=st.integers(1, 4),
        grid=st.sampled_from([2, 4, 12, 1000]),
        lam=st.sampled_from([-4.0, -2.5, -1.0, -0.25, 0.0]),
    )
    def test_best_split_matches_per_attribute_scan(self, seed, k, min_leaf, grid, lam):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 90))
        m = int(rng.integers(1, 7))
        # a coarse grid repeats values; a fine one makes most of them distinct
        features = rng.integers(0, grid, size=(n, m)) / 4.0
        labels = rng.integers(0, k, size=n)
        ds = Dataset.from_arrays(features, labels, class_names=tuple(map(str, range(k))))
        tc = TestCostVector(tuple(rng.uniform(0.5, 12.0, m)))
        tested = frozenset(np.flatnonzero(rng.random(m) < 0.3).tolist())
        rows = ds.take(rng.permutation(n)[: int(rng.integers(1, n + 1))])
        want = oracles.best_split_per_attribute(
            rows.features, rows.labels, k, tc.costs, lam,
            tested, min_leaf,
        )
        chosen = best_split(rows, tc, lam, tested, min_leaf)
        if chosen is not None:
            chosen = (
                chosen.attribute, chosen.threshold, chosen.gain_ratio, chosen.heuristic_value,
            )
        assert chosen == want


class TestBuildTree:
    def test_pure_training_set_is_one_leaf(self):
        ds = Dataset.from_arrays([[1.0], [2.0]], [1, 1], class_names=("a", "b"))
        tree = build_tree(ds, TestCostVector((1,)), 0.0)
        assert tree.root.is_leaf
        assert tree.root.predicted_class == 1
        assert tree.node_count() == 1

    def test_small_subsets_stop(self):
        ds = two_class([[1], [2], [3]], [0, 1, 0])
        tree = build_tree(ds, TestCostVector((1,)), 0.0, min_leaf_size=2)
        assert tree.root.is_leaf

    def test_majority_tie_predicts_lowest_class(self):
        ds = two_class([[1], [1], [2], [2]], [1, 0, 0, 1])
        tree = build_tree(ds, TestCostVector((1,)), 0.0)
        assert tree.root.is_leaf
        assert tree.root.predicted_class == 0

    def test_sample_tree_roots_at_second_attribute(self, sample, table_costs):
        tree = build_tree(sample, table_costs, -2.0)
        assert tree.root.attribute == 1
        assert tree.lambda_used == -2.0
        assert tree.tc_used == table_costs

    def test_leaves_partition_training_rows(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ds = support.random_dataset(rng)
            tc = support.random_costs(rng, ds.num_attributes)
            lam = float(rng.choice([-3.0, -1.5, 0.0]))
            tree = build_tree(ds, tc, lam)
            seen = []

            def walk(node, rows):
                # rows: positions in ds of the rows that reach node
                if node.is_leaf:
                    seen.extend(rows.tolist())
                    assert node.histogram.tolist() == support.histogram(ds.take(rows)).tolist()
                    assert int(node.histogram.sum()) == len(rows)
                else:
                    assert node.histogram.tolist() == (
                        node.left.histogram + node.right.histogram
                    ).tolist()
                    goes_left = ds.features[rows, node.attribute] <= node.threshold
                    walk(node.left, rows[goes_left])
                    walk(node.right, rows[~goes_left])

            walk(tree.root, np.arange(len(ds)))
            assert sorted(seen) == list(range(ds.num_instances))

    def test_unit_costs_make_exponent_irrelevant(self):
        # 1^lambda = 1 and reused attributes are also weighted 1, so the
        # whole tree must coincide with the cost-blind one
        rng = np.random.default_rng(11)
        for _ in range(15):
            ds = support.random_dataset(rng)
            tc = TestCostVector((1.0,) * ds.num_attributes)
            flat = build_tree(ds, tc, 0.0)
            steep = build_tree(ds, tc, -4.0)
            assert structural_equal(flat, steep)

    @pytest.mark.parametrize(
        "low,high",
        [
            # the midpoint rounds onto the upper value
            (1.0000000000000002, 1.0000000000000004),
            # the midpoint overflows to inf, and to -inf
            (1e308, 1.5e308),
            (-1.5e308, -1e308),
        ],
    )
    def test_threshold_splits_the_scanned_boundary(self, low, high):
        # the midpoint of these two values would send both left (or both
        # right), so the threshold is the lower value; a threshold that
        # did not split them would regrow the same rows forever
        ds = two_class([[low], [low], [high], [high], [high]], [0, 0, 1, 1, 0])
        tc = TestCostVector((1.0,))
        split = best_split(ds, tc, 0.0, min_leaf_size=1)
        assert split.threshold == low
        assert oracles.best_split_per_attribute(ds.features, ds.labels, 2, tc.costs, 0.0, (), 1)[
            :2
        ] == (0, low)
        assert oracles.best_gain_ratio_split(ds.features.tolist(), ds.labels.tolist(), 2, 1)[
            1:
        ] == (0, low)
        tree = build_tree(ds, tc, 0.0, min_leaf_size=1)
        assert tree.root.threshold == low
        assert tree.root.left.histogram.tolist() == [2, 0]
        check_training_rows(tree, ds)

    def test_rejects_empty_training_set(self, sample):
        # a training set is a Dataset, and no Dataset is empty
        with pytest.raises(ValueError, match="at least one instance"):
            sample.take([])

    def test_rejects_positive_exponent(self, sample, table_costs):
        with pytest.raises(ValueError):
            build_tree(sample, table_costs, 1.0)


class TestClassify:
    def test_single_leaf_tests_nothing(self):
        ds = two_class([[1], [2]], [1, 1])
        tree = build_tree(ds, TestCostVector((1,)), 0.0)
        predicted, tested = classify(tree, [99.0])
        assert predicted == 1
        assert tested == frozenset()

    def test_fixture_paths(self, bound_fixture, sample):
        # row 0 goes left twice and re-tests the root attribute
        predicted, tested = classify(bound_fixture, sample.features[0])
        assert predicted == 0
        assert tested == frozenset({1, 4})
        # row 1 goes right into the cheap-ratio leaf
        predicted, tested = classify(bound_fixture, sample.features[1])
        assert predicted == 0
        assert tested == frozenset({1, 6})
        # row 12 lands in the deep minority leaf
        predicted, tested = classify(bound_fixture, sample.features[12])
        assert predicted == 1
        assert tested == frozenset({1, 4})

    def test_rejects_wrong_arity(self, bound_fixture):
        with pytest.raises(ValueError, match="expected a vector of 8"):
            classify(bound_fixture, [1.0, 2.0])

    def test_matches_json_walker(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            ds = support.random_dataset(rng)
            tc = support.random_costs(rng, ds.num_attributes)
            tree = build_tree(ds, tc, -1.0)
            root = json.loads(serialize(tree))["root"]
            for row in ds.features:
                predicted, tested = classify(tree, row)
                oracle_class, oracle_attrs = oracles.classify_json(root, row)
                assert predicted == oracle_class
                assert tested == frozenset(oracle_attrs)


class TestRepr:
    """repr of nodes and trees is the dataclass text, built without recursion."""

    def test_matches_recursive_reference_on_grown_trees(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            ds = support.random_dataset(rng)
            tc = support.random_costs(rng, ds.num_attributes)
            for tree in build_trees(ds, tc, [0.0, -2.0], int(rng.integers(1, 3))):
                assert repr(tree) == oracles.dataclass_repr(tree)
                assert repr(tree.root) == oracles.dataclass_repr(tree.root)

    def test_matches_recursive_reference_on_odd_nodes(self):
        # shapes growth never makes but the dataclasses allow
        leaf = TreeNode(np.array([2, 0]), predicted_class=0)
        nodes = [
            TreeNode(histogram=None),
            TreeNode(np.array([1, 2]), None, None, leaf, None, 1),
            TreeNode(np.array([2, 0]), 0, 0.5, None, leaf),
            TreeNode(np.array([4, 0]), 1, -0.0, leaf, TreeNode(np.array([2, 0]), 0, 1.5)),
        ]
        for node in nodes:
            assert repr(node) == oracles.dataclass_repr(node)
        tree = DecisionTree(nodes[-1], -0.5, TestCostVector((1.0, 2.0)))
        assert repr(tree) == oracles.dataclass_repr(tree)


class TestSerialization:
    def test_fixture_round_trip(self, fixture_tree_path):
        text = fixture_tree_path.read_text(encoding="utf-8")
        tree = deserialize(text)
        again = deserialize(serialize(tree))
        assert structural_equal(tree, again)
        assert again.lambda_used == tree.lambda_used
        assert again.tc_used == tree.tc_used

    def test_round_trip_random_trees(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            ds = support.random_dataset(rng)
            tc = support.random_costs(rng, ds.num_attributes)
            tree = build_tree(ds, tc, float(rng.choice([-2.0, 0.0])))
            again = deserialize(serialize(tree))
            assert structural_equal(tree, again)

    def test_threshold_precision_survives(self):
        ds = two_class([[0.1], [0.30000000000000004]], [0, 1])
        tree = build_tree(ds, TestCostVector((1,)), 0.0, min_leaf_size=1)
        assert not tree.root.is_leaf
        again = deserialize(serialize(tree))
        assert again.root.threshold == tree.root.threshold

    def test_single_leaf_round_trip(self):
        ds = two_class([[1], [2]], [1, 1])
        tree = build_tree(ds, TestCostVector((1,)), 0.0)
        again = deserialize(serialize(tree))
        assert structural_equal(tree, again)
        assert again.root.predicted_class == 1

    def test_internal_histograms_recomputed_as_child_sums(self, fixture_tree_path):
        tree = deserialize(fixture_tree_path.read_text(encoding="utf-8"))
        assert tree.root.histogram.tolist() == [15, 9]
        assert tree.root.left.histogram.tolist() == [13, 2]
        assert tree.root.right.histogram.tolist() == [2, 7]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("lambda"),
            lambda d: d.update(lambda_=d.pop("lambda")),
            lambda d: d.update(lambda__unused=1),
            lambda d: d.update(lambda_used=d.pop("lambda")),
        ],
    )
    def test_wrong_top_level_keys(self, fixture_tree_path, mutate):
        doc = json.loads(fixture_tree_path.read_text(encoding="utf-8"))
        mutate(doc)
        with pytest.raises(ValueError, match="top level"):
            deserialize(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            deserialize("{oops")

    def test_corrupted_node_field(self, fixture_tree_path):
        doc = json.loads(fixture_tree_path.read_text(encoding="utf-8"))
        doc["root"]["atribute"] = doc["root"].pop("attribute")
        with pytest.raises(ValueError, match="exactly the keys"):
            deserialize(json.dumps(doc))

    def test_leaf_class_must_be_majority(self, fixture_tree_path):
        doc = json.loads(fixture_tree_path.read_text(encoding="utf-8"))
        doc["root"]["right"]["right"]["leaf"] = 0  # histogram is [0, 7]
        with pytest.raises(ValueError, match="majority"):
            deserialize(json.dumps(doc))

    def test_histogram_widths_must_agree(self, fixture_tree_path):
        doc = json.loads(fixture_tree_path.read_text(encoding="utf-8"))
        doc["root"]["right"]["right"]["histogram"] = [0, 7, 0]
        with pytest.raises(ValueError, match="same length"):
            deserialize(json.dumps(doc))

    def test_attribute_must_index_costs(self, fixture_tree_path):
        doc = json.loads(fixture_tree_path.read_text(encoding="utf-8"))
        doc["root"]["attribute"] = 8
        with pytest.raises(ValueError, match=r"attribute index"):
            deserialize(json.dumps(doc))

    def test_positive_exponent_rejected(self, fixture_tree_path):
        doc = json.loads(fixture_tree_path.read_text(encoding="utf-8"))
        doc["lambda"] = 0.5
        with pytest.raises(ValueError, match="lambda"):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize(
        "left, right",
        [([2**62, 0], [2**62, 0]), ([2**62, 0], [2**62 - 1, 2**62 - 1])],
    )
    def test_summed_counts_must_fit_int64(self, fixture_tree_path, left, right):
        doc = json.loads(fixture_tree_path.read_text(encoding="utf-8"))
        doc["root"]["right"]["left"] = {"leaf": 0, "histogram": left}
        doc["root"]["right"]["right"] = {"leaf": 0, "histogram": right}
        with pytest.raises(ValueError, match=r"less than 2\*\*63"):
            deserialize(json.dumps(doc))

    def test_leaf_counts_must_total_within_int64(self, fixture_tree_path):
        doc = json.loads(fixture_tree_path.read_text(encoding="utf-8"))
        doc["root"]["right"]["right"]["histogram"] = [2**62, 2**62]
        with pytest.raises(ValueError, match=r"less than 2\*\*63"):
            deserialize(json.dumps(doc))

    def test_non_finite_threshold_rejected(self, fixture_tree_path):
        doc = json.loads(fixture_tree_path.read_text(encoding="utf-8"))
        doc["root"]["threshold"] = float("inf")
        with pytest.raises(ValueError, match="finite"):
            deserialize(json.dumps(doc))


class TestAttachInstances:
    """check_training_rows: do these rows reproduce a stored tree?"""

    def test_binds_fixture_partitions(self, bound_fixture, sample):
        sizes = {}

        def walk(node, rows, node_id):
            sizes[node_id] = len(rows)
            assert int(node.histogram.sum()) == len(rows)
            if not node.is_leaf:
                left, right = support.partition(rows, node.attribute, node.threshold)
                walk(node.left, left, node_id + ".left")
                walk(node.right, right, node_id + ".right")

        walk(bound_fixture.root, sample, "root")
        assert sizes["root"] == 24
        assert sizes["root.left.left"] == 9
        assert sizes["root.left.right.left"] == 4
        assert sizes["root.left.right.right"] == 2
        assert sizes["root.right.left"] == 2
        assert sizes["root.right.right"] == 7

    def test_rejects_rows_that_do_not_reproduce_histograms(
        self, fixture_tree_path, sample
    ):
        tree = deserialize(fixture_tree_path.read_text(encoding="utf-8"))
        flipped = Dataset(
            sample.features,
            np.where(np.arange(24) == 0, 1, sample.labels),
            sample.attribute_names,
            sample.class_names,
        )
        with pytest.raises(ValueError, match="histograms"):
            check_training_rows(tree, flipped)

    def test_rejects_wrong_attribute_count(self, fixture_tree_path):
        tree = deserialize(fixture_tree_path.read_text(encoding="utf-8"))
        ds = two_class([[1.0], [2.0]], [0, 1])
        with pytest.raises(ValueError, match="number of attributes"):
            check_training_rows(tree, ds)

    def test_rejects_wrong_class_count(self, fixture_tree_path):
        tree = deserialize(fixture_tree_path.read_text(encoding="utf-8"))
        ds = Dataset.from_arrays(
            np.zeros((3, 8)), [0, 1, 2], class_names=("a", "b", "c")
        )
        with pytest.raises(ValueError, match="classes"):
            check_training_rows(tree, ds)


class TestDeepTrees:
    """Every walk on trees three times deeper than Python's default
    recursion limit."""

    DEPTH = 3000

    def chain(self):
        """Rows x = 0..DEPTH labelled by the parity of x, and the left spine
        that splits off the largest remaining x at each level, one row per
        leaf."""
        xs = np.arange(self.DEPTH + 1)
        ds = two_class(xs[:, None], xs % 2)

        def leaf(x):
            return TreeNode(histogram=np.eye(2, dtype=np.int64)[x % 2], predicted_class=x % 2)

        node = leaf(0)
        for x in range(1, self.DEPTH + 1):
            right = leaf(x)
            node = TreeNode(node.histogram + right.histogram, 0, x - 0.5, node, right)
        return ds, DecisionTree(node, 0.0, TestCostVector((1.0,)))

    def test_counts_comparison_and_routing(self):
        ds, tree = self.chain()
        assert (tree.node_count(), tree.leaf_count()) == (2 * self.DEPTH + 1, self.DEPTH + 1)
        check_training_rows(tree, ds)
        _, other = self.chain()
        assert structural_equal(tree, other)
        deepest = other.root
        while not deepest.left.is_leaf:
            deepest = deepest.left
        deepest.threshold = 0.25
        assert not structural_equal(tree, other)

    def test_cost_and_pruning(self):
        ds, tree = self.chain()
        tc, mc = tree.tc_used, two_class_matrix(10.0, 10.0)
        cost = average_cost(tree, ds, tc, mc)
        assert (cost.test_cost_total, cost.misclassification_total) == (self.DEPTH + 1, 0.0)
        pruned, trace = post_prune(tree, tc, mc)
        assert [entry.node_id for entry in trace[:2]] == [
            "root" + ".left" * (self.DEPTH - 1),
            "root" + ".left" * (self.DEPTH - 2),
        ]
        assert trace[-1].node_id == "root" and len(trace) == self.DEPTH
        assert not any(entry.pruned for entry in trace)
        assert structural_equal(pruned, tree)

    def test_repr(self):
        _, tree = self.chain()
        text = repr(tree)
        assert text.count("TreeNode(") == 2 * self.DEPTH + 1
        assert text.startswith(
            "DecisionTree(root=TreeNode(histogram=array([1501, 1500]), attribute=0, "
            f"threshold={self.DEPTH - 0.5}, left=TreeNode("
        )

    def test_too_deep_for_json(self):
        _, tree = self.chain()
        with pytest.raises(ValueError, match="tree is nested too deeply to write as JSON"):
            serialize(tree)
