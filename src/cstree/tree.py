"""Binary threshold trees grown by cost-weighted gain ratio.

A split on attribute a is scored as gain_ratio * tc(a) ** lam with
lam <= 0, so cheap attributes are preferred and the penalty grows as lam
falls. An attribute already tested higher up the same path is re-scored
with weight 1: its outcome is already paid for, so re-testing it costs
nothing new and the score degenerates to the plain gain ratio.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .costs import TestCostVector, _is_int, _is_number
from .data import InstanceSubset

__all__ = [
    "TreeNode",
    "DecisionTree",
    "SplitCandidate",
    "entropy",
    "best_split",
    "build_tree",
    "classify",
    "serialize",
    "deserialize",
    "check_training_rows",
    "structural_equal",
]

# Split information below this floor is treated as no split at all; it
# guards the gain / split_info division against degenerate partitions.
MIN_SPLIT_INFO = 1e-12

DEFAULT_MIN_LEAF = 2


def entropy(histogram) -> float:
    """Shannon entropy, in bits, of a vector of class counts."""
    counts = np.asarray(histogram, dtype=np.float64)
    if counts.ndim != 1 or counts.size == 0 or (counts < 0).any():
        raise ValueError("histogram must be a 1-D vector of nonnegative counts")
    total = counts.sum()
    if total <= 0:
        raise ValueError("histogram must count at least one instance")
    probs = counts[counts > 0] / total
    return float(-(probs * np.log2(probs)).sum()) + 0.0


@dataclass(frozen=True)
class SplitCandidate:
    attribute: int
    threshold: float
    gain_ratio: float
    heuristic_value: float


def _xlog2x(values: np.ndarray) -> np.ndarray:
    out = np.zeros_like(values, dtype=np.float64)
    np.log2(values, out=out, where=values > 0)
    out *= values
    return out


def _entropy_rows(count_rows: np.ndarray, totals: np.ndarray) -> np.ndarray:
    # log2(T) - sum(c * log2 c) / T per row; the row totals T must be positive
    return np.log2(totals) - _xlog2x(count_rows).sum(axis=1) / totals


def _as_candidate(best: tuple[float, int, float, float] | None) -> SplitCandidate | None:
    """SplitCandidate from a (score, attribute, threshold, ratio) tuple."""
    if best is None:
        return None
    score, attribute, threshold, ratio = best
    return SplitCandidate(attribute, threshold, ratio, score)


def _ratio_scans(subset: InstanceSubset, hist, min_leaf_size: int):
    """Every admissible (attribute, threshold) pair of the subset, found in
    one pass over all attributes at once.

    Each column is sorted stably; a boundary lies between distinct
    consecutive sorted values, and is admissible when both children hold
    at least min_leaf_size rows, the gain is positive and the split
    information is at least MIN_SPLIT_INFO. Returns (attributes,
    thresholds, ratios) as flat arrays in attribute-major order, with
    thresholds ascending within an attribute, and the (attribute, start,
    stop) span of each attribute that has an admissible pair.
    """
    n = len(subset)
    columns = subset.dataset.features[subset.indices].T
    order = np.argsort(columns, axis=1, kind="stable")
    ordered = np.take_along_axis(columns, order, axis=1)
    attributes, position = np.nonzero(ordered[:, :-1] < ordered[:, 1:])
    keep = (position + 1 >= min_leaf_size) & (position + 1 <= n - min_leaf_size)
    attributes, position = attributes[keep], position[keep]
    # class counts left of every boundary; a count is at most n, so int32
    # holds it and keeps the (m, n, k) block small
    ordered_labels = subset.labels[order]
    below = np.cumsum(
        ordered_labels[:, :, None] == np.arange(subset.dataset.num_classes),
        axis=1,
        dtype=np.int32,
    )
    left_counts = below[attributes, position].astype(np.float64)
    right_counts = hist - left_counts
    n_left = (position + 1).astype(np.float64)
    n_right = n - n_left
    h_left = _entropy_rows(left_counts, n_left)
    h_right = _entropy_rows(right_counts, n_right)
    gains = np.maximum(entropy(hist) - (n_left * h_left + n_right * h_right) / n, 0.0)
    split_infos = math.log2(n) - (_xlog2x(n_left) + _xlog2x(n_right)) / n
    admissible = (gains > 0.0) & (split_infos >= MIN_SPLIT_INFO)
    attributes, position = attributes[admissible], position[admissible]
    thresholds = (ordered[attributes, position] + ordered[attributes, position + 1]) / 2.0
    ratios = gains[admissible] / split_infos[admissible]
    present = np.flatnonzero(np.bincount(attributes, minlength=columns.shape[0]))
    starts = np.searchsorted(attributes, present)
    stops = np.searchsorted(attributes, present, side="right")
    spans = list(zip(present.tolist(), starts.tolist(), stops.tolist()))
    return attributes, thresholds, ratios, spans


def _near_top(ratios: np.ndarray) -> np.ndarray:
    """Indices up to the first maximum i0 whose values lie within four
    ulps of it.

    Scaling by a weight w > 0 is monotone, so argmax(ratios * w) is i0
    unless rounding makes r_j * w == r_i0 * w for some j < i0. When that
    product is a normal number, equal products need r_j within about two
    ulps of r_i0, so these indices, in order, hold every possible winner.
    """
    i0 = int(np.argmax(ratios))
    return np.flatnonzero(ratios[: i0 + 1] >= ratios[i0] - 4 * np.spacing(ratios[i0]))


def _split_candidates(subset: InstanceSubset, hist, min_leaf_size: int):
    """The exponent-free part of best_split: per attribute with an
    admissible split, the (thresholds, ratios) that can win at any weight."""
    _, thresholds, ratios, spans = _ratio_scans(subset, hist, min_leaf_size)
    candidates = []
    for a, start, stop in spans:
        near = start + _near_top(ratios[start:stop])
        candidates.append((a, thresholds[near].tolist(), ratios[near].tolist()))
    return tuple(candidates)


def _weight(tc: TestCostVector, lam: float, a: int, tested_on_path) -> float:
    """tc(a) ** lam, or 1 for an attribute already tested on the path."""
    return 1.0 if a in tested_on_path else tc.cost(a) ** lam


def _pick_split(candidates, tc, lam, tested_on_path) -> SplitCandidate | None | bool:
    """best_split's choice from _split_candidates, or False when a winning
    product is not a normal number and only a full rescan is exact."""
    best: tuple[float, int, float, float] | None = None
    for a, thresholds, ratios in candidates:
        weight = _weight(tc, lam, a, tested_on_path)
        top = None
        for threshold, ratio in zip(thresholds, ratios):
            score = ratio * weight
            if top is None or score > top[0]:
                top = (score, a, threshold, ratio)
        if not sys.float_info.min <= top[0] <= sys.float_info.max:
            return False
        if best is None or top[0] > best[0]:
            best = top
    return _as_candidate(best)


def best_split(
    subset: InstanceSubset,
    tc: TestCostVector,
    lam: float,
    tested_on_path: frozenset[int] = frozenset(),
    min_leaf_size: int = DEFAULT_MIN_LEAF,
    cache: dict | None = None,
) -> SplitCandidate | None:
    """Highest-scoring admissible (attribute, threshold) pair, or None.

    Admission requires positive gain, split information above the floor,
    and both children at least min_leaf_size. Ties break toward the lowest
    attribute index, then the lowest threshold.

    ``cache`` maps a row set's index bytes to its _split_candidates, so
    growth at other exponents or along other paths rescans nothing. One
    cache serves one dataset and one min_leaf_size only.
    """
    if lam > 0:
        raise ValueError("the cost exponent must be zero or negative")
    if min_leaf_size < 1:
        raise ValueError("min_leaf_size must be at least 1")
    if len(tc) != subset.dataset.num_attributes:
        raise ValueError("one test cost per attribute is required")
    hist = subset.class_histogram()
    if len(subset) < 2 * min_leaf_size or int((hist > 0).sum()) <= 1:
        return None
    if cache is not None:
        key = subset.indices.tobytes()
        candidates = cache.get(key)
        if candidates is None:
            candidates = cache[key] = _split_candidates(subset, hist, min_leaf_size)
        picked = _pick_split(candidates, tc, lam, tested_on_path)
        if picked is not False:
            return picked
    attributes, thresholds, ratios, spans = _ratio_scans(subset, hist, min_leaf_size)
    if not spans:
        return None
    weights = np.zeros(subset.dataset.num_attributes)
    for a, _, _ in spans:
        weights[a] = _weight(tc, lam, a, tested_on_path)
    # the first maximum in attribute-major order: lowest attribute, then threshold
    scores = ratios * weights[attributes]
    i = int(np.argmax(scores))
    return _as_candidate(
        (float(scores[i]), int(attributes[i]), float(thresholds[i]), float(ratios[i]))
    )


@dataclass(eq=False)
class TreeNode:
    """One tree node; a leaf when ``attribute`` is None.

    ``histogram`` counts the training rows of each class that reached the
    node; it is all that pruning needs to know about those rows.
    """

    histogram: np.ndarray
    attribute: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    predicted_class: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.attribute is None


@dataclass(eq=False)
class DecisionTree:
    """A grown tree plus the exponent and test costs that grew it."""

    root: TreeNode
    lambda_used: float
    tc_used: TestCostVector

    def node_count(self) -> int:
        def count(node):
            if node.is_leaf:
                return 1
            return 1 + count(node.left) + count(node.right)

        return count(self.root)

    def leaf_count(self) -> int:
        def count(node):
            if node.is_leaf:
                return 1
            return count(node.left) + count(node.right)

        return count(self.root)

    def internal_nodes(self) -> int:
        return self.node_count() - self.leaf_count()


def _leaf_from(subset: InstanceSubset) -> TreeNode:
    hist = subset.class_histogram()
    return TreeNode(histogram=hist, predicted_class=int(np.argmax(hist)))


def _grow(subset, tc, lam, tested_on_path, min_leaf_size, cache) -> TreeNode:
    if subset.is_pure() or len(subset) < 2 * min_leaf_size:
        return _leaf_from(subset)
    candidate = best_split(subset, tc, lam, tested_on_path, min_leaf_size, cache)
    if candidate is None:
        return _leaf_from(subset)
    left, right = subset.partition(candidate.attribute, candidate.threshold)
    deeper = tested_on_path | {candidate.attribute}
    return TreeNode(
        histogram=subset.class_histogram(),
        attribute=candidate.attribute,
        threshold=candidate.threshold,
        left=_grow(left, tc, lam, deeper, min_leaf_size, cache),
        right=_grow(right, tc, lam, deeper, min_leaf_size, cache),
    )


def build_tree(
    train: InstanceSubset,
    tc: TestCostVector,
    lam: float,
    min_leaf_size: int = DEFAULT_MIN_LEAF,
    cache: dict | None = None,
) -> DecisionTree:
    """Grow a tree on the training rows with exponent ``lam`` <= 0.

    Growth stops at pure subsets, at subsets too small to split into two
    children of min_leaf_size, and where no candidate has positive gain.
    Attributes may be re-tested deeper down with new thresholds. Trees
    grown on the same rows and min_leaf_size at several exponents can
    share one ``cache`` dict (see best_split); the trees are the same.
    """
    if len(train) == 0:
        raise ValueError("cannot grow a tree from an empty training set")
    if lam > 0:
        raise ValueError("the cost exponent must be zero or negative")
    if len(tc) != train.dataset.num_attributes:
        raise ValueError("one test cost per attribute is required")
    root = _grow(train, tc, float(lam), frozenset(), min_leaf_size, cache)
    return DecisionTree(root=root, lambda_used=float(lam), tc_used=tc)


def classify(tree: DecisionTree, instance) -> tuple[int, frozenset[int]]:
    """Predict one feature vector; also report the distinct attributes tested."""
    x = np.asarray(instance, dtype=np.float64)
    if x.shape != (len(tree.tc_used),):
        raise ValueError(f"expected a vector of {len(tree.tc_used)} features, got shape {x.shape}")
    node = tree.root
    tested: set[int] = set()
    while not node.is_leaf:
        tested.add(node.attribute)
        node = node.left if x[node.attribute] <= node.threshold else node.right
    return int(node.predicted_class), frozenset(tested)


def structural_equal(a: DecisionTree, b: DecisionTree) -> bool:
    """Same shape, tests, thresholds, predictions, and histograms."""

    def eq(x: TreeNode, y: TreeNode) -> bool:
        if x.is_leaf != y.is_leaf:
            return False
        if list(x.histogram) != list(y.histogram):
            return False
        if x.is_leaf:
            return x.predicted_class == y.predicted_class
        return (
            x.attribute == y.attribute
            and x.threshold == y.threshold
            and eq(x.left, y.left)
            and eq(x.right, y.right)
        )

    return eq(a.root, b.root)


def _node_to_json(node: TreeNode):
    if node.is_leaf:
        return {
            "leaf": int(node.predicted_class),
            "histogram": [int(c) for c in node.histogram],
        }
    return {
        "attribute": int(node.attribute),
        "threshold": float(node.threshold),
        "left": _node_to_json(node.left),
        "right": _node_to_json(node.right),
    }


def serialize(tree: DecisionTree) -> str:
    """Render the tree as JSON: structure, thresholds at full precision,
    leaf histograms, the exponent, and the test costs."""
    doc = {
        "lambda": float(tree.lambda_used),
        "test_costs": [float(c) for c in tree.tc_used.costs],
        "root": _node_to_json(tree.root),
    }
    return json.dumps(doc, separators=(",", ":"))


def _node_from_json(obj, num_attributes: int, leaf_width: list[int | None]) -> TreeNode:
    if not isinstance(obj, dict):
        raise ValueError("tree nodes must be JSON objects")
    keys = set(obj)
    if keys == {"leaf", "histogram"}:
        hist = obj["histogram"]
        if not isinstance(hist, list) or not hist or not all(_is_int(c) and c >= 0 for c in hist):
            raise ValueError("leaf histogram must be a list of nonnegative integers")
        if leaf_width[0] is None:
            leaf_width[0] = len(hist)
        elif leaf_width[0] != len(hist):
            raise ValueError("all leaf histograms must have the same length")
        predicted = obj["leaf"]
        if not _is_int(predicted) or not 0 <= predicted < len(hist):
            raise ValueError("leaf class must index the histogram")
        if sum(hist) >= 2**63:
            raise ValueError("histogram counts must total less than 2**63")
        arr = np.array(hist, dtype=np.int64)
        if predicted != int(np.argmax(arr)):
            raise ValueError("leaf class must be the majority of its histogram")
        return TreeNode(histogram=arr, predicted_class=predicted)
    if keys == {"attribute", "threshold", "left", "right"}:
        attribute = obj["attribute"]
        if not _is_int(attribute) or not 0 <= attribute < num_attributes:
            raise ValueError(f"attribute index must lie in [0, {num_attributes - 1}]")
        threshold = obj["threshold"]
        if not _is_number(threshold) or not math.isfinite(threshold):
            raise ValueError("threshold must be a finite number")
        left = _node_from_json(obj["left"], num_attributes, leaf_width)
        right = _node_from_json(obj["right"], num_attributes, leaf_width)
        # each child's total fits an int64, so these sums are exact
        if int(left.histogram.sum()) + int(right.histogram.sum()) >= 2**63:
            raise ValueError("histogram counts must total less than 2**63")
        return TreeNode(
            histogram=left.histogram + right.histogram,
            attribute=attribute,
            threshold=float(threshold),
            left=left,
            right=right,
        )
    raise ValueError(
        "node must have exactly the keys {leaf, histogram} or "
        "{attribute, threshold, left, right}"
    )


def deserialize(text: str) -> DecisionTree:
    """Parse a serialized tree; malformed input raises ValueError.

    The result is the same kind of tree that build_tree returns, ready to
    classify and to prune; each internal node's histogram is the sum of
    its children's.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError("tree JSON is nested too deeply") from None
    if not isinstance(doc, dict) or set(doc) != {"lambda", "test_costs", "root"}:
        raise ValueError("top level must be an object with lambda, test_costs, root")
    lam = doc["lambda"]
    if not _is_number(lam) or not lam <= 0:
        raise ValueError("lambda must be a number <= 0")
    costs = doc["test_costs"]
    if not isinstance(costs, list) or not all(_is_number(c) for c in costs):
        raise ValueError("test_costs must be a list of numbers")
    tc = TestCostVector(tuple(costs))
    leaf_width: list[int | None] = [None]
    try:
        # the parser's nesting limit and this walk's need not agree
        root = _node_from_json(doc["root"], len(tc), leaf_width)
    except RecursionError:
        raise ValueError("tree JSON is nested too deeply") from None
    return DecisionTree(root=root, lambda_used=float(lam), tc_used=tc)


def check_training_rows(tree: DecisionTree, data: InstanceSubset) -> None:
    """Raise ValueError unless ``data`` can be the tree's training rows.

    The rows are routed through the tree's tests and must reproduce every
    stored leaf histogram exactly.
    """
    if data.dataset.num_classes != len(tree.root.histogram):
        raise ValueError(
            f"tree counts {len(tree.root.histogram)} classes, data has "
            f"{data.dataset.num_classes}"
        )
    if data.dataset.num_attributes != len(tree.tc_used):
        raise ValueError("data and tree disagree on the number of attributes")

    def check(node: TreeNode, sub: InstanceSubset) -> None:
        if node.is_leaf:
            if list(sub.class_histogram()) != list(node.histogram):
                raise ValueError(
                    "routed rows do not reproduce the stored leaf histograms"
                )
            return
        left, right = sub.partition(node.attribute, node.threshold)
        check(node.left, left)
        check(node.right, right)

    check(tree.root, data)
