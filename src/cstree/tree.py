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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .costs import TestCostVector, _is_int, _is_number
from .data import Dataset

__all__ = [
    "TreeNode",
    "DecisionTree",
    "SplitCandidate",
    "entropy",
    "best_split",
    "build_tree",
    "build_trees",
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


class _ScanData(NamedTuple):
    """What the split scan reads of a training table, built once per growth."""

    columns: np.ndarray  # (attributes, rows), one contiguous row per attribute
    labels: np.ndarray
    classes: np.ndarray  # 0, 1, ..., k - 1
    # c * log2(c) and log2(c) for every count c from 0 to the number of rows,
    # 0 at c = 0; the scan looks its counts up here
    xlog2x: np.ndarray
    log2: np.ndarray


def _scan_data(data: Dataset) -> _ScanData:
    # numpy's vector log2 fills the tables, as the reference scan in
    # tests/oracles.py takes it of whole count arrays, so every lookup is
    # that value to the last bit (scalar math.log2 differs at a few counts)
    counts = np.arange(len(data) + 1, dtype=np.float64)
    logs = np.zeros_like(counts)
    np.log2(counts, out=logs, where=counts > 0)
    return _ScanData(
        np.ascontiguousarray(data.features.T),
        data.labels,
        np.arange(data.num_classes),
        logs * counts,
        logs,
    )


def _presort(scan: _ScanData) -> np.ndarray:
    """The (attributes, rows) matrix whose row a lists every row sorted
    stably by attribute a: the row set a scan of all rows starts from."""
    return np.argsort(scan.columns, axis=1, kind="stable")


def _ratio_scans(scan: _ScanData, order: np.ndarray, hist, min_leaf_size: int):
    """Every admissible boundary of a row set, found in one pass over all
    attributes at once.

    Row a of ``order`` holds the set's rows sorted stably by attribute a.
    A boundary lies between distinct consecutive sorted values, and is
    admissible when both children hold at least min_leaf_size rows, the
    gain is positive and the split information is at least MIN_SPLIT_INFO.
    Returns (attributes, positions, ratios, ordered, below): flat arrays of
    the admissible boundaries in attribute-major order, positions ascending
    within an attribute, where position p of attribute a lies between
    ``ordered[a, p]`` and ``ordered[a, p + 1]``, the set's values sorted
    per attribute, and ``below[a, p]`` counts the classes of the rows up
    to and including p (in int32).
    """
    n = order.shape[1]
    ordered = scan.columns[np.arange(len(order))[:, None], order]
    attributes, position = np.nonzero(ordered[:, :-1] < ordered[:, 1:])
    keep = (position + 1 >= min_leaf_size) & (position + 1 <= n - min_leaf_size)
    attributes, position = attributes[keep], position[keep]
    # class counts left of every boundary; a count is at most n, so int32
    # holds it and keeps the (m, n, k) block small
    below = np.cumsum(scan.labels[order][:, :, None] == scan.classes, axis=1, dtype=np.int32)
    left_counts = below[attributes, position]
    right_counts = hist - left_counts
    left_sizes = position + 1
    right_sizes = n - left_sizes
    n_left, n_right = left_sizes.astype(np.float64), right_sizes.astype(np.float64)
    # a child's entropy is log2(T) - sum(c * log2 c) / T over its counts c
    h_left = scan.log2[left_sizes] - scan.xlog2x[left_counts].sum(axis=1) / n_left
    h_right = scan.log2[right_sizes] - scan.xlog2x[right_counts].sum(axis=1) / n_right
    gains = np.maximum(entropy(hist) - (n_left * h_left + n_right * h_right) / n, 0.0)
    split_infos = math.log2(n) - (scan.xlog2x[left_sizes] + scan.xlog2x[right_sizes]) / n
    admissible = (gains > 0.0) & (split_infos >= MIN_SPLIT_INFO)
    ratios = gains[admissible] / split_infos[admissible]
    return attributes[admissible], position[admissible], ratios, ordered, below


def _threshold(lower: float, upper: float) -> float:
    """The threshold of the boundary between two consecutive distinct
    values: their midpoint, or ``lower`` where the midpoint rounds onto
    ``upper`` or overflows and so would not split the rows there."""
    midpoint = (lower + upper) / 2.0
    return midpoint if lower <= midpoint < upper else lower


def _checked_exponents(lams, data: Dataset, tc: TestCostVector, min_leaf_size: int):
    """The exponents as floats, after the checks best_split and build_trees share."""
    lams = [float(lam) for lam in lams]
    for lam in lams:
        if not (math.isfinite(lam) and lam <= 0):
            raise ValueError(f"the cost exponent must be finite and zero or negative, got {lam!r}")
    if min_leaf_size < 1:
        raise ValueError("min_leaf_size must be at least 1")
    if len(tc) != data.num_attributes:
        raise ValueError("one test cost per attribute is required")
    return lams


def _weight(tc: TestCostVector, lam: float, a: int) -> float:
    """tc(a) ** lam, or inf where the power overflows a float."""
    try:
        return tc.cost(a) ** lam
    except OverflowError:
        return math.inf


def _weights(tc: TestCostVector, lams) -> np.ndarray:
    """The (exponents x attributes) matrix of _weight."""
    rows = [[_weight(tc, lam, a) for a in range(len(tc))] for lam in lams]
    return np.array(rows, dtype=np.float64).reshape(len(lams), len(tc))


def _first_maxima(ratios: np.ndarray, attributes: np.ndarray, weights: np.ndarray):
    """Per row of ``weights``, the index of the first maximum of
    ratios * weights[row, attributes], and that maximum.

    The pairs are in attribute-major order, so ties go to the lowest
    attribute, then the lowest threshold.
    """
    scores = ratios * weights[:, attributes]
    picks = np.argmax(scores, axis=1)
    return picks, scores[np.arange(len(picks)), picks]


class _Split(NamedTuple):
    """A SplitCandidate plus the class counts of the rows it sends left."""

    attribute: int
    threshold: float
    gain_ratio: float
    heuristic_value: float
    left_counts: np.ndarray


def _splits(scan, order, hist, tc, lams, weights, tested_on_path, min_leaf_size):
    """Each exponent's best split of the row set whose presorted rows are
    ``order`` (see _ratio_scans), as a _Split in the order of ``lams``
    (``weights`` holds their rows of _weights), or None when the row set
    has no admissible pair.

    An attribute already tested on the path is weighed 1. A test cost
    whose power overflows raises ValueError, but only where an admissible
    pair of that attribute needs the weight.
    """
    if order.shape[1] < 2 * min_leaf_size or int((hist > 0).sum()) <= 1:
        return None
    attributes, positions, ratios, ordered, below = _ratio_scans(
        scan, order, hist, min_leaf_size
    )
    if not len(ratios):
        return None
    weights = weights.copy()
    weights[:, sorted(tested_on_path)] = 1.0
    if np.isinf(weights).any():
        used = np.unique(attributes)
        rows, columns = np.nonzero(np.isinf(weights[:, used]))
        if len(rows):
            lam, a = float(lams[rows[0]]), int(used[columns[0]])
            raise ValueError(
                f"test cost {tc.cost(a)!r} of attribute {a} to the power {lam!r} overflows a float"
            )
    picks, scores = _first_maxima(ratios, attributes, weights)
    attributes, positions = attributes[picks].tolist(), positions[picks].tolist()
    # each split's own int64 copy of its left counts, like bincount's
    return [
        _Split(a, _threshold(float(ordered[a, p]), float(ordered[a, p + 1])), ratio, score,
               below[a, p].astype(np.int64))
        for a, p, ratio, score in zip(attributes, positions, ratios[picks].tolist(),
                                      scores.tolist())
    ]


def best_split(
    data: Dataset,
    tc: TestCostVector,
    lam: float,
    tested_on_path: frozenset[int] = frozenset(),
    min_leaf_size: int = DEFAULT_MIN_LEAF,
) -> SplitCandidate | None:
    """Highest-scoring admissible (attribute, threshold) pair, or None.

    Admission requires positive gain, split information above the floor,
    and both children at least min_leaf_size. Ties break toward the lowest
    attribute index, then the lowest threshold.
    """
    lams = _checked_exponents([lam], data, tc, min_leaf_size)
    hist = np.bincount(data.labels, minlength=data.num_classes)
    scan = _scan_data(data)
    splits = _splits(
        scan, _presort(scan), hist, tc, lams, _weights(tc, lams), tested_on_path, min_leaf_size
    )
    return None if splits is None else SplitCandidate(*splits[0][:4])


@dataclass(eq=False, repr=False)
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

    def __repr__(self) -> str:
        # the dataclass's own text, built children first on an explicit
        # stack, the way serialize builds its dicts, so that any depth works
        nodes, stack = [], [self]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack += [child for child in (node.left, node.right) if isinstance(child, TreeNode)]
        built: list[str] = []
        for node in reversed(nodes):
            right = built.pop() if isinstance(node.right, TreeNode) else repr(node.right)
            left = built.pop() if isinstance(node.left, TreeNode) else repr(node.left)
            built.append(
                f"{type(node).__qualname__}(histogram={node.histogram!r}, "
                f"attribute={node.attribute!r}, threshold={node.threshold!r}, left={left}, "
                f"right={right}, predicted_class={node.predicted_class!r})"
            )
        return built.pop()


def walk(root: TreeNode):
    """Every node under ``root`` as (node, attributes tested above it), on
    an explicit stack so that any depth works. Parents come first and right
    subtrees before left, so ``reversed`` of the walk is children first,
    left before right.

    A node's children are read, and pushed left then right, only when the
    walk resumes after it. So a caller that pushes one item per child, left
    then right, onto a stack of its own pops each item with its node."""
    stack = [(root, frozenset())]
    while stack:
        node, path = stack.pop()
        yield node, path
        if not node.is_leaf:
            deeper = path | {node.attribute}
            stack.append((node.left, deeper))
            stack.append((node.right, deeper))


@dataclass(eq=False, repr=False)
class DecisionTree:
    """A grown tree plus the exponent and test costs that grew it."""

    root: TreeNode
    lambda_used: float
    tc_used: TestCostVector

    def node_count(self) -> int:
        return sum(1 for _ in walk(self.root))

    def leaf_count(self) -> int:
        return sum(node.is_leaf for node, _ in walk(self.root))

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(root={self.root!r}, lambda_used={self.lambda_used!r}, "
            f"tc_used={self.tc_used!r})"
        )


def build_trees(
    train: Dataset,
    tc: TestCostVector,
    lams,
    min_leaf_size: int = DEFAULT_MIN_LEAF,
) -> list[DecisionTree]:
    """Grow one tree per exponent of ``lams``, each finite and <= 0, in
    one pass over the training rows.

    Growth stops at pure subsets, at subsets too small to split into two
    children of min_leaf_size, and where no candidate has positive gain.
    Attributes may be re-tested deeper down with new thresholds. Each row
    set is scanned once for all the exponents whose trees reach it, and
    each exponent picks from the same products as best_split, so every
    tree is the one that exponent grows alone. Exponents that pick the
    same split grow together, depth first, left before right.

    The trees share structure: wherever exponents grow equal subtrees from
    the same row set, they hold one subtree object, and exponents that are
    never told apart share one root. Treat the nodes as read-only. Callers
    such as run_competitions prune and cost each distinct root once.

    The rows are sorted once per attribute, at the root. A child's sorted
    rows are its parent's with the other child's taken out: a stable
    partition of a stable sort is the stable sort of the child's rows,
    ties in row order, so no node sorts again. A child's class counts are
    the ones the parent's scan counted left of the split's boundary.
    """
    lams = _checked_exponents(lams, train, tc, min_leaf_size)
    exponents, weights = np.array(lams), _weights(tc, lams)
    scan = _scan_data(train)
    # each exponent's root hangs as the left child of a placeholder
    tops = [TreeNode(histogram=None) for _ in lams]
    internal: list[TreeNode] = []  # every split node, parents before children
    # (the rows sorted per attribute, their class counts, the exponents
    # whose trees reach them, attributes tested above, those exponents'
    # parent nodes, the side the new nodes hang on)
    hist = np.bincount(train.labels, minlength=train.num_classes)
    stack = [(_presort(scan), hist, np.arange(len(lams)), frozenset(), tops, "left")]
    while stack:
        order, hist, group, path, parents, side = stack.pop()
        lams_here, weights_here = exponents[group], weights[group]
        splits = _splits(scan, order, hist, tc, lams_here, weights_here, path, min_leaf_size)
        if splits is None:
            nodes = [TreeNode(histogram=hist, predicted_class=int(np.argmax(hist)))] * len(group)
        else:
            nodes = [TreeNode(hist, split.attribute, split.threshold) for split in splits]
            internal += nodes
            picks = [(split.attribute, split.threshold) for split in splits]
            # pushed last to first, so each pick's left subtree grows first
            for attribute, threshold in reversed(dict.fromkeys(picks)):
                members = [i for i, pick in enumerate(picks) if pick == (attribute, threshold)]
                # every row of the mask keeps the same rows, in its own order
                goes_left = scan.columns[attribute][order] <= threshold
                left = order[goes_left].reshape(len(order), -1)
                right = order[~goes_left].reshape(len(order), -1)
                left_hist = splits[members[0]].left_counts
                right_hist = hist - left_hist
                above, deeper = [nodes[i] for i in members], path | {attribute}
                stack.append((right, right_hist, group[members], deeper, above, "right"))
                stack.append((left, left_hist, group[members], deeper, above, "left"))
        for parent, node in zip(parents, nodes):
            setattr(parent, side, node)
    # Hash-consing, children first: a split node whose test and (already
    # shared) children equal an earlier one's is replaced by that node.
    # Leaves are one object per row set and exponent group already, so
    # comparing children by identity finds every equal subtree.
    unique: dict[tuple, TreeNode] = {}
    shared: dict[TreeNode, TreeNode] = {}  # each split node -> the one kept
    for node in reversed(internal):
        node.left = shared.get(node.left, node.left)
        node.right = shared.get(node.right, node.right)
        key = (node.attribute, node.threshold, node.left, node.right)
        shared[node] = unique.setdefault(key, node)
    return [DecisionTree(shared.get(top.left, top.left), lam, tc) for top, lam in zip(tops, lams)]


def build_tree(
    train: Dataset,
    tc: TestCostVector,
    lam: float,
    min_leaf_size: int = DEFAULT_MIN_LEAF,
) -> DecisionTree:
    """Grow a tree on the training rows with exponent ``lam``; see build_trees."""
    return build_trees(train, tc, [lam], min_leaf_size)[0]


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


def route(tree: DecisionTree, data: Dataset):
    """Each leaf in walk order as (leaf, attributes on its path, positions
    in ``data`` of the rows that reach it). Rows go down as whole arrays,
    one mask per internal node; classify is the same walk for one row."""
    columns = data.features.T
    reaching = [np.arange(len(data))]  # in step with the walk's own stack
    for node, path in walk(tree.root):
        rows = reaching.pop()
        if node.is_leaf:
            yield node, path, rows
            continue
        goes_left = columns[node.attribute][rows] <= node.threshold
        reaching += [rows[goes_left], rows[~goes_left]]


def structural_equal(a: DecisionTree, b: DecisionTree) -> bool:
    """Same shape, tests, thresholds, predictions, and histograms."""
    # the walks stay in step for as long as the nodes they meet agree
    for (x, _), (y, _) in zip(walk(a.root), walk(b.root)):
        if x.is_leaf != y.is_leaf or list(x.histogram) != list(y.histogram):
            return False
        if x.is_leaf:
            if x.predicted_class != y.predicted_class:
                return False
        elif x.attribute != y.attribute or x.threshold != y.threshold:
            return False
    return True


def serialize(tree: DecisionTree) -> str:
    """Render the tree as JSON: structure, thresholds at full precision,
    leaf histograms, the exponent, and the test costs. A tree nested too
    deeply for json to write raises ValueError, as json could not read it
    back either."""
    # children first, left before right: a node's children are the last two built
    built: list[dict] = []
    for node, _ in reversed(list(walk(tree.root))):
        if node.is_leaf:
            built.append(
                {"leaf": int(node.predicted_class), "histogram": [int(c) for c in node.histogram]}
            )
        else:
            right, left = built.pop(), built.pop()
            built.append(
                {
                    "attribute": int(node.attribute),
                    "threshold": float(node.threshold),
                    "left": left,
                    "right": right,
                }
            )
    doc = {
        "lambda": float(tree.lambda_used),
        "test_costs": [float(c) for c in tree.tc_used.costs],
        "root": built.pop(),
    }
    try:
        return json.dumps(doc, separators=(",", ":"))
    except RecursionError:
        raise ValueError("tree is nested too deeply to write as JSON") from None


def _tree_from_json(top, num_attributes: int) -> TreeNode:
    """The checked tree of a parsed JSON root node."""
    root = TreeNode(histogram=None)
    pending = [top]  # in step with the walk's own stack
    nodes: list[TreeNode] = []
    width = None
    # the walk reads a node's children only after this loop has hung them
    for node, _ in walk(root):
        obj = pending.pop()
        if not isinstance(obj, dict):
            raise ValueError("tree nodes must be JSON objects")
        keys = set(obj)
        if keys == {"leaf", "histogram"}:
            hist = obj["histogram"]
            if not (isinstance(hist, list) and hist and all(_is_int(c) and c >= 0 for c in hist)):
                raise ValueError("leaf histogram must be a list of nonnegative integers")
            width = width or len(hist)
            if len(hist) != width:
                raise ValueError("all leaf histograms must have the same length")
            predicted = obj["leaf"]
            if not _is_int(predicted) or not 0 <= predicted < len(hist):
                raise ValueError("leaf class must index the histogram")
            if sum(hist) >= 2**63:
                raise ValueError("histogram counts must total less than 2**63")
            node.histogram = np.array(hist, dtype=np.int64)
            if predicted != int(np.argmax(node.histogram)):
                raise ValueError("leaf class must be the majority of its histogram")
            node.predicted_class = predicted
        elif keys == {"attribute", "threshold", "left", "right"}:
            attribute = obj["attribute"]
            if not _is_int(attribute) or not 0 <= attribute < num_attributes:
                raise ValueError(f"attribute index must lie in [0, {num_attributes - 1}]")
            threshold = obj["threshold"]
            if not _is_number(threshold) or not math.isfinite(threshold):
                raise ValueError("threshold must be a finite number")
            node.attribute, node.threshold = attribute, float(threshold)
            node.left, node.right = TreeNode(histogram=None), TreeNode(histogram=None)
            pending += [obj["left"], obj["right"]]
        else:
            raise ValueError(
                "node must have exactly the keys {leaf, histogram} or "
                "{attribute, threshold, left, right}"
            )
        nodes.append(node)
    for node in reversed(nodes):
        if not node.is_leaf:
            left, right = node.left.histogram, node.right.histogram
            # each child's total fits an int64, so these sums are exact
            if int(left.sum()) + int(right.sum()) >= 2**63:
                raise ValueError("histogram counts must total less than 2**63")
            node.histogram = left + right
    return root


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
    if not _is_number(lam) or not (math.isfinite(lam) and lam <= 0):
        raise ValueError("lambda must be a finite number <= 0")
    costs = doc["test_costs"]
    if not isinstance(costs, list) or not all(_is_number(c) for c in costs):
        raise ValueError("test_costs must be a list of numbers")
    tc = TestCostVector(tuple(costs))
    root = _tree_from_json(doc["root"], len(tc))
    return DecisionTree(root=root, lambda_used=float(lam), tc_used=tc)


def check_training_rows(tree: DecisionTree, data: Dataset) -> None:
    """Raise ValueError unless ``data`` can be the tree's training rows.

    The rows are routed through the tree's tests and must reproduce every
    stored leaf histogram exactly.
    """
    if data.num_classes != len(tree.root.histogram):
        raise ValueError(
            f"tree counts {len(tree.root.histogram)} classes, data has {data.num_classes}"
        )
    if data.num_attributes != len(tree.tc_used):
        raise ValueError("data and tree disagree on the number of attributes")
    for leaf, _, rows in route(tree, data):
        counts = np.bincount(data.labels[rows], minlength=data.num_classes)
        if list(counts) != list(leaf.histogram):
            raise ValueError("routed rows do not reproduce the stored leaf histograms")
