"""Binary threshold trees grown by cost-weighted gain ratio.

A split on attribute a is scored as gain_ratio * tc(a) ** lam with
lam <= 0, so cheap attributes are preferred and the penalty grows as lam
falls. An attribute already tested higher up the same path is re-scored
with weight 1: its outcome is already paid for, so re-testing it costs
nothing new and the score degenerates to the plain gain ratio.
"""

from __future__ import annotations

import itertools
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
    if counts.ndim != 1 or counts.size == 0 or not (np.isfinite(counts) & (counts >= 0)).all():
        raise ValueError("histogram must be a 1-D vector of finite nonnegative counts")
    with np.errstate(over="ignore"):
        total = counts.sum()
    if not math.isfinite(total):
        raise ValueError("histogram counts must sum to a finite number")
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
    values: np.ndarray  # columns.ravel(): row r of attribute a at a * rows + r
    offsets: np.ndarray  # (attributes, 1): a * rows, where each attribute's values start
    labels: np.ndarray
    of_class: np.ndarray  # (classes, rows) bool: row r is of class c
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
    columns = np.ascontiguousarray(data.features.T)
    return _ScanData(
        columns,
        columns.ravel(),
        np.arange(data.num_attributes)[:, None] * len(data),
        data.labels,
        data.labels == np.arange(data.num_classes)[:, None],
        logs * counts,
        logs,
    )


def _presort(scan: _ScanData) -> np.ndarray:
    """The (attributes, rows) matrix whose row a lists every row sorted
    stably by attribute a: the row set a scan of all rows starts from."""
    return np.argsort(scan.columns, axis=1, kind="stable")


class _Level(NamedTuple):
    """The row sets at one depth of growth, and their (row set, exponent)
    pairs. A row set is the rows one group of exponents sends to a node;
    the same rows reached by two groups are two row sets. Their presorted
    rows sit side by side in ``order``: row set s in ``sizes[s]`` columns,
    in the order of the row sets.
    """

    order: np.ndarray  # (attributes, rows of all sets); row a sorted stably by attribute a
    sizes: np.ndarray  # (sets,)
    hists: np.ndarray  # (sets, classes) int64 class counts
    paths: np.ndarray  # (sets, attributes) bool, the attributes tested above
    pair_set: np.ndarray  # (pairs,) each pair's row set
    pair_exp: np.ndarray  # (pairs,) each pair's exponent, an index into the grid


def _root_level(scan: _ScanData, exponents: int, path) -> _Level:
    """The one row set of every training row, reached by every exponent,
    with the attributes of ``path`` tested above it."""
    hists = np.bincount(scan.labels, minlength=len(scan.of_class))[None, :]
    paths = np.zeros((1, len(scan.columns)), dtype=bool)
    paths[0, sorted(path)] = True
    return _Level(_presort(scan), hists.sum(axis=1), hists, paths,
                  np.zeros(exponents, np.intp), np.arange(exponents))


def _class_sums(table: np.ndarray, counts: list) -> np.ndarray:
    """Per position, the sum over the classes of ``table`` at each class's
    count there, as numpy sums a (positions, classes) block of the terms:
    left to right below 8 classes, and pairwise, by numpy's own reduction,
    from 8 on. Below 8 the loop gives the block's bits without building
    the block, and is kept for speed: stacking instead made a pima-sweep
    operation about 11% slower (CHANGES.md, level-wise growth)."""
    if len(counts) >= 8:
        return table.take(np.stack(counts, axis=1)).sum(axis=1)
    total = table.take(counts[0])
    for count in counts[1:]:
        total += table.take(count)
    return total


def _entropies(hists: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """entropy of every row of a (sets, classes) block of class counts,
    whose sums are ``sizes``, to the last bit: below 8 classes the zero
    counts add 0.0 terms to a left-to-right sum, which leaves it unchanged."""
    if hists.shape[1] >= 8:
        return np.array([entropy(hist) for hist in hists])
    probs = hists.T / sizes
    # log2(1) = 0 stands in for log2(0) at a zero count; 0.0 - x is -x + 0.0
    return 0.0 - (probs * np.log2(probs + (probs == 0.0))).sum(axis=0)


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


def _weights(tc: TestCostVector, lams) -> np.ndarray:
    """The (exponents x attributes) matrix of tc(a) ** lam, inf where the
    power overflows a float."""
    rows = []
    for lam in lams:
        row = []
        for cost in tc.costs:
            try:
                row.append(cost**lam)
            except OverflowError:
                row.append(math.inf)
        rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(len(lams), len(tc))


# Boundaries whose gain ratios are computed together. Arrays of every
# boundary of a 20,000-row level at once would hold tens of MB; slices of
# this size keep the scan's memory to a few MB, and run no slower.
_SLICE = 1 << 12


class _Columns(NamedTuple):
    """Per column of a level's block: its row set, and the children's
    sizes a boundary right after it makes; and per row set, the log2 of
    its size, by scalar math.log2."""

    set_of: np.ndarray
    left_size: np.ndarray
    right_size: np.ndarray
    log2_sizes: np.ndarray


def _gain_ratios(scan, columns: _Columns, prefixes, hists, entropies, cells):
    """The admissible boundaries among ``cells`` (see _candidates), and
    their gain ratios."""
    position = cells % len(columns.set_of)
    sets = columns.set_of.take(position)
    left_sizes = columns.left_size.take(position)
    # each class's rows left of the boundary: prefix counts at the boundary
    # less those before its row set's first column; class 0 holds the rest
    ends = cells + 1
    starts = ends - left_sizes
    left = [prefix.take(ends) - prefix.take(starts) for prefix in prefixes]
    left.insert(0, left_sizes - sum(left[1:], left[0]))
    # the left children, then the right children, side by side
    sizes = np.concatenate([left_sizes, columns.right_size.take(position)])
    counts = [
        np.concatenate([count, hist.take(sets) - count]) for hist, count in zip(hists.T, left)
    ]
    n_child = sizes.astype(np.float64)
    # a child's entropy is log2(T) - sum(c * log2 c) / T over its counts c,
    # and gain = entropy(parent) - (n_left * h_left + n_right * h_right) / n
    weighted = scan.log2.take(sizes) - _class_sums(scan.xlog2x, counts) / n_child
    weighted *= n_child
    boundaries = len(cells)
    n = n_child[:boundaries] + n_child[boundaries:]
    weighted = weighted[:boundaries] + weighted[boundaries:]
    weighted /= n
    # only a positive gain is admitted, so the gain's floor at 0 is left out
    gains = entropies.take(sets)
    gains -= weighted
    # split information log2(n) - (n_left * log2 n_left + n_right * log2 n_right) / n
    terms = scan.xlog2x.take(sizes)
    split_infos = columns.log2_sizes.take(sets) - (terms[:boundaries] + terms[boundaries:]) / n
    admissible = ((gains > 0.0) & (split_infos >= MIN_SPLIT_INFO)).nonzero()[0]
    return cells.take(admissible), (gains / split_infos).take(admissible)


def _candidates(scan: _ScanData, level: _Level, min_leaf_size: int):
    """Every admissible boundary of a level, and its gain ratio, from one
    pass over the block of all its row sets and attributes.

    A row set is open when it holds at least 2 * min_leaf_size rows of more
    than one class. A boundary lies between distinct consecutive sorted
    values of one open row set, and is admissible when both children hold
    at least min_leaf_size rows, the gain is positive and the split
    information is at least MIN_SPLIT_INFO. Returns (cells, ratios):
    each boundary as the cell a * n + p of the (attributes, n) block whose
    column p it follows, ascending, and its gain ratio.
    """
    order, sizes, hists = level.order, level.sizes, level.hists
    m, n = order.shape
    opened = (sizes >= 2 * min_leaf_size) & (hists.max(axis=1) < sizes)
    if not opened.any():
        return np.zeros(0, np.intp), np.zeros(0)
    # per column: its row set, and what a boundary right after it makes
    set_of = np.repeat(np.arange(len(sizes)), sizes)
    left_size = np.arange(1, n + 1) - (sizes.cumsum() - sizes).take(set_of)
    right_size = sizes.take(set_of) - left_size
    columns = _Columns(set_of, left_size, right_size,
                       np.array([math.log2(size) for size in sizes.tolist()]))
    fits = (left_size >= min_leaf_size) & (right_size >= min_leaf_size) & opened.take(set_of)
    values = scan.values.take(order + scan.offsets)
    boundary = np.zeros((m, n), dtype=bool)
    np.logical_and(values[:, :-1] < values[:, 1:], fits[:-1], out=boundary[:, :-1])
    del values
    cells = boundary.ravel().nonzero()[0]
    if not len(cells):
        return cells, np.zeros(0)
    # the class counts of every prefix of the block, of each class but 0:
    # integers, so the differences the scan takes of them are exact. In
    # int32 they wrap past 2**31 on a block that large, but a difference,
    # the count of one row set, is below 2**31 and so still exact; int64
    # would double the largest arrays of a wide level.
    prefixes = []
    for rows in scan.of_class[1:]:
        prefixes.append(np.zeros(m * n + 1, np.int32))
        rows.take(order).cumsum(out=prefixes[-1][1:])
    entropies = _entropies(hists, sizes)
    # the admissible boundaries' cells, kept in place, and their ratios
    ratios, kept = np.empty(len(cells)), 0
    for i in range(0, len(cells), _SLICE):
        admissible, gain_ratios = _gain_ratios(
            scan, columns, prefixes, hists, entropies, cells[i:i + _SLICE]
        )
        cells[kept:kept + len(admissible)] = admissible
        ratios[kept:kept + len(admissible)] = gain_ratios
        kept += len(admissible)
    return cells[:kept], ratios[:kept]


def _first_maxima(ratios, bounds, weights, pair_sets):
    """Per row of ``weights``, the index of the first maximum of
    ratios * weights[row, attribute] over the candidates of the row's row
    set, and that maximum; -inf for a row whose row set has none.

    ``pair_sets`` holds each row's row set. The candidates come in
    (attribute, row set) blocks, attribute-major, row sets ascending within
    an attribute and positions within a row set, so ties go to the lowest
    attribute, then the lowest threshold. Block a * sets + s starts at
    candidate ``bounds[a * sets + s]``, and the last one ends at
    ``bounds[-1]``.

    A weight is positive, so it keeps the order of the ratios it
    multiplies: a row's maximum is the largest of its (attribute, row set)
    blocks' largest ratios times their weights. Rounding can make a
    smaller ratio's product equal that maximum, so the pick is the first
    candidate of the winning block whose product equals it.
    """
    num_sets = (len(bounds) - 1) // weights.shape[1]
    filled = bounds[:-1] < bounds[1:]
    maxima = np.full(len(filled), -np.inf)
    maxima[filled] = np.maximum.reduceat(ratios, bounds[:-1][filled])
    maxima = maxima.reshape(-1, num_sets).T[pair_sets]
    # a zero weight (from underflow) times the -inf of an empty block is nan
    scores = np.full(maxima.shape, -np.inf)
    np.multiply(maxima, weights, out=scores, where=maxima > -np.inf)
    wins, tops = scores.argmax(axis=1), scores.max(axis=1)
    # every row's winning block, laid end to end (none for a row without one)
    winners = wins * num_sets + pair_sets
    firsts = bounds.take(winners)
    sizes = bounds.take(winners + 1) - firsts
    offsets = sizes.cumsum() - sizes
    members = np.repeat(firsts - offsets, sizes) + np.arange(offsets[-1] + sizes[-1])
    products = ratios.take(members) * np.repeat(weights[np.arange(len(wins)), wins], sizes)
    hits = (products == np.repeat(tops, sizes)).nonzero()[0]
    return members.take(hits.take(np.minimum(hits.searchsorted(offsets), len(hits) - 1))), tops


class _Picks(NamedTuple):
    """Each pair's best split. ``split`` marks the pairs that have one; the
    other fields hold one entry per such pair, in pair order."""

    split: np.ndarray  # (pairs,) bool
    candidate: np.ndarray  # equal for equal splits of a level, distinct otherwise
    attribute: np.ndarray
    threshold: np.ndarray
    gain_ratio: np.ndarray
    heuristic_value: np.ndarray


def _scan_level(scan, level: _Level, weights, lams, tc, min_leaf_size) -> _Picks:
    """Every pair's best split of one level (see _candidates for the
    boundaries it admits).

    A pair scores its row set's boundaries as gain ratio times its weight
    (``weights`` holds a row per exponent), 1 for an attribute tested
    above. A test cost whose power overflows raises ValueError, but only
    where a boundary of that attribute is admissible; of several, the
    message names the first exponent, then the lowest attribute.
    """
    order, sizes, _, paths, pair_set, pair_exp = level
    cells, ratios = _candidates(scan, level, min_leaf_size)
    if not len(cells):
        empty = np.zeros(0)
        return _Picks(np.zeros(len(pair_set), dtype=bool), *[empty] * 5)
    (m, n), rows = order.shape, len(scan.labels)
    # the candidates of (attribute, row set) block i, attribute-major, are
    # bounds[i] up to bounds[i + 1]: a block ends at a * n plus the end of
    # its row set's columns, where the next one starts
    ends = np.arange(0, m * n, n)[:, None] + sizes.cumsum()
    bounds = cells.searchsorted(np.concatenate(([0], ends.ravel())))
    pair_weights = weights[pair_exp]
    pair_weights[paths[pair_set]] = 1.0
    if np.isinf(pair_weights).any():
        used = (bounds[:-1] < bounds[1:]).reshape(m, -1).T
        pairs, columns = (np.isinf(pair_weights) & used[pair_set]).nonzero()
        if len(pairs):
            first = (pair_exp[pairs] * m + columns).argmin()
            lam, a = lams[pair_exp[pairs[first]]], int(columns[first])
            raise ValueError(
                f"test cost {tc.cost(a)!r} of attribute {a} to the power {lam!r} overflows a float"
            )
    picks, tops = _first_maxima(ratios, bounds, pair_weights, pair_set)
    split = tops > -np.inf
    picks = picks[split]
    cells = cells.take(picks)
    a = cells // n
    order, offsets = order.ravel(), a * rows
    lower = scan.values.take(order.take(cells) + offsets)
    upper = scan.values.take(order.take(cells + 1) + offsets)
    thresholds = [_threshold(low, high) for low, high in zip(lower.tolist(), upper.tolist())]
    return _Picks(split, picks, a, np.array(thresholds), ratios.take(picks), tops[split])


def _children(scan: _ScanData, level: _Level, picks: _Picks, firsts, group_of) -> _Level:
    """The next level: the two children of every distinct split of
    ``level``, left children first, then right children, in the order of
    the splits' groups.

    ``firsts`` lists, per group of pairs that picked the same split, the
    index of its first split among ``picks``, and ``group_of`` the group of
    every split. The children's rows come from one gather of the split row
    sets' columns and one compress per side: every row of the gathered
    block keeps each child's rows in its own sorted order, and a stable
    partition of a stable sort is the stable sort of the part, ties in row
    order, so no row set is sorted again.
    """
    (m, rows), num_classes = scan.columns.shape, level.hists.shape[1]
    num_groups, firsts = len(firsts), np.array(firsts)
    sets = level.pair_set[picks.split][firsts]
    attributes = picks.attribute[firsts]
    paths = level.paths[sets]
    paths[np.arange(num_groups), attributes] = True
    # the columns of every split row set, end to end
    spans = level.sizes[sets]
    offsets = spans.cumsum() - spans
    starts = (level.sizes.cumsum() - level.sizes)[sets]
    columns = np.repeat(starts - offsets, spans) + np.arange(offsets[-1] + spans[-1])
    block = level.order.take(columns, axis=1)
    goes_left = (scan.values.take(block + np.repeat(attributes * rows, spans))
                 <= np.repeat(picks.threshold[firsts], spans))
    # each split's class counts left, from its rows in attribute 0's order
    went_left = goes_left[0]
    left = np.bincount(
        np.repeat(np.arange(0, num_groups * num_classes, num_classes), spans)[went_left]
        + scan.labels.take(block[0][went_left]),
        minlength=num_groups * num_classes,
    ).reshape(num_groups, num_classes)
    hists = np.concatenate([left, level.hists[sets] - left])
    order = np.concatenate(
        [block[goes_left].reshape(m, -1), block[~goes_left].reshape(m, -1)], axis=1
    )
    group_of = np.array(group_of)
    exponents = level.pair_exp[picks.split]
    return _Level(
        order, hists.sum(axis=1), hists, np.concatenate([paths, paths]),
        np.concatenate([group_of, group_of + num_groups]), np.concatenate([exponents, exponents]),
    )


def _checked_path(tested_on_path, num_attributes: int) -> frozenset[int]:
    """The attribute indices of ``tested_on_path``, each checked."""
    for a in tested_on_path:
        if (
            not isinstance(a, (int, np.integer))
            or isinstance(a, (bool, np.bool_))
            or not 0 <= a < num_attributes
        ):
            raise ValueError(
                f"tested_on_path must hold attribute indices in [0, {num_attributes - 1}], "
                f"got {a!r}"
            )
    return frozenset(int(a) for a in tested_on_path)


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
    attribute index, then the lowest threshold. The scan is growth's, run
    on a level of one row set. An attribute of ``tested_on_path`` is
    weighed 1; each must be an int index of an attribute.
    """
    lams = _checked_exponents([lam], data, tc, min_leaf_size)
    path = _checked_path(tested_on_path, data.num_attributes)
    scan = _scan_data(data)
    level = _root_level(scan, 1, path)
    picks = _scan_level(scan, level, _weights(tc, lams), lams, tc, min_leaf_size)
    if not picks.split[0]:
        return None
    return SplitCandidate(
        int(picks.attribute[0]), float(picks.threshold[0]), float(picks.gain_ratio[0]),
        float(picks.heuristic_value[0]),
    )


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
        return node_counts([self.root])[0]

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
    one pass over the training rows per depth.

    Growth stops at pure subsets, at subsets too small to split into two
    children of min_leaf_size, and where no candidate has positive gain.
    Attributes may be re-tested deeper down with new thresholds. Each row
    set is scanned once for all the exponents whose trees reach it, and
    each exponent picks from the same products as best_split, so every
    tree is the one that exponent grows alone.

    Growth is breadth first, as in SLIQ (Mehta, Agrawal & Rissanen, EDBT
    1996) and SPRINT (Shafer, Agrawal & Mehta, VLDB 1996): every row set of
    one depth, for every group of exponents that reaches it, is scanned in
    one pass over one block of presorted rows (_scan_level), and the rows
    of every split are partitioned at once (_children). The rows are sorted
    once per attribute, at the root. Every split is still the exact best
    one; no values are binned.

    An overflowing tc(a) ** lam raises ValueError where an exponent's tree
    needs it: at the shallowest such depth, naming the first such exponent
    of ``lams``, then its lowest such attribute.

    The trees share structure: wherever exponents grow equal subtrees from
    the same row set, they hold one subtree object, and exponents that are
    never told apart share one root. Treat the nodes as read-only.
    pruning.prune_trees decides each shared node once per path, and route
    cuts the rows of each shared chain of tests once.
    """
    lams = _checked_exponents(lams, train, tc, min_leaf_size)
    if not lams:
        return []
    weights = _weights(tc, lams)
    scan = _scan_data(train)
    level = _root_level(scan, len(lams), frozenset())
    grown = []  # per depth: each pair's row set, the row sets' class counts, the picks
    while True:
        picks = _scan_level(scan, level, weights, lams, tc, min_leaf_size)
        grown.append((level.pair_set, level.hists, picks))
        if not len(picks.candidate):
            break
        # the pairs that picked the same split form one group of exponents
        firsts: dict[int, int] = {}  # a split's candidate -> its first pair
        candidates = picks.candidate.tolist()
        for j, candidate in enumerate(candidates):
            firsts.setdefault(candidate, j)
        group = {candidate: g for g, candidate in enumerate(firsts)}
        level = _children(scan, level, picks, list(firsts.values()),
                          [group[candidate] for candidate in candidates])
    # The nodes, deepest first. A split node is interned by its test and
    # its (already interned) children, so equal subtrees grown from the
    # same row set are one object (hash-consing); a leaf is one object per
    # row set, and so per exponent group, already. The q-th split of a
    # depth has its children at pairs q and splits + q of the next.
    unique: dict[tuple, TreeNode] = {}
    below: list[TreeNode] = []
    for pair_set, hists, picks in reversed(grown):
        histograms, majority = list(hists), hists.argmax(axis=1).tolist()
        attributes, thresholds = picks.attribute.tolist(), picks.threshold.tolist()
        splits, j = len(attributes), 0
        leaves: dict[int, TreeNode] = {}
        nodes = []
        for s, split in zip(pair_set.tolist(), picks.split.tolist()):
            if split:
                key = (attributes[j], thresholds[j], below[j], below[splits + j])
                node = unique.get(key)
                if node is None:
                    node = unique[key] = TreeNode(histograms[s], *key)
                j += 1
            else:
                node = leaves.get(s)
                if node is None:
                    node = leaves[s] = TreeNode(histograms[s], predicted_class=majority[s])
            nodes.append(node)
        below = nodes
    return [DecisionTree(root, lam, tc) for root, lam in zip(below, lams)]


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


def _split_rows(rows: np.ndarray, values: np.ndarray, threshold: float) -> list[np.ndarray]:
    """The positions of ``rows`` whose value is <= threshold, and the rest."""
    goes_left = values[rows] <= threshold
    return [rows[goes_left], rows[~goes_left]]


def route(trees, data: Dataset):
    """For each of ``trees`` in turn, its leaves in walk order as (leaf,
    attributes on its path, positions in ``data`` of the rows that reach
    it).

    The chain of tests from the root alone decides which rows reach a
    node: (parent chain, attribute, threshold, side), interned to a small
    integer. A first walk over all the trees interns every chain. Then
    each chain's rows are cut once, as whole arrays, however many trees
    and nodes reach it. So the nodes of different trees above the point
    where they differ, and a pruned leaf and the node it replaced, share
    one array. The rows of a chain that no leaf ends at are dropped after
    its last cut, so one tree alone holds no more than about twice the
    rows of ``data`` at once, at any depth. classify is the same walk for
    one row."""
    paths = [frozenset()]  # per chain: the attributes tested on it
    uses = [0]  # per chain: the cuts from it, plus one for good if a leaf ends there
    chains: dict[tuple, int] = {}  # (chain, attribute, threshold) -> its left chain
    walked = []  # per tree: its leaves as (leaf, chain) and the cuts met so far
    for tree in trees:
        leaves = []
        stack = [(tree.root, 0)]
        pop, push = stack.pop, stack.append
        while stack:
            node, chain = pop()
            attribute = node.attribute
            if attribute is None:  # a leaf
                leaves.append((node, chain))
                uses[chain] += 1
                continue
            key = (chain, attribute, node.threshold)
            left = chains.get(key)
            if left is None:
                # the right chain is always the next id after the left one
                left = chains[key] = len(paths)
                uses[chain] += 1
                uses += (0, 0)
                paths += [paths[chain] | {attribute}] * 2
            push((node.left, left))
            push((node.right, left + 1))
        walked.append((leaves, len(chains)))
    columns = data.features.T
    rows = {0: np.arange(len(data))}
    cuts, made = iter(chains), 0  # the q-th cut met makes chains 2q + 1 and 2q + 2
    for leaves, met in walked:
        for chain, attribute, threshold in itertools.islice(cuts, met - made):
            uses[chain] -= 1
            cut = rows[chain] if uses[chain] else rows.pop(chain)
            made += 1
            rows[2 * made - 1], rows[2 * made] = _split_rows(cut, columns[attribute], threshold)
        yield [(leaf, paths[chain], rows[chain]) for leaf, chain in leaves]


def node_counts(roots) -> list[int]:
    """The number of nodes under each of ``roots``. A subtree that several
    roots or paths share is counted from its children once."""
    counts: dict[TreeNode, int] = {}
    for root in roots:
        stack = [root]
        while stack:
            node = stack.pop()
            if node in counts:
                continue
            if node.is_leaf:
                counts[node] = 1
                continue
            left, right = counts.get(node.left), counts.get(node.right)
            if left is None or right is None:
                stack += [node, node.left, node.right]  # count the children first
            else:
                counts[node] = 1 + left + right
    return [counts[root] for root in roots]


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
    back either.

    The node dicts are built children first, on an explicit stack, so
    that any depth works; json's C encoder then writes them in one call.
    """
    order, stack = [], [tree.root]  # parents first, right subtrees before left
    while stack:
        node = stack.pop()
        order.append(node)
        if node.attribute is not None:
            stack += (node.left, node.right)
    # children first, left before right: a node's children are the last two built
    built: list[dict] = []
    for node in reversed(order):
        if node.attribute is None:
            built.append(
                {"leaf": int(node.predicted_class), "histogram": node.histogram.tolist()}
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


def _leaf_block(leaves):
    """The histograms of parsed leaves, in the order read, as one int64
    block, and their total count; None if any leaf has a fault that
    _raise_first_leaf_fault raises."""
    hists = [obj["histogram"] for obj in leaves]
    predicted = [obj["leaf"] for obj in leaves]
    if set(map(type, hists)) != {list} or set(map(type, predicted)) != {int}:
        return None
    widths = set(map(len, hists))
    counts = list(itertools.chain.from_iterable(hists))
    if len(widths) != 1 or set(map(type, counts)) != {int} or min(counts) < 0:
        return None
    totals = list(map(sum, hists))
    if max(totals) >= 2**63 or not 0 <= min(predicted) <= max(predicted) < widths.pop():
        return None
    block = np.array(hists, dtype=np.int64)
    if not np.array_equal(block.argmax(axis=1), predicted):
        return None
    return block, sum(totals)


def _raise_first_leaf_fault(leaves) -> None:
    """Raise the first fault of the parsed ``leaves``, one leaf at a time in
    the order read."""
    width = None
    for obj in leaves:
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
        if predicted != int(np.argmax(np.array(hist, dtype=np.int64))):
            raise ValueError("leaf class must be the majority of its histogram")


def _tree_from_json(top, num_attributes: int) -> TreeNode:
    """The checked tree of a parsed JSON root node.

    Nodes are read parents first, right subtrees before left, and a fault
    raises the ValueError of the first faulty node in that order. A node's
    keys and a split's test are checked as it is read; the leaves are
    checked together, once all are read or at the first fault of any
    other kind, as the leaves read before it may hold an earlier fault.
    """
    root = TreeNode(histogram=None)
    stack = [(top, root)]
    leaves: list[TreeNode] = []
    leaf_objs: list[dict] = []
    splits: list[TreeNode] = []
    try:
        while stack:
            obj, node = stack.pop()
            if not isinstance(obj, dict):
                raise ValueError("tree nodes must be JSON objects")
            keys = obj.keys()
            if keys == {"leaf", "histogram"}:
                leaves.append(node)
                leaf_objs.append(obj)
            elif keys == {"attribute", "threshold", "left", "right"}:
                attribute = obj["attribute"]
                if not _is_int(attribute) or not 0 <= attribute < num_attributes:
                    raise ValueError(f"attribute index must lie in [0, {num_attributes - 1}]")
                threshold = obj["threshold"]
                if not _is_number(threshold) or not math.isfinite(threshold):
                    raise ValueError("threshold must be a finite number")
                node.attribute, node.threshold = attribute, float(threshold)
                node.left, node.right = TreeNode(histogram=None), TreeNode(histogram=None)
                stack += ((obj["left"], node.left), (obj["right"], node.right))
                splits.append(node)
            else:
                raise ValueError(
                    "node must have exactly the keys {leaf, histogram} or "
                    "{attribute, threshold, left, right}"
                )
    except ValueError:
        _raise_first_leaf_fault(leaf_objs)
        raise
    parsed = _leaf_block(leaf_objs)
    if parsed is None:
        _raise_first_leaf_fault(leaf_objs)
        raise AssertionError("the leaf block failed on leaves without a fault")
    block, total = parsed
    for node, obj, histogram in zip(leaves, leaf_objs, block):
        node.histogram, node.predicted_class = histogram, obj["leaf"]
    # every split's total is at most the root's
    if splits and total >= 2**63:
        raise ValueError("histogram counts must total less than 2**63")
    for node in reversed(splits):  # children first
        node.histogram = node.left.histogram + node.right.histogram
    return root


def deserialize(text: str) -> DecisionTree:
    """Parse a serialized tree; malformed input raises ValueError.

    The result is the same kind of tree that build_tree returns, ready to
    classify and to prune; each internal node's histogram is the sum of
    its children's. The leaves' histograms are rows of one int64 block.
    With several faults, the error names the first one met reading the
    nodes parents first, right subtrees before left (see _tree_from_json).
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


def check_training_rows(tree: DecisionTree, data: Dataset) -> list:
    """Raise ValueError unless ``data`` can be the tree's training rows,
    and return the tree's leaves as route gives them for ``data``.

    The rows are routed through the tree's tests and must reproduce every
    stored leaf histogram exactly.
    """
    if data.num_classes != len(tree.root.histogram):
        raise ValueError(
            f"tree counts {len(tree.root.histogram)} classes, data has {data.num_classes}"
        )
    if data.num_attributes != len(tree.tc_used):
        raise ValueError("data and tree disagree on the number of attributes")
    leaves = next(route([tree], data))
    nodes, _, reached = zip(*leaves)
    stored, k = [leaf.histogram for leaf in nodes], data.num_classes
    # one count of (leaf, class) cells over every routed row at once
    leaf_of = np.repeat(np.arange(len(nodes)), [len(rows) for rows in reached])
    cells = leaf_of * k + data.labels[np.concatenate(reached)]
    cells = np.bincount(cells, minlength=len(nodes) * k).reshape(len(nodes), k)
    if any(len(histogram) != k for histogram in stored) or not np.array_equal(
        cells, np.array(stored)
    ):
        raise ValueError("routed rows do not reproduce the stored leaf histograms")
    return leaves


def pruned_route(leaves, tree: DecisionTree, pruned: DecisionTree) -> list:
    """route's leaves of ``pruned``, a tree that post-pruning made of
    ``tree``, read off ``leaves``, route's leaves of ``tree`` on the same
    rows, without cutting any rows again. A pruned leaf holds the rows of
    every leaf of ``tree`` below the node it replaced."""
    grown = iter(leaves)  # in walk order, as the walks below meet them
    routed = []
    stack = [(tree.root, pruned.root, frozenset())]
    while stack:
        node, kept, path = stack.pop()
        if kept.attribute is not None:
            deeper = path | {kept.attribute}
            stack += ((node.left, kept.left, deeper), (node.right, kept.right, deeper))
            continue
        rows, below = [], [node]
        while below:
            node = below.pop()
            if node.attribute is None:
                rows.append(next(grown)[2])
            else:
                below += (node.left, node.right)
        routed.append((kept, path, rows[0] if len(rows) == 1 else np.concatenate(rows)))
    return routed
