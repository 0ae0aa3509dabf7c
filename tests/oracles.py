"""Naive reference implementations used as independent oracles.

Everything here is written the slow, obvious way: plain Python loops,
the math module, and the serialized tree JSON rather than the package's
node objects. Tests compare the fast implementations against these.

The one exception is ``best_split_per_attribute``: the library's former
split scan, one numpy pass per attribute. It is kept as written so that
the one-pass scan over all attributes can be held to the same floats,
bit for bit.

``dataclass_repr`` reads objects too: it is the text a generated
dataclass ``__repr__`` writes, recursing as that one does, which the
package's trees build on an explicit stack.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

ADMISSION_FLOOR = 1e-12


def entropy_bits(counts) -> float:
    total = sum(counts)
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h + 0.0


def classify_json(node: dict, row) -> tuple[int, set]:
    attrs: set[int] = set()
    while "leaf" not in node:
        a = node["attribute"]
        attrs.add(a)
        node = node["left"] if row[a] <= node["threshold"] else node["right"]
    return node["leaf"], attrs


def average_cost_json(tree_text: str, rows, labels, costs, penalties):
    """Walk the serialized tree per instance; returns (tests, penalties, mean).

    A row's tests are summed in attribute order, and the rows' figures are
    added to the totals one row at a time in the given order, so the totals
    are the library's to the last bit.
    """
    root = json.loads(tree_text)["root"]
    test_total = 0.0
    penalty_total = 0.0
    for row, true_class in zip(rows, labels):
        predicted, attrs = classify_json(root, row)
        path_cost = 0.0
        for a in sorted(attrs):
            path_cost += costs[a]
        test_total += path_cost
        penalty_total += penalties[true_class][predicted]
    n = len(labels)
    return test_total, penalty_total, (test_total + penalty_total) / n


def prune_trace_json(tree_text: str, rows, labels, costs, penalties):
    """Every internal node's keep-or-prune totals, children first.

    Each row routed to a node is costed on its own. Kept, it pays the
    distinct tests on its full root-to-leaf path plus its leaf's penalty.
    Pruned at the node, it pays the distinct tests above the node plus the
    penalty of the node's majority class (the lowest index on ties).
    Returns (node_id, attribute, keep_tests, keep_penalties, prune_tests,
    prune_penalties, count) tuples in visit order.
    """
    root = json.loads(tree_text)["root"]
    entries = []

    def visit(node, node_id, above, members):
        if "leaf" in node:
            return
        a, t = node["attribute"], node["threshold"]
        deeper = above | {a}
        visit(node["left"], node_id + ".left", deeper, [i for i in members if rows[i][a] <= t])
        visit(node["right"], node_id + ".right", deeper, [i for i in members if rows[i][a] > t])
        hist = _histogram([labels[i] for i in members], len(penalties))
        majority = hist.index(max(hist))
        keep_tests = keep_penalties = prune_tests = prune_penalties = 0.0
        for i in members:
            predicted, attrs = classify_json(root, rows[i])
            for b in sorted(attrs):
                keep_tests += costs[b]
            keep_penalties += penalties[labels[i]][predicted]
            for b in sorted(above):
                prune_tests += costs[b]
            prune_penalties += penalties[labels[i]][majority]
        entries.append(
            (node_id, a, keep_tests, keep_penalties, prune_tests, prune_penalties, len(members))
        )

    visit(root, "root", set(), list(range(len(labels))))
    return entries


def dataclass_repr(value) -> str:
    """``repr`` as a generated dataclass ``__repr__`` writes it, recursing
    into every dataclass in the fields; any other value is its own repr."""
    if not dataclasses.is_dataclass(value) or isinstance(value, type):
        return repr(value)
    fields = ", ".join(
        f"{field.name}={dataclass_repr(getattr(value, field.name))}"
        for field in dataclasses.fields(value)
        if field.repr
    )
    return f"{type(value).__qualname__}({fields})"


def _histogram(labels, k):
    h = [0] * k
    for label in labels:
        h[label] += 1
    return h


def split_gain_ratio(rows, labels, k, attribute, threshold, min_leaf=2):
    """Gain ratio of the test row[attribute] <= threshold, or None when
    the library would not admit it."""
    left = [l for row, l in zip(rows, labels) if row[attribute] <= threshold]
    right = [l for row, l in zip(rows, labels) if row[attribute] > threshold]
    if len(left) < min_leaf or len(right) < min_leaf:
        return None
    total = len(labels)
    gain = (
        entropy_bits(_histogram(labels, k))
        - len(left) / total * entropy_bits(_histogram(left, k))
        - len(right) / total * entropy_bits(_histogram(right, k))
    )
    split_info = entropy_bits([len(left), len(right)])
    if gain <= 0.0 or split_info < ADMISSION_FLOOR:
        return None
    return gain / split_info


def best_gain_ratio_split(rows, labels, k, min_leaf=2):
    """Exhaustive scan returning (score, attribute, threshold) or None.

    Same admission and tie rules as the library: positive gain, split
    information above the floor, both sides at least min_leaf, ties to
    the lowest attribute index and then the lowest threshold.
    """
    best = None
    for attribute in range(len(rows[0])):
        values = sorted({row[attribute] for row in rows})
        for low, high in zip(values, values[1:]):
            threshold = (low + high) / 2.0
            if not low <= threshold < high:  # rounded onto high, or overflowed
                threshold = low
            score = split_gain_ratio(rows, labels, k, attribute, threshold, min_leaf)
            if score is not None and (best is None or score > best[0]):
                best = (score, attribute, threshold)
    return best


def _xlog2x(values):
    out = np.zeros_like(values, dtype=np.float64)
    np.log2(values, out=out, where=values > 0)
    out *= values
    return out


def _entropy_rows(count_rows):
    totals = count_rows.sum(axis=1)
    return np.log2(totals) - _xlog2x(count_rows).sum(axis=1) / totals


def scan_attribute(values, label_matrix, h_parent, min_leaf_size):
    """Threshold scan of one column: (thresholds, gains, split_infos) over
    the boundaries between distinct sorted values whose children both hold
    at least min_leaf_size rows, or None when there is no such boundary."""
    order = np.argsort(values, kind="stable")
    sv = values[order]
    n = sv.shape[0]
    boundary = np.nonzero(sv[:-1] < sv[1:])[0]
    if boundary.size == 0:
        return None
    n_left = (boundary + 1).astype(np.float64)
    n_right = n - n_left
    keep = (n_left >= min_leaf_size) & (n_right >= min_leaf_size)
    if not keep.any():
        return None
    boundary = boundary[keep]
    n_left = n_left[keep]
    n_right = n_right[keep]
    cum = label_matrix[order].cumsum(axis=0)
    left_counts = cum[boundary]
    right_counts = cum[-1] - left_counts
    h_left = _entropy_rows(left_counts)
    h_right = _entropy_rows(right_counts)
    gains = np.maximum(h_parent - (n_left * h_left + n_right * h_right) / n, 0.0)
    split_infos = math.log2(n) - (_xlog2x(n_left) + _xlog2x(n_right)) / n
    low, high = sv[boundary], sv[boundary + 1]
    with np.errstate(over="ignore"):
        thresholds = (low + high) / 2.0
    # a midpoint rounded onto high, or overflowed, does not split there
    thresholds = np.where((low <= thresholds) & (thresholds < high), thresholds, low)
    return thresholds, gains, split_infos


def best_split_per_attribute(features, labels, k, costs, lam, tested=(), min_leaf=2):
    """best_split computed one attribute at a time with scan_attribute.

    ``features`` is the (n, m) block of the subset's rows and ``labels``
    their classes, in the subset's order. Returns (attribute, threshold,
    gain_ratio, heuristic_value) or None.
    """
    n = len(labels)
    hist = np.bincount(labels, minlength=k)
    if n < 2 * min_leaf or int((hist > 0).sum()) <= 1:
        return None
    label_matrix = np.zeros((n, k), dtype=np.float64)
    label_matrix[np.arange(n), labels] = 1.0
    counts = hist.astype(np.float64)
    probs = counts[counts > 0] / counts.sum()
    h_parent = float(-(probs * np.log2(probs)).sum()) + 0.0
    best = None
    for a in range(features.shape[1]):
        scan = scan_attribute(features[:, a], label_matrix, h_parent, min_leaf)
        if scan is None:
            continue
        thresholds, gains, split_infos = scan
        admissible = (gains > 0.0) & (split_infos >= ADMISSION_FLOOR)
        if not admissible.any():
            continue
        ratios = np.divide(gains, split_infos, out=np.zeros_like(gains), where=admissible)
        weight = 1.0 if a in tested else costs[a] ** lam
        scores = np.where(admissible, ratios * weight, -np.inf)
        i = int(np.argmax(scores))
        if best is None or scores[i] > best[0]:
            best = (float(scores[i]), a, float(thresholds[i]), float(ratios[i]))
    if best is None:
        return None
    score, attribute, threshold, ratio = best
    return attribute, threshold, ratio, score
