"""Naive reference implementations used as independent oracles.

Everything here is written the slow, obvious way: plain Python loops,
the math module, and the serialized tree JSON rather than the package's
node objects. Tests compare the fast implementations against these.
"""

from __future__ import annotations

import json
import math

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
    """Walk the serialized tree per instance; returns (tests, penalties, mean)."""
    root = json.loads(tree_text)["root"]
    test_total = 0.0
    penalty_total = 0.0
    for row, true_class in zip(rows, labels):
        predicted, attrs = classify_json(root, row)
        for a in sorted(attrs):
            test_total += costs[a]
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
            score = split_gain_ratio(rows, labels, k, attribute, threshold, min_leaf)
            if score is not None and (best is None or score > best[0]):
                best = (score, attribute, threshold)
    return best
