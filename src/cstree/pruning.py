"""Cost-based post-pruning.

Internal nodes are visited children-first. Each is scored twice on the
training rows that reached it, as its class histogram counts them: once
as kept (the cost of its subtree as originally grown, charging every
distinct attribute on each row's full root-to-leaf path) and once as
pruned (the rows collapsed into one majority leaf, charging only the
attributes above the node). The node is replaced by that leaf when
pruning is strictly cheaper.

Keep costs are measured on the tree as grown, not re-derived from
children already pruned during the same pass; a pruned ancestor simply
subsumes its descendants. Measured this way the pass still never raises
the tree's average cost on its training rows and a second pass never
finds anything to cut, because replacements only get cheaper relative to
a keep cost that was already not worth keeping.

A node's figures, its decision and its pruned node depend only on its
subtree and on the attributes tested above it. So the pass runs over
shared nodes as well as over one tree, and it decides each distinct
(node, attributes above it) pair once: a subtree that several trees of a
competition hold on the same path is decided once, and their pruned
trees share its result. prune_trees runs the pass over many trees and
builds no trace; post_prune runs it over one tree and then builds the
trace, one entry per split node of that tree as laid out.
"""

from __future__ import annotations

from dataclasses import dataclass

from .costs import MisclassificationMatrix, TestCostVector, total_test_cost
from .evaluation import CostBreakdown
from .tree import DecisionTree, TreeNode, walk

__all__ = [
    "PruneTraceEntry",
    "post_prune",
    "prune_trees",
]


@dataclass(frozen=True)
class PruneTraceEntry:
    """One keep-or-prune decision, in the order decisions were taken."""

    node_id: str
    attribute: int
    cost_keep: CostBreakdown
    cost_prune: CostBreakdown
    instance_count: int
    pruned: bool


def _leaf_mc_total(counts: list, predicted: int, mc: MisclassificationMatrix) -> float:
    """The penalties of ``counts`` rows per true class all predicted as one class."""
    k = mc.num_classes
    if not 0 <= predicted < k or len(counts) > k:
        raise ValueError(f"class indices must lie in [0, {k - 1}]")
    rows = mc.rows
    total = 0.0  # added left to right, as costs._sum_in_order does
    for true, count in enumerate(counts):
        total += count * rows[true][predicted]
    return total


def _decide(node: TreeNode, path: frozenset, below: dict, per_row: float, mc, prune_on_tie):
    """One (node, attributes tested above it): the test and penalty totals
    of its subtree as grown, its node in the pruned tree, and for a split
    node the totals of the pruned alternative, its rows and the decision.
    ``below`` holds the decisions of its children and ``per_row`` the tests
    on ``path``."""
    counts = node.histogram.tolist()
    count = sum(counts)
    if node.is_leaf:
        return per_row * count, _leaf_mc_total(counts, node.predicted_class, mc), node, None
    if count < 1:
        raise ValueError("a cost breakdown needs at least one instance")
    deeper = path | {node.attribute}
    left_tc, left_mc, left, _ = below[node.left, deeper]
    right_tc, right_mc, right, _ = below[node.right, deeper]
    keep_tc, keep_mc = left_tc + right_tc, left_mc + right_mc
    majority = counts.index(max(counts))
    prune_tc, prune_mc = per_row * count, _leaf_mc_total(counts, majority, mc)
    # the averages as CostBreakdown.from_totals forms them
    keep, prune = (keep_tc + keep_mc) / count, (prune_tc + prune_mc) / count
    pruned = prune < keep or (prune_on_tie and prune == keep)
    if pruned:
        new_node = TreeNode(histogram=node.histogram, predicted_class=majority)
    elif left is node.left and right is node.right:
        new_node = node  # nothing below was cut
    else:
        new_node = TreeNode(node.histogram, node.attribute, node.threshold, left, right)
    return keep_tc, keep_mc, new_node, (prune_tc, prune_mc, count, pruned)


def _decide_all(roots, tc: TestCostVector, mc: MisclassificationMatrix, prune_on_tie: bool):
    """The decision of every (node, attributes tested above it) under
    ``roots``, each taken once, children first and left before right."""
    decided: dict[tuple, tuple] = {}
    per_row: dict[frozenset, float] = {}  # path -> the tests each row on it pays
    for root in roots:
        stack = [(root, frozenset(), False)]
        while stack:
            node, path, ready = stack.pop()
            if (node, path) in decided:
                continue
            if ready or node.is_leaf:
                if path not in per_row:
                    per_row[path] = total_test_cost(tc, path)
                decided[node, path] = _decide(
                    node, path, decided, per_row[path], mc, prune_on_tie
                )
            else:
                deeper = path | {node.attribute}
                # popped left subtree first, then the right, then the node
                stack += [
                    (node, path, True), (node.right, deeper, False), (node.left, deeper, False)
                ]
    return decided


def _check(tree: DecisionTree, tc: TestCostVector, mc: MisclassificationMatrix) -> None:
    if mc.num_classes != len(tree.root.histogram):
        raise ValueError("matrix classes and dataset classes differ")
    if len(tc) != len(tree.tc_used):
        raise ValueError("one test cost per attribute is required")


def prune_trees(
    trees,
    tc: TestCostVector,
    mc: MisclassificationMatrix,
    prune_on_tie: bool = False,
) -> list[DecisionTree]:
    """post_prune for each of ``trees`` in one pass over their nodes,
    without the trace. A subtree that several trees share on the same
    path is decided once, and their pruned trees share its result."""
    trees = list(trees)
    for tree in trees:
        _check(tree, tc, mc)
    decided = _decide_all([tree.root for tree in trees], tc, mc, prune_on_tie)
    return [
        DecisionTree(decided[tree.root, frozenset()][2], tree.lambda_used, tree.tc_used)
        for tree in trees
    ]


def post_prune(
    tree: DecisionTree,
    tc: TestCostVector,
    mc: MisclassificationMatrix,
    prune_on_tie: bool = False,
) -> tuple[DecisionTree, list[PruneTraceEntry]]:
    """Replace subtrees by majority leaves wherever that is cheaper.

    Returns a new tree and the decision trace in visit order: children
    first, left before right, one entry per split node of the tree as
    given. Every figure is read from the node histograms, so a tree grown
    here and one read back from JSON prune alike. With ``prune_on_tie`` an
    exact cost tie also prunes; by default ties keep the subtree. Nodes
    that nothing below was cut from are shared with the given tree.
    """
    _check(tree, tc, mc)
    decided = _decide_all([tree.root], tc, mc, prune_on_tie)
    # each split node's id such as "root.left.right", on a list kept in
    # step with the walk's own stack; the walk is parents first and right
    # before left, so its reverse is the visit order
    entries: list[PruneTraceEntry] = []
    pending = ["root"]
    for node, path in walk(tree.root):
        node_id = pending.pop()
        if not node.is_leaf:
            keep_tc, keep_mc, _, (prune_tc, prune_mc, count, pruned) = decided[node, path]
            keep = CostBreakdown.from_totals(keep_tc, keep_mc, count)
            prune = CostBreakdown.from_totals(prune_tc, prune_mc, count)
            entries.append(PruneTraceEntry(node_id, node.attribute, keep, prune, count, pruned))
            pending += [node_id + ".left", node_id + ".right"]
    entries.reverse()
    root = decided[tree.root, frozenset()][2]
    return DecisionTree(root, tree.lambda_used, tree.tc_used), entries
