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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import MisclassificationMatrix, TestCostVector, _sum_in_order, total_test_cost
from .evaluation import CostBreakdown
from .tree import DecisionTree, TreeNode, walk

__all__ = [
    "PruneTraceEntry",
    "post_prune",
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


def _leaf_mc_total(histogram, predicted: int, mc: MisclassificationMatrix) -> float:
    return _sum_in_order(
        int(count) * mc.cost(true, predicted) for true, count in enumerate(histogram)
    )


def _majority(histogram) -> int:
    return int(np.argmax(np.asarray(histogram)))


def post_prune(
    tree: DecisionTree,
    tc: TestCostVector,
    mc: MisclassificationMatrix,
    prune_on_tie: bool = False,
) -> tuple[DecisionTree, list[PruneTraceEntry]]:
    """Replace subtrees by majority leaves wherever that is cheaper.

    Returns a new tree and the decision trace in visit order. Every figure
    is read from the node histograms, so a tree grown here and one read
    back from JSON prune alike. With ``prune_on_tie`` an exact cost tie
    also prunes; by default ties keep the subtree.
    """
    if mc.num_classes != len(tree.root.histogram):
        raise ValueError("matrix classes and dataset classes differ")
    if len(tc) != len(tree.tc_used):
        raise ValueError("one test cost per attribute is required")
    walked = list(walk(tree.root))
    # each internal node's id such as "root.left.right", in walk order, built
    # on a list kept in step with the walk's own stack
    node_ids, pending = [], ["root"]
    for node, _ in walked:
        node_id = pending.pop()
        if not node.is_leaf:
            node_ids.append(node_id)
            pending += [node_id + ".left", node_id + ".right"]
    entries: list[PruneTraceEntry] = []
    # (test cost total, penalty total, node of the new tree) per finished
    # subtree. Each leaf charges its rows the distinct tests on their path
    # and a parent sums left then right. Children come first, left before
    # right, so a node's children are the last two finished.
    done: list[tuple[float, float, TreeNode]] = []
    for node, path_attrs in reversed(walked):
        count = int(node.histogram.sum())
        per_row = total_test_cost(tc, path_attrs)
        if node.is_leaf:
            mc_total = _leaf_mc_total(node.histogram, node.predicted_class, mc)
            leaf = TreeNode(histogram=node.histogram, predicted_class=node.predicted_class)
            done.append((per_row * count, mc_total, leaf))
            continue
        right_tc, right_mc, right = done.pop()
        left_tc, left_mc, left = done.pop()
        totals = (left_tc + right_tc, left_mc + right_mc)
        keep = CostBreakdown.from_totals(*totals, count)
        majority = _majority(node.histogram)
        prune = CostBreakdown.from_totals(
            per_row * count, _leaf_mc_total(node.histogram, majority, mc), count
        )
        decision = prune.average < keep.average or (
            prune_on_tie and prune.average == keep.average
        )
        entries.append(
            PruneTraceEntry(
                node_id=node_ids.pop(),
                attribute=node.attribute,
                cost_keep=keep,
                cost_prune=prune,
                instance_count=count,
                pruned=decision,
            )
        )
        if decision:
            new_node = TreeNode(histogram=node.histogram, predicted_class=majority)
        else:
            new_node = TreeNode(node.histogram, node.attribute, node.threshold, left, right)
        done.append((*totals, new_node))
    pruned_tree = DecisionTree(
        root=done.pop()[2], lambda_used=tree.lambda_used, tc_used=tree.tc_used
    )
    return pruned_tree, entries
