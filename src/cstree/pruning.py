"""Cost-based post-pruning.

Internal nodes are visited children-first. Each is scored twice on the
training rows that reached it: once as kept (the cost of its subtree as
originally grown, charging every distinct attribute on each row's full
root-to-leaf path) and once as pruned (the rows collapsed into one
majority leaf, charging only the attributes above the node). The node is
replaced by that leaf when pruning is strictly cheaper.

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

from .costs import MisclassificationMatrix, TestCostVector, total_test_cost
from .data import InstanceSubset
from .evaluation import CostBreakdown
from .tree import DecisionTree, TreeNode

__all__ = [
    "PruneTraceEntry",
    "subtree_cost",
    "leaf_replacement_cost",
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


def _require_bound(node: TreeNode):
    if node.subset is None:
        raise ValueError(
            "this tree carries no training rows; attach_instances must run first"
        )


def _leaf_mc_total(histogram, predicted: int, mc: MisclassificationMatrix) -> float:
    return float(
        sum(int(count) * mc.cost(true, predicted) for true, count in enumerate(histogram))
    )


def _majority(histogram) -> int:
    return int(np.argmax(np.asarray(histogram)))


def _subtree_totals(node: TreeNode, path_attrs: frozenset[int], tc, mc):
    """(test total, penalty total) over the node's rows, full-path charging."""
    _require_bound(node)
    if node.is_leaf:
        per_row = total_test_cost(tc, path_attrs)
        return per_row * len(node.subset), _leaf_mc_total(
            node.histogram, node.predicted_class, mc
        )
    deeper = path_attrs | {node.attribute}
    left_tc, left_mc = _subtree_totals(node.left, deeper, tc, mc)
    right_tc, right_mc = _subtree_totals(node.right, deeper, tc, mc)
    return left_tc + right_tc, left_mc + right_mc


def _replacement_totals(node: TreeNode, path_attrs: frozenset[int], tc, mc):
    """Totals when the node's rows collapse into one majority leaf."""
    _require_bound(node)
    test_total = total_test_cost(tc, path_attrs) * len(node.subset)
    mc_total = _leaf_mc_total(node.histogram, _majority(node.histogram), mc)
    return test_total, mc_total


def _path_above(tree: DecisionTree, node: TreeNode) -> frozenset[int]:
    """Attributes tested strictly above the node; errors if it is foreign."""

    def search(current: TreeNode, attrs: frozenset[int]):
        if current is node:
            return attrs
        if current.is_leaf:
            return None
        deeper = attrs | {current.attribute}
        return search(current.left, deeper) or search(current.right, deeper)

    found = search(tree.root, frozenset())
    if found is None:
        raise ValueError("node does not belong to this tree")
    return found


def subtree_cost(
    tree: DecisionTree,
    node: TreeNode,
    tc: TestCostVector,
    mc: MisclassificationMatrix,
) -> CostBreakdown:
    """Cost of keeping the node's subtree, averaged over its training rows.

    Each row is charged the distinct attributes on its full path from the
    tree root to its leaf, so tests above the node are included and a
    re-tested attribute is charged once.
    """
    attrs_above = _path_above(tree, node)
    _require_bound(node)
    test_total, mc_total = _subtree_totals(node, attrs_above, tc, mc)
    return CostBreakdown.from_totals(test_total, mc_total, len(node.subset))


def leaf_replacement_cost(
    tree: DecisionTree,
    node: TreeNode,
    tc: TestCostVector,
    mc: MisclassificationMatrix,
) -> CostBreakdown:
    """Cost if the node became a majority leaf: only the attributes above
    it are charged, plus the penalties of the overruled rows."""
    attrs_above = _path_above(tree, node)
    _require_bound(node)
    test_total, mc_total = _replacement_totals(node, attrs_above, tc, mc)
    return CostBreakdown.from_totals(test_total, mc_total, len(node.subset))


def post_prune(
    tree: DecisionTree,
    tc: TestCostVector,
    mc: MisclassificationMatrix,
    prune_on_tie: bool = False,
) -> tuple[DecisionTree, list[PruneTraceEntry]]:
    """Replace subtrees by majority leaves wherever that is cheaper.

    Returns a new tree and the decision trace in visit order. The input
    tree must carry training rows. With ``prune_on_tie`` an exact cost tie
    also prunes; by default ties keep the subtree.
    """
    _require_bound(tree.root)
    if mc.num_classes != tree.root.subset.dataset.num_classes:
        raise ValueError("matrix classes and dataset classes differ")
    if len(tc) != len(tree.tc_used):
        raise ValueError("one test cost per attribute is required")
    entries: list[PruneTraceEntry] = []
    marked: set[int] = set()

    def visit(node: TreeNode, path_attrs: frozenset[int], node_id: str):
        """The node's keep totals, summed as _subtree_totals sums them."""
        if node.is_leaf:
            return _subtree_totals(node, path_attrs, tc, mc)
        deeper = path_attrs | {node.attribute}
        left_tc, left_mc = visit(node.left, deeper, node_id + ".left")
        right_tc, right_mc = visit(node.right, deeper, node_id + ".right")
        totals = (left_tc + right_tc, left_mc + right_mc)
        keep = CostBreakdown.from_totals(*totals, len(node.subset))
        prune = CostBreakdown.from_totals(
            *_replacement_totals(node, path_attrs, tc, mc), len(node.subset)
        )
        decision = prune.average < keep.average or (
            prune_on_tie and prune.average == keep.average
        )
        entries.append(
            PruneTraceEntry(
                node_id=node_id,
                attribute=node.attribute,
                cost_keep=keep,
                cost_prune=prune,
                instance_count=len(node.subset),
                pruned=decision,
            )
        )
        if decision:
            marked.add(id(node))
        return totals

    visit(tree.root, frozenset(), "root")

    def rebuild(node: TreeNode) -> TreeNode:
        if node.is_leaf:
            return TreeNode(
                histogram=node.histogram,
                subset=node.subset,
                predicted_class=node.predicted_class,
            )
        if id(node) in marked:
            return TreeNode(
                histogram=node.histogram,
                subset=node.subset,
                predicted_class=_majority(node.histogram),
            )
        return TreeNode(
            histogram=node.histogram,
            subset=node.subset,
            attribute=node.attribute,
            threshold=node.threshold,
            left=rebuild(node.left),
            right=rebuild(node.right),
        )

    pruned_tree = DecisionTree(
        root=rebuild(tree.root), lambda_used=tree.lambda_used, tc_used=tree.tc_used
    )
    return pruned_tree, entries
