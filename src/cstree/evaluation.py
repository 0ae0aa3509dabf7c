"""Average classification cost and cost-reduction ratios."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import MisclassificationMatrix, TestCostVector, _sum_in_order, total_test_cost
from .data import Dataset
from .tree import DecisionTree, route

__all__ = [
    "CostBreakdown",
    "average_cost",
    "average_costs",
    "routed_costs",
    "reduction_ratio",
    "average_reduction_ratio",
]


@dataclass(frozen=True)
class CostBreakdown:
    """Total test cost, total misclassification cost, and their mean."""

    test_cost_total: float
    misclassification_total: float
    average: float
    count: int

    @classmethod
    def from_totals(cls, test_cost_total: float, misclassification_total: float, count: int):
        if count < 1:
            raise ValueError("a cost breakdown needs at least one instance")
        return cls(
            test_cost_total=float(test_cost_total),
            misclassification_total=float(misclassification_total),
            average=(test_cost_total + misclassification_total) / count,
            count=int(count),
        )


def _total_in_order(per_row: np.ndarray) -> float:
    # cumsum adds left to right like a loop from 0.0; np.sum would pair
    # terms up. The final + 0.0 turns a -0.0 sum into the loop's 0.0.
    return float(np.cumsum(per_row)[-1]) + 0.0


def _check_matrix(data: Dataset, mc: MisclassificationMatrix) -> None:
    if mc.num_classes != data.num_classes:
        raise ValueError("matrix classes and dataset classes differ")


def average_costs(
    trees,
    data: Dataset,
    tc: TestCostVector,
    mc: MisclassificationMatrix,
) -> list[CostBreakdown]:
    """The mean cost of classifying each row, per tree of ``trees``: the
    distinct tests on its path plus the penalty of its predicted against
    its true class.

    The rows are routed down all the trees at once by tree.route, which
    cuts the rows of each chain of tests once however many trees share
    it; routed_costs then costs each tree."""
    _check_matrix(data, mc)
    trees = list(trees)
    for tree in trees:
        if data.num_attributes != len(tree.tc_used):
            raise ValueError(
                f"expected a vector of {len(tree.tc_used)} features, "
                f"got shape {(data.num_attributes,)}"
            )
    return routed_costs(route(trees, data), data, tc, mc)


def routed_costs(
    routes,
    data: Dataset,
    tc: TestCostVector,
    mc: MisclassificationMatrix,
) -> list[CostBreakdown]:
    """average_costs of trees whose rows are routed already: per tree, its
    leaves as tree.route gives them for ``data``. Each tree fills its own
    per-row arrays, and their costs are added in row order."""
    _check_matrix(data, mc)
    penalty_table = np.array(mc.rows)
    path_costs: dict[frozenset, float] = {}
    breakdowns = []
    for leaves in routes:
        nodes, paths, reached = zip(*leaves)
        sizes = np.array([len(rows) for rows in reached])
        predicted = np.array([leaf.predicted_class for leaf in nodes])
        used = predicted[sizes > 0]
        if ((used < 0) | (used >= mc.num_classes)).any():
            raise ValueError(f"class indices must lie in [0, {mc.num_classes - 1}]")
        for path in paths:
            if path not in path_costs:
                path_costs[path] = total_test_cost(tc, path)
        tests = np.array([path_costs[path] for path in paths])
        # each row's leaf, in row order
        leaf_of = np.empty(len(data), dtype=np.intp)
        leaf_of[np.concatenate(reached)] = np.repeat(np.arange(len(leaves)), sizes)
        penalties = penalty_table[data.labels, predicted[leaf_of]]
        breakdowns.append(
            CostBreakdown.from_totals(
                _total_in_order(tests[leaf_of]), _total_in_order(penalties), len(data)
            )
        )
    return breakdowns


def average_cost(
    tree: DecisionTree,
    data: Dataset,
    tc: TestCostVector,
    mc: MisclassificationMatrix,
) -> CostBreakdown:
    """Mean cost of classifying each row of ``data`` with one tree; see
    average_costs."""
    return average_costs([tree], data, tc, mc)[0]


def reduction_ratio(average_before: float, average_after: float) -> float:
    """Relative saving (before - after) / before."""
    if average_before <= 0:
        raise ValueError("the baseline average cost must be positive")
    if average_after < 0:
        raise ValueError("the reduced average cost cannot be negative")
    return (average_before - average_after) / average_before


def average_reduction_ratio(ratios) -> float:
    """Plain mean of per-exponent reduction ratios."""
    ratios = list(ratios)
    if not ratios:
        raise ValueError("need at least one ratio to average")
    return _sum_in_order(ratios) / len(ratios)
