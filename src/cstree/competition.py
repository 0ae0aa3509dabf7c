"""Competition over a grid of cost exponents.

One tree is grown per exponent, optionally post-pruned, and the tree
with the lowest average cost on its own training rows wins. Ties go to
the largest exponent, the mildest cost weighting that achieves the
minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .costs import MisclassificationMatrix, TestCostVector
from .data import Dataset
from .evaluation import CostBreakdown, average_costs
from .pruning import prune_trees
from .tree import DEFAULT_MIN_LEAF, DecisionTree, build_trees

__all__ = [
    "LambdaGrid",
    "LambdaRecord",
    "SweepResult",
    "run_competition",
    "run_competitions",
]

_GRID_TOLERANCE = 1e-9
# Each exponent grows a tree, so a grid much longer than this could only
# run out of memory or time; a step far below the span is a typo.
MAX_GRID_EXPONENTS = 10_000


@dataclass(frozen=True)
class LambdaGrid:
    """Evenly spaced exponents from start up to end, both included."""

    start: float = -4.0
    end: float = 0.0
    step: float = 0.25

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.start, self.end, self.step)):
            raise ValueError("the exponent grid's start, end and step must be finite")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.start > self.end:
            raise ValueError("start must not exceed end")
        if self.end > 0:
            raise ValueError("exponents must be zero or negative")
        span = self.end - self.start
        if span / self.step + 1 > MAX_GRID_EXPONENTS:
            raise ValueError(
                f"the exponent grid may hold at most {MAX_GRID_EXPONENTS} exponents"
            )
        count = round(span / self.step)
        if abs(count * self.step - span) > _GRID_TOLERANCE:
            raise ValueError("end - start must be a whole number of steps")

    def values(self) -> tuple[float, ...]:
        count = round((self.end - self.start) / self.step)
        points = [self.start + i * self.step for i in range(count)]
        points.append(self.end)
        return tuple(points)


@dataclass(frozen=True)
class LambdaRecord:
    """One competitor: its exponent, tree, and cost on its training rows."""

    lam: float
    tree: DecisionTree
    train_cost: CostBreakdown


@dataclass(frozen=True)
class SweepResult:
    records: tuple[LambdaRecord, ...]
    winner_lambda: float
    winner_tree: DecisionTree

    def record_for(self, lam: float) -> LambdaRecord:
        for record in self.records:
            if record.lam == lam:
                return record
        raise ValueError(f"no record for exponent {lam}")


def run_competitions(
    train: Dataset,
    tc: TestCostVector,
    mc: MisclassificationMatrix,
    grid: LambdaGrid | None = None,
    prune_flags: tuple[bool, ...] = (True,),
    min_leaf_size: int = DEFAULT_MIN_LEAF,
    prune_on_tie: bool = False,
) -> dict[bool, SweepResult]:
    """One competition per prune flag, keyed by the flag.

    The whole grid grows in one build_trees pass. The distinct grown trees
    are pruned in one prune_trees pass, and every distinct tree either
    competition holds is costed on the training rows in one average_costs
    call. Every record still holds its own DecisionTree with its own
    exponent."""
    grid = grid or LambdaGrid()
    lams = grid.values()
    grown = build_trees(train, tc, lams, min_leaf_size)
    firsts = {}  # root node, which hashes by identity -> its first tree
    for tree in grown:
        firsts.setdefault(tree.root, tree)
    finals = {False: list(firsts.values())}
    if True in prune_flags:
        finals[True] = prune_trees(firsts.values(), tc, mc, prune_on_tie)
    # per flag: grown root -> the root that competes
    roots = {flag: dict(zip(firsts, (t.root for t in finals[flag]))) for flag in prune_flags}
    costed = {t.root: t for flag in prune_flags for t in finals[flag]}
    costs = dict(zip(costed, average_costs(costed.values(), train, tc, mc)))
    records = {flag: [] for flag in prune_flags}
    for lam, tree in zip(lams, grown):
        for flag in prune_flags:
            root = roots[flag][tree.root]
            competing = DecisionTree(root, tree.lambda_used, tree.tc_used)
            records[flag].append(LambdaRecord(lam=lam, tree=competing, train_cost=costs[root]))
    results = {}
    for flag, flag_records in records.items():
        winner = flag_records[0]
        for record in flag_records:
            # <= so an exact tie moves the win to the larger exponent
            if record.train_cost.average <= winner.train_cost.average:
                winner = record
        results[flag] = SweepResult(
            records=tuple(flag_records), winner_lambda=winner.lam, winner_tree=winner.tree
        )
    return results


def run_competition(
    train: Dataset,
    tc: TestCostVector,
    mc: MisclassificationMatrix,
    grid: LambdaGrid | None = None,
    prune: bool = True,
    min_leaf_size: int = DEFAULT_MIN_LEAF,
    prune_on_tie: bool = False,
) -> SweepResult:
    """Grow (and optionally prune) one tree per grid exponent and pick the
    winner by training average cost. Deterministic given its inputs."""
    return run_competitions(
        train, tc, mc, grid, (prune,), min_leaf_size, prune_on_tie
    )[prune]
