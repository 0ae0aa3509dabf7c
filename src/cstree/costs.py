"""Attribute test costs, misclassification matrices, and random cost draws."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

__all__ = [
    "TestCostVector",
    "MisclassificationMatrix",
    "CostDistributionSpec",
    "generate_test_costs",
    "total_test_cost",
    "two_class_matrix",
    "load_cost_file",
]

DISTRIBUTION_KINDS = ("uniform", "normal", "pareto")


def _is_json_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int(value) -> bool:
    """A JSON integer that fits an int64 count or index."""
    return _is_json_int(value) and -(2**63) <= value < 2**63


def _is_number(value) -> bool:
    """A JSON number that fits a float; larger integers would overflow."""
    return isinstance(value, float) or (
        _is_json_int(value) and abs(value) <= sys.float_info.max
    )


def _sum_in_order(values) -> float:
    """Float sum added strictly left to right from 0.0.

    Report bytes depend on the order of float additions. The built-in
    sum() compensates float sums from Python 3.12 on, so it is not used
    where a sum reaches an output.
    """
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class TestCostVector:
    """One strictly positive acquisition cost per attribute."""

    __test__ = False  # name collides with pytest's collection prefix

    costs: tuple[float, ...]

    def __post_init__(self):
        costs = tuple(float(c) for c in self.costs)
        object.__setattr__(self, "costs", costs)
        if not costs:
            raise ValueError("need a cost for at least one attribute")
        for i, c in enumerate(costs):
            if not math.isfinite(c) or c <= 0.0:
                raise ValueError(f"test cost for attribute {i} must be finite and positive, got {c!r}")

    def __len__(self) -> int:
        return len(self.costs)

    def cost(self, attribute: int) -> float:
        if not 0 <= attribute < len(self.costs):
            raise ValueError(f"attribute index {attribute} out of range for {len(self.costs)} costs")
        return self.costs[attribute]

    def scaled(self, factor: float) -> "TestCostVector":
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return TestCostVector(tuple(c * factor for c in self.costs))


def total_test_cost(tc: TestCostVector, attributes: Iterable[int]) -> float:
    """Sum of costs over the distinct attributes; each is charged once."""
    return _sum_in_order(tc.cost(a) for a in sorted(set(attributes)))


@dataclass(frozen=True)
class MisclassificationMatrix:
    """Square penalty matrix indexed [true class][predicted class].

    The diagonal is zero: a correct prediction costs nothing.
    """

    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(float(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        k = len(rows)
        if k < 2:
            raise ValueError("matrix needs at least two classes")
        for i, row in enumerate(rows):
            if len(row) != k:
                raise ValueError(f"row {i} has {len(row)} entries, expected {k}")
            for j, v in enumerate(row):
                if not math.isfinite(v) or v < 0:
                    raise ValueError(f"entry [{i}][{j}] must be finite and nonnegative")
            if row[i] != 0.0:
                raise ValueError(f"diagonal entry [{i}][{i}] must be zero")

    @property
    def num_classes(self) -> int:
        return len(self.rows)

    def cost(self, true_class: int, predicted_class: int) -> float:
        k = len(self.rows)
        if not (0 <= true_class < k and 0 <= predicted_class < k):
            raise ValueError(f"class indices must lie in [0, {k - 1}]")
        return self.rows[true_class][predicted_class]


def two_class_matrix(cost_01: float, cost_10: float) -> MisclassificationMatrix:
    """Two-class matrix from the two off-diagonal penalties.

    ``cost_01`` is charged when a true class 0 is predicted as 1,
    ``cost_10`` the other way around.
    """
    return MisclassificationMatrix(((0.0, float(cost_01)), (float(cost_10), 0.0)))


@dataclass(frozen=True)
class CostDistributionSpec:
    """How to draw integer test costs for one trial.

    All three families produce integers clamped to [lower, upper]:
    uniform draws each value with equal probability, normal rounds a
    Gaussian draw, pareto rounds a heavy-tailed draw with scale ``lower``.
    """

    kind: str = "uniform"
    lower: int = 1
    upper: int = 10
    normal_mean: float = 5.5
    normal_sd: float = 2.0
    pareto_shape: float = 2.0

    def __post_init__(self):
        if self.kind not in DISTRIBUTION_KINDS:
            raise ValueError(f"kind must be one of {DISTRIBUTION_KINDS}, got {self.kind!r}")
        if not (isinstance(self.lower, int) and isinstance(self.upper, int)):
            raise ValueError("lower and upper must be integers")
        if not 1 <= self.lower < self.upper:
            raise ValueError("need 1 <= lower < upper so costs stay positive")
        if self.normal_sd <= 0:
            raise ValueError("normal_sd must be positive")
        if self.pareto_shape <= 0:
            raise ValueError("pareto_shape must be positive")


def generate_test_costs(
    spec: CostDistributionSpec, num_attributes: int, rng: np.random.Generator
) -> TestCostVector:
    """Draw one integer cost per attribute from the given distribution."""
    if num_attributes < 1:
        raise ValueError("num_attributes must be at least 1")
    if spec.kind == "uniform":
        draws = rng.integers(spec.lower, spec.upper + 1, size=num_attributes)
    elif spec.kind == "normal":
        raw = rng.normal(spec.normal_mean, spec.normal_sd, size=num_attributes)
        draws = np.clip(np.rint(raw), spec.lower, spec.upper)
    else:
        raw = spec.lower * (1.0 + rng.pareto(spec.pareto_shape, size=num_attributes))
        draws = np.clip(np.rint(raw), spec.lower, spec.upper)
    return TestCostVector(tuple(float(v) for v in draws))


def load_cost_file(path):
    """Read a JSON object holding ``test_costs`` and/or ``mc_matrix``.

    Returns ``(TestCostVector | None, MisclassificationMatrix | None)``
    depending on which keys are present.
    """
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
        except RecursionError:
            raise ValueError(f"{path}: JSON is nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    unknown = set(doc) - {"test_costs", "mc_matrix"}
    if unknown:
        raise ValueError(f"{path}: unknown keys {sorted(unknown)}")
    tc = None
    if "test_costs" in doc:
        costs = doc["test_costs"]
        if not isinstance(costs, list) or not all(_is_number(c) for c in costs):
            raise ValueError(f"{path}: test_costs must be a list of numbers")
        tc = TestCostVector(tuple(costs))
    mc = None
    if "mc_matrix" in doc:
        rows = doc["mc_matrix"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError(f"{path}: mc_matrix must be a list of rows")
        if not all(_is_number(v) for row in rows for v in row):
            raise ValueError(f"{path}: mc_matrix entries must be numbers")
        mc = MisclassificationMatrix(tuple(tuple(row) for row in rows))
    return tc, mc
