"""Random generators shared by property-style tests."""

from __future__ import annotations

import numpy as np

from cstree.costs import MisclassificationMatrix, TestCostVector
from cstree.data import Dataset


def random_dataset(rng: np.random.Generator, max_rows=60, max_attrs=5, max_classes=3,
                   min_rows=6, grid=12) -> Dataset:
    """A small random table with at least two classes present.

    Feature values land on a coarse integer grid so duplicate values and
    tied splits show up often.
    """
    n = int(rng.integers(min_rows, max_rows + 1))
    m = int(rng.integers(2, max_attrs + 1))
    k = int(rng.integers(2, max_classes + 1))
    features = rng.integers(0, grid, size=(n, m)).astype(np.float64)
    labels = rng.integers(0, k, size=n)
    while np.unique(labels).size < 2:
        labels = rng.integers(0, k, size=n)
    names = tuple(str(c) for c in range(k))
    return Dataset.from_arrays(features, labels, class_names=names)


def partition(data: Dataset, attribute: int, threshold: float) -> tuple[Dataset, Dataset]:
    """The rows of ``data`` whose ``attribute`` is <= threshold, and the
    rest, each in row order."""
    goes_left = data.features[:, attribute] <= threshold
    return data.take(np.flatnonzero(goes_left)), data.take(np.flatnonzero(~goes_left))


def histogram(data: Dataset) -> np.ndarray:
    """Rows per class of ``data``."""
    return np.bincount(data.labels, minlength=data.num_classes)


def random_costs(rng: np.random.Generator, num_attributes: int) -> TestCostVector:
    return TestCostVector(tuple(float(v) for v in rng.integers(1, 11, size=num_attributes)))


def random_matrix(rng: np.random.Generator, k: int, high=500) -> MisclassificationMatrix:
    values = rng.integers(1, high + 1, size=(k, k)).astype(np.float64)
    np.fill_diagonal(values, 0.0)
    return MisclassificationMatrix(tuple(tuple(row) for row in values))
