"""Numeric classification datasets: CSV loading, row subsets, seeded splits."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["Dataset", "load_csv", "split_train_test"]


def _readonly(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Dataset:
    """An immutable table of real-valued features with integer class labels.

    Labels are indices into ``class_names``. Features are one float64
    array of shape (instances, attributes); the split scan takes a row
    set's whole block of it at once.
    """

    features: np.ndarray
    labels: np.ndarray
    attribute_names: tuple[str, ...]
    class_names: tuple[str, ...]

    def __post_init__(self):
        features = _readonly(self.features, np.float64)
        labels = _readonly(self.labels, np.int64)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "attribute_names", tuple(self.attribute_names))
        object.__setattr__(self, "class_names", tuple(str(c) for c in self.class_names))
        if features.ndim != 2 or features.shape[1] < 1:
            raise ValueError("features must be a 2-D array with at least one attribute")
        if labels.ndim != 1 or labels.shape[0] != features.shape[0] or labels.shape[0] < 1:
            raise ValueError("need one label per instance and at least one instance")
        if not np.isfinite(features).all():
            raise ValueError("feature values must all be finite")
        if len(self.attribute_names) != features.shape[1]:
            raise ValueError("attribute_names must match the number of feature columns")
        k = len(self.class_names)
        if k < 2:
            raise ValueError("at least two classes are required")
        if int(labels.min()) < 0 or int(labels.max()) >= k:
            raise ValueError(f"labels must be integers in [0, {k - 1}]")

    @classmethod
    def from_arrays(cls, features, labels, attribute_names=None, class_names=None) -> "Dataset":
        """Build a dataset from plain arrays, inventing names where missing."""
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if attribute_names is None:
            attribute_names = tuple(f"a{j + 1}" for j in range(features.shape[1]))
        if class_names is None:
            k = int(labels.max()) + 1 if labels.size else 0
            class_names = tuple(str(c) for c in range(max(k, 2)))
        return cls(features, labels, tuple(attribute_names), tuple(class_names))

    @property
    def num_instances(self) -> int:
        return int(self.features.shape[0])

    @property
    def num_attributes(self) -> int:
        return int(self.features.shape[1])

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def __len__(self) -> int:
        return self.num_instances

    def take(self, rows) -> "Dataset":
        """The rows at positions ``rows``, in that order, as a dataset that
        keeps every class name, even of a class none of the rows has.

        Positions may repeat. A position out of range, a negative one or
        an empty selection raises ValueError.
        """
        rows = np.asarray(rows)
        if not rows.size:
            raise ValueError("a subset needs at least one instance")
        if (
            rows.ndim != 1 or rows.dtype.kind not in "iu"
            or int(rows.min()) < 0 or int(rows.max()) >= len(self)
        ):
            raise ValueError(f"row positions must be integers in [0, {len(self) - 1}]")
        return Dataset(
            self.features[rows], self.labels[rows], self.attribute_names, self.class_names
        )


def load_csv(path, label_column: str | None = None) -> Dataset:
    """Read a comma-separated file with one header row into a Dataset.

    The label column is chosen by name, or defaults to the last column.
    Class names map to label indices 0..k-1 in order of first appearance;
    the mapping is retained on the dataset for reporting. Feature cells
    must parse as finite numbers. Data rows are numbered from 1 in error
    messages.
    """
    path = Path(path)
    rows: list[list[str]] = []
    with path.open(newline="", encoding="utf-8") as fh:
        try:
            rows.extend(csv.reader(fh))
        except csv.Error as exc:
            # rows holds the records read before the bad one; the header is row 0
            raise ValueError(f"{path}: row {len(rows)}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: file is empty")
    header = [name.strip() for name in rows[0]]
    body = rows[1:]
    if not body:
        raise ValueError(f"{path}: no data rows after the header")
    if len(header) < 2:
        raise ValueError(f"{path}: need at least one feature column and a label column")
    if label_column is None:
        label_idx = len(header) - 1
    elif label_column in header:
        label_idx = header.index(label_column)
    else:
        raise ValueError(f"{path}: no column named {label_column!r}")

    attribute_names = tuple(name for i, name in enumerate(header) if i != label_idx)
    features: list[list[float]] = []
    labels: list[int] = []
    class_names: list[str] = []
    class_index: dict[str, int] = {}
    for row_num, row in enumerate(body, start=1):
        if len(row) != len(header):
            raise ValueError(
                f"{path}: row {row_num} has {len(row)} cells, expected {len(header)}"
            )
        vector = []
        for col, cell in enumerate(row):
            if col == label_idx:
                continue
            try:
                value = float(cell.strip())
            except ValueError:
                raise ValueError(
                    f"{path}: row {row_num}, column {header[col]!r}: "
                    f"{cell!r} is not a number"
                ) from None
            if not math.isfinite(value):
                raise ValueError(
                    f"{path}: row {row_num}, column {header[col]!r}: "
                    f"{cell!r} is not finite"
                )
            vector.append(value)
        label = row[label_idx].strip()
        if not label:
            raise ValueError(f"{path}: row {row_num}: blank label cell")
        if label not in class_index:
            class_index[label] = len(class_names)
            class_names.append(label)
        labels.append(class_index[label])
        features.append(vector)
    if len(class_names) < 2:
        raise ValueError(
            f"{path}: found a single class {class_names[0]!r}; need at least two"
        )
    return Dataset(np.array(features), np.array(labels), attribute_names, tuple(class_names))


def split_train_test(dataset: Dataset, train_fraction: float, rng: np.random.Generator):
    """Partition all rows into disjoint train and test datasets, each in
    the rows' original order.

    The train size is ``train_fraction * n`` rounded half up. The draw is a
    uniform permutation without class stratification; pass a seeded
    generator to make it reproducible.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    n = len(dataset)
    train_size = int(math.floor(train_fraction * n + 0.5))
    if train_size < 1 or n - train_size < 1:
        raise ValueError(f"a {train_fraction} split of {n} rows leaves one side empty")
    perm = rng.permutation(n)
    return dataset.take(np.sort(perm[:train_size])), dataset.take(np.sort(perm[train_size:]))
