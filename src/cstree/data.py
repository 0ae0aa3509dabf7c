"""Numeric classification datasets: CSV loading, row subsets, seeded splits."""

from __future__ import annotations

import csv
import io
import itertools
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


def _reader_rows(path: Path, lines) -> list[list[str]]:
    """The records csv.reader reads from ``lines``."""
    rows: list[list[str]] = []
    try:
        rows.extend(csv.reader(lines))
    except csv.Error as exc:
        # rows holds the records read before the bad one; the header is row 0
        raise ValueError(f"{path}: row {len(rows)}: {exc}") from None
    return rows


def _read_text(path: Path) -> str:
    """The file's text. A file that does not decode is read again as a
    stream through csv.reader, so that the error raised is the first one
    csv.reader meets, a decoding error worded as the stream decoder words
    it."""
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        with path.open(newline="", encoding="utf-8") as fh:
            _reader_rows(path, fh)
        raise


def _records(path: Path, text: str):
    """The header cells of ``text`` (None if it holds no record), its
    number of data records, and per column the cells of every data record
    in row order, or None when the records are not all as wide as the
    header.

    A text with no quote, CR or NUL, no blank line before its final
    newline and no line longer than the csv module's field limit is split
    on newlines and then, all at once, on commas: csv.reader would read
    the same records from it. Any other text goes through csv.reader.
    """
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the final newline, or an empty text
    if not (
        '"' in text or "\r" in text or "\x00" in text or "" in lines
        or max(map(len, lines), default=0) > csv.field_size_limit()
    ):
        if not lines:
            return None, 0, None
        header = lines[0].split(",")
        width = len(header)
        if set(map(str.count, lines, itertools.repeat(","))) != {width - 1}:
            return header, len(lines) - 1, None
        cells = ",".join(lines[1:]).split(",")
        return header, len(lines) - 1, [cells[j::width] for j in range(width)]
    rows = _reader_rows(path, io.StringIO(text, newline=""))
    if not rows:
        return None, 0, None
    header, body = rows[0], rows[1:]
    if set(map(len, body)) != {len(header)}:
        return header, len(body), None
    return header, len(body), [list(column) for column in zip(*body)]


def _parse_columns(columns, label_idx: int):
    """The feature array, label indices and class names of the data cells
    ``columns``, or None if any cell is bad."""
    columns = list(columns)
    names = list(map(str.strip, columns.pop(label_idx)))
    try:
        features = np.array([list(map(float, map(str.strip, col))) for col in columns]).T
    except ValueError:
        return None
    class_index: dict[str, int] = {}
    labels = [class_index.setdefault(name, len(class_index)) for name in names]
    if "" in class_index or not np.isfinite(features).all():
        return None
    return np.ascontiguousarray(features), np.array(labels), tuple(class_index)


def _raise_first_fault(path, header, label_idx: int, body) -> None:
    """Raise the ValueError of the first bad row of ``body``, in row order
    and, within a row, cell by cell with the label last."""
    for row_num, row in enumerate(body, start=1):
        if len(row) != len(header):
            raise ValueError(
                f"{path}: row {row_num} has {len(row)} cells, expected {len(header)}"
            )
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
        if not row[label_idx].strip():
            raise ValueError(f"{path}: row {row_num}: blank label cell")
    raise AssertionError("the column parse failed on rows without a fault")


def load_csv(path, label_column: str | None = None) -> Dataset:
    """Read a comma-separated file with one header row into a Dataset.

    The dialect is the csv module's default: cells may be quoted, and
    lines may end in LF, CRLF or a lone CR. The file is UTF-8; a byte
    order mark stays part of the first header name. Every line of the
    file is a record, so a blank line, a trailing one included, is a row
    with too few cells.

    The label column is chosen by name, or defaults to the last column.
    Header names and cells are stripped of surrounding whitespace. Class
    names map to label indices 0..k-1 in order of first appearance; the
    mapping is retained on the dataset for reporting. Feature cells must
    parse as finite numbers by Python's float. The cells are converted a
    column at a time; a file with a bad row is read again row by row, so
    that the error names the first bad row, counted from 1, and in it
    the first bad cell.
    """
    path = Path(path)
    text = _read_text(path)
    header, count, columns = _records(path, text)
    if header is None:
        raise ValueError(f"{path}: file is empty")
    header = [name.strip() for name in header]
    if not count:
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
    parsed = None if columns is None else _parse_columns(columns, label_idx)
    if parsed is None:
        body = _reader_rows(path, io.StringIO(text, newline=""))[1:]
        _raise_first_fault(path, header, label_idx, body)
    features, labels, class_names = parsed
    if len(class_names) < 2:
        raise ValueError(
            f"{path}: found a single class {class_names[0]!r}; need at least two"
        )
    return Dataset(features, labels, attribute_names, class_names)


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
