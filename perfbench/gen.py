"""Seeded synthetic inputs for the benchmark workloads.

Every table and cost file is a pure function of the workload seed, so the
same seed always writes the same bytes. Features are Gaussian and rounded
to two decimals; labels are noisy linear functions of the standardised
features.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

ATTRIBUTES = tuple(f"a{j}" for j in range(1, 9))

# Column means and spreads shaped like the Pima Indians diabetes table.
PIMA_MEANS = (3.8, 120.9, 69.1, 20.5, 79.8, 32.0, 0.47, 33.2)
PIMA_SDS = (3.4, 32.0, 19.4, 16.0, 115.2, 7.9, 0.33, 11.8)
PIMA_WEIGHTS = (0.4, 1.2, -0.1, 0.1, 0.2, 0.7, 0.3, 0.4)
# Test costs are fixed per workload, not drawn: drawn costs change which
# attributes growth peels rows off with, and so the depth and the work of
# a tree, far more from seed to seed than the table itself does.
PIMA_COSTS = [4, 1, 4, 1, 7, 7, 8, 9]
PIMA_MC = [[0, 200], [600, 0]]

# Large three-class table: one linear score per class plus Gumbel noise,
# scaled so that full growth gives about 4k internal nodes. A row of the
# class whose name sorts last is moved to the front, so that first
# appearance differs from sorted order.
LARGE_ROWS = 20_000
LARGE_CLASSES = ("gamma", "alpha", "beta")
LARGE_WEIGHTS = (
    (1.0, -0.5, 0.0, 0.6, 0.0, -0.3, 0.2, 0.0),
    (-0.4, 0.9, 0.5, 0.0, -0.2, 0.0, 0.0, 0.3),
    (0.0, 0.0, -0.7, -0.5, 0.8, 0.4, -0.2, -0.3),
)
LARGE_SIGNAL = 3.0
LARGE_COSTS = [3, 4, 2, 5, 4, 6, 3, 5]
LARGE_MC = [[0, 60, 120], [90, 0, 60], [150, 80, 0]]


def _rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, purpose])


def _write_table(path: Path, features: np.ndarray, labels) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ATTRIBUTES + ("class",))
        for row, label in zip(features.tolist(), labels):
            writer.writerow([f"{v:.2f}" for v in row] + [label])


def _write_costs(path: Path, costs, mc) -> None:
    path.write_text(
        json.dumps({"test_costs": costs, "mc_matrix": mc}) + "\n", encoding="utf-8"
    )


def pima_table(seed: int, csv_path: Path, cost_path: Path) -> None:
    """768x8 two-class table; about 40% of the rows are class 1."""
    rng = _rng(seed, 1)
    z = rng.standard_normal((768, len(ATTRIBUTES)))
    features = np.round(z * PIMA_SDS + PIMA_MEANS, 2)
    score = z @ np.array(PIMA_WEIGHTS) + rng.normal(0.0, 1.0, size=768)
    labels = ["1" if s > 0.6 else "0" for s in score]
    _write_table(csv_path, features, labels)
    _write_costs(cost_path, PIMA_COSTS, PIMA_MC)


def large_table(seed: int, csv_path: Path, cost_path: Path, rows: int = LARGE_ROWS) -> None:
    """Three-class table (20,000x8 by default) whose first label sorts last."""
    rng = _rng(seed, 3)
    z = rng.standard_normal((rows, len(ATTRIBUTES)))
    features = np.round(z * 10.0 + 50.0, 2)
    scores = LARGE_SIGNAL * (z @ np.array(LARGE_WEIGHTS).T) + rng.gumbel(size=(rows, 3))
    labels = [LARGE_CLASSES[int(i)] for i in np.argmax(scores, axis=1)]
    first = labels.index(max(LARGE_CLASSES))
    order = [first] + [i for i in range(rows) if i != first]
    _write_table(csv_path, features[order], [labels[i] for i in order])
    _write_costs(cost_path, LARGE_COSTS, LARGE_MC)
