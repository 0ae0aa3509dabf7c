"""Workload definitions: inputs, one round of operations, and their checks.

A plan is plain JSON so the worker process can read it without importing
anything from the benchmark but the tracer. Each operation is a list of
``cstree`` command lines in which ``{op}`` stands for the operation's own
output directory.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

import gen

HERE = Path(__file__).resolve().parent
SAMPLE_CSV = HERE / "assets" / "diabetes_sample.csv"

WORKLOADS = ("sample-experiment", "pima-sweep", "large-train-replay")

GRID_SIZE = 17  # exponents -4, -3.75, ..., 0 (the CLI default grid)
SAMPLE_TRIALS = 25  # per operation; a round of four is the paper's 100 trials
SAMPLE_OPS = 4
PIMA_OPS = 2
LARGE_LAMBDA = -1.0


def _derived_seeds(seed: int, purpose: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, purpose])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def build_plan(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs into ``work`` and return its plan."""
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "sample-experiment":
        data = inputs / "sample.csv"
        shutil.copyfile(SAMPLE_CSV, data)
        ops = [
            {
                "argv": [
                    [
                        "experiment", "--data", str(data), "--prune", "both",
                        "--cost-dist", "uniform", "--trials", str(SAMPLE_TRIALS),
                        "--seed", str(s), "--out-csv", "{op}/rows.csv",
                        "--out-json", "{op}/summary.json",
                    ]
                ],
                "trees": SAMPLE_TRIALS * GRID_SIZE * 2,
                "params": {"trials": SAMPLE_TRIALS, "seed": s},
            }
            for s in _derived_seeds(seed, 10, SAMPLE_OPS)
        ]
        return {"workload": workload, "data": str(data), "costs": None, "ops": ops}
    if workload == "pima-sweep":
        data, costs = inputs / "pima.csv", inputs / "pima_costs.json"
        gen.pima_table(seed, data, costs)
        ops = [
            {
                "argv": [
                    [
                        "sweep", "--data", str(data), "--cost-file", str(costs),
                        "--prune", "both", "--seed", str(s),
                        "--out-csv", "{op}/rows.csv", "--out-json", "{op}/summary.json",
                        "--tree-out", "{op}/tree.json",
                    ]
                ],
                "trees": GRID_SIZE * 2,
                "params": {"seed": s},
            }
            for s in _derived_seeds(seed, 11, PIMA_OPS)
        ]
        return {"workload": workload, "data": str(data), "costs": str(costs), "ops": ops}
    if workload == "large-train-replay":
        data, costs = inputs / "large.csv", inputs / "large_costs.json"
        gen.large_table(seed, data, costs)
        common = ["--data", str(data), "--cost-file", str(costs)]
        ops = [
            {
                "argv": [
                    ["train", *common, "--lambda", str(LARGE_LAMBDA), "--prune", "none",
                     "--tree-out", "{op}/tree.json", "--out-json", "{op}/train.json"],
                    ["prune", "--fixture", "{op}/tree.json", *common,
                     "--tree-out", "{op}/pruned_tree.json", "--out-json", "{op}/prune.json"],
                ],
                # run once per distinct operation, outside the timed section
                "untimed_argv": [
                    ["prune", "--fixture", "{op}/pruned_tree.json", *common,
                     "--tree-out", "{op}/replay_tree.json", "--out-json", "{op}/replay.json"],
                ],
                "trees": 2,
                "params": {},
            }
        ]
        return {"workload": workload, "data": str(data), "costs": str(costs), "ops": ops}
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
