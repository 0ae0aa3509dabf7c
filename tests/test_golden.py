"""CLI outputs and grown trees reproduced byte for byte from recorded
golden files.

Each CLI case runs ``cstree.cli.main`` with every report flag it accepts and
compares stdout, ``--out-csv``, ``--out-json`` and ``--tree-out`` against
``tests/assets/golden/<case>/``. The trees under
``tests/assets/golden/build_tree/`` come straight from the library at
several exponents: each is checked as ``build_tree`` grows it alone and
as ``build_trees`` grows it together with the others in one pass.

The inputs are the bundled 24-row sample and ``synthetic_300x6.csv``, a
seeded 300x6 three-class table that ``_write_synthetic_table`` writes.
Deeper trees, grown from seeded tables that ``_deep_case`` draws in
memory, are pinned by the sha256 of their serialized text and their node
count (``DEEP_DIGESTS``).
The ``fractional_*`` cases run both inputs with fractional test costs and
a non-integer matrix, where the totals depend on the order in which rows
and tests are added.
Record again only when an output is meant to change:

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

from cstree.cli import main
from cstree.competition import LambdaGrid
from cstree.costs import TestCostVector, load_cost_file
from cstree.data import Dataset
from cstree.data import load_csv
from cstree.tree import build_tree, build_trees, serialize

ASSETS = Path(__file__).parent / "assets"
GOLDEN = ASSETS / "golden"
SAMPLE = ASSETS / "diabetes_sample.csv"
SAMPLE_COSTS = ASSETS / "example_costs.json"
TABLE = GOLDEN / "synthetic_300x6.csv"
TABLE_COSTS = GOLDEN / "synthetic_costs.json"
FRACTIONAL_COSTS = {
    "sample": GOLDEN / "fractional_sample_costs.json",
    "table": GOLDEN / "fractional_table_costs.json",
}

# name -> (argv without output flags, output flags the subcommand writes)
REPORTS = ("--out-csv", "--out-json")
WITH_TREE = REPORTS + ("--tree-out",)
CASES = {
    **{
        f"sample_sweep_{mode}": (
            ["sweep", "--data", SAMPLE, "--prune", mode, "--seed", "3"],
            WITH_TREE,
        )
        for mode in ("none", "post", "both")
    },
    "sample_experiment_both": (
        ["experiment", "--data", SAMPLE, "--trials", "10", "--prune", "both", "--seed", "2"],
        REPORTS,
    ),
    "sample_train": (
        ["train", "--data", SAMPLE, "--cost-file", SAMPLE_COSTS, "--lambda", "-2",
         "--train-fraction", "0.6", "--seed", "1"],
        WITH_TREE,
    ),
    "sample_prune": (
        ["prune", "--fixture", ASSETS / "prune_example_tree.json", "--data", SAMPLE,
         "--cost-file", SAMPLE_COSTS],
        WITH_TREE,
    ),
    "table_sweep_none": (
        ["sweep", "--data", TABLE, "--cost-file", TABLE_COSTS, "--prune", "none",
         "--seed", "5", "--min-leaf", "4"],
        WITH_TREE,
    ),
    "table_sweep_post": (
        ["sweep", "--data", TABLE, "--cost-file", TABLE_COSTS, "--prune", "post",
         "--seed", "5", "--min-leaf", "4", "--prune-on-tie"],
        WITH_TREE,
    ),
    "table_sweep_both": (
        ["sweep", "--data", TABLE, "--cost-file", TABLE_COSTS, "--prune", "both",
         "--seed", "5", "--min-leaf", "4"],
        WITH_TREE,
    ),
    "table_experiment_both": (
        ["experiment", "--data", TABLE, "--mc-file", TABLE_COSTS, "--cost-dist", "pareto",
         "--trials", "10", "--prune", "both", "--seed", "2", "--min-leaf", "4",
         "--lambda-step", "0.5"],
        REPORTS,
    ),
    **{
        f"fractional_{name}_{command}": (
            [command, *argv, "--cost-file", FRACTIONAL_COSTS[name]],
            flags,
        )
        for name, data, extra, fixture in (
            ("sample", SAMPLE, [], ASSETS / "prune_example_tree.json"),
            ("table", TABLE, ["--min-leaf", "4"], GOLDEN / "build_tree" / "table_lam-1.json"),
        )
        for command, argv, flags in (
            ("sweep", ["--data", data, "--prune", "both", "--seed", "5", *extra], WITH_TREE),
            ("experiment", ["--data", data, "--trials", "10", "--prune", "both",
                            "--seed", "2", "--lambda-step", "0.5", *extra], REPORTS),
            ("train", ["--data", data, "--lambda", "-1.5", "--train-fraction", "0.6",
                       "--seed", "1", *extra], WITH_TREE),
            ("prune", ["--fixture", fixture, "--data", data], WITH_TREE),
        )
    },
}
FILES = {"--out-csv": "out.csv", "--out-json": "out.json", "--tree-out": "tree.json"}

# build_tree goldens: input name -> (data CSV, cost file whose test costs are used)
TREES = GOLDEN / "build_tree"
TREE_INPUTS = {"sample": (SAMPLE, SAMPLE_COSTS), "table": (TABLE, TABLE_COSTS)}
TREE_LAMBDAS = (-4.0, -2.0, -1.0, 0.0)


def _run_case(name: str, out_dir: Path) -> dict[str, bytes]:
    """Run one case writing into out_dir; returns file name -> bytes."""
    argv, flags = CASES[name]
    argv = [str(a) for a in argv]
    for flag in flags:
        argv += [flag, str(out_dir / FILES[flag])]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    assert code == 0, f"{name} exited {code}"
    outputs = {"stdout.txt": stdout.getvalue().encode("utf-8")}
    for flag in flags:
        outputs[FILES[flag]] = (out_dir / FILES[flag]).read_bytes()
    return outputs


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden(name, tmp_path):
    produced = _run_case(name, tmp_path)
    for file_name, data in produced.items():
        expected = (GOLDEN / name / file_name).read_bytes()
        assert data == expected, f"{name}/{file_name} differs from the golden file"


def _grown_trees(name: str, together: bool) -> dict[str, bytes]:
    """Serialized trees of one input at every TREE_LAMBDAS exponent, grown
    one build_tree call each or all in one build_trees call; file name ->
    bytes."""
    data_path, costs_path = TREE_INPUTS[name]
    rows = load_csv(data_path)
    tc, _ = load_cost_file(costs_path)
    if together:
        trees = build_trees(rows, tc, TREE_LAMBDAS)
    else:
        trees = [build_tree(rows, tc, lam) for lam in TREE_LAMBDAS]
    return {
        f"{name}_lam{lam:g}.json": serialize(tree).encode()
        for lam, tree in zip(TREE_LAMBDAS, trees)
    }


@pytest.mark.parametrize("together", [False, True])
@pytest.mark.parametrize("name", sorted(TREE_INPUTS))
def test_build_tree_matches_golden(name, together):
    for file_name, data in _grown_trees(name, together).items():
        assert data == (TREES / file_name).read_bytes(), f"{file_name} differs"


# case -> (sha256 of the serialized trees, one per line, total node count)
DEEP_DIGESTS = {
    "rows5000_k3_lam-1": (
        "185a779828be35f2cc4a03fccb21cd42f60738da766960622be7ffc64ac337bb", 3017,
    ),
    "rows460_k2_grid": (
        "6add06854a4408ee3f55f37801dd1cb6ee56785f9c6e095bc107c6570bc023b6", 4569,
    ),
    "rows400_k11_grid": (
        "5878e3514db37f29658c2ba0e7c3a8ddf50409aecb68b0f063efe1057d45d2df", 5815,
    ),
}


def _deep_case(name: str):
    """The table, test costs and exponents of one DEEP_DIGESTS case.

    * ``rows5000_k3_lam-1``: 5,000 rows of eight Gaussian columns at two
      decimals, three classes from noisy linear scores, grown at -1.
    * ``rows460_k2_grid``: 460 rows shaped like the Pima training split,
      two classes, grown over the 17-exponent grid.
    * ``rows400_k11_grid``: 400 rows, five columns on a quarter grid and
      11 classes drawn at random, over the grid. Summing its class terms
      left to right instead of as numpy's pairwise sum does changes 12 of
      its 17 trees.
    """
    grid = LambdaGrid().values()
    if name == "rows5000_k3_lam-1":
        rng = np.random.default_rng(51)
        x = np.round(rng.normal(0.0, 1.0, size=(5000, 8)), 2)
        scores = x @ rng.normal(0.0, 1.0, size=(8, 3)) + rng.gumbel(0.0, 1.0, size=(5000, 3))
        y, k, lams = scores.argmax(axis=1), 3, [-1.0]
    elif name == "rows460_k2_grid":
        rng = np.random.default_rng(52)
        x = np.round(rng.normal(50.0, 15.0, size=(460, 8)), 1)
        score = (x - 50.0) @ rng.normal(0.0, 0.05, size=8) + rng.logistic(0.0, 1.0, size=460)
        y, k, lams = (score > 0.5).astype(int), 2, grid
    else:
        rng = np.random.default_rng(5)
        k = int(rng.integers(8, 13))
        x = rng.integers(0, 40, size=(400, 5)) / 4.0
        y, lams = rng.integers(0, k, size=400), grid
    tc = TestCostVector(tuple(float(c) for c in rng.integers(1, 11, x.shape[1])))
    rows = Dataset.from_arrays(x, y, class_names=tuple(map(str, range(k))))
    return rows, tc, lams


def _deep_digest(name: str) -> tuple[str, int]:
    trees = build_trees(*_deep_case(name))
    text = "\n".join(serialize(tree) for tree in trees)
    return hashlib.sha256(text.encode()).hexdigest(), sum(tree.node_count() for tree in trees)


@pytest.mark.parametrize("name", sorted(DEEP_DIGESTS))
def test_deep_trees_match_recorded_digests(name):
    assert _deep_digest(name) == DEEP_DIGESTS[name]


def _write_synthetic_table(path: Path) -> None:
    """300 rows, 6 columns N(50, 10^2) at one decimal, three classes in
    mostly axis-aligned bands with 10% of labels redrawn at random."""
    rng = np.random.default_rng(20121117)
    x = np.round(rng.normal(50.0, 10.0, size=(300, 6)), 1)
    y = np.where(x[:, 0] + 0.3 * x[:, 2] < 60.0, 0, np.where(x[:, 3] < 52.0, 1, 2))
    flip = rng.random(300) < 0.10
    y[flip] = rng.integers(0, 3, size=int(flip.sum()))
    names = ("mid", "low", "high")
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{j + 1}" for j in range(6)] + ["band"])
        for row, label in zip(x, y):
            writer.writerow([repr(float(v)) for v in row] + [names[label]])


def _record() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    if not TABLE.exists():
        _write_synthetic_table(TABLE)
    for name in sorted(CASES):
        case_dir = GOLDEN / name
        case_dir.mkdir(exist_ok=True)
        for file_name, data in _run_case(name, case_dir).items():
            (case_dir / file_name).write_bytes(data)
        print(f"recorded {name}")
    TREES.mkdir(exist_ok=True)
    for name in sorted(TREE_INPUTS):
        for file_name, data in _grown_trees(name, False).items():
            (TREES / file_name).write_bytes(data)
        print(f"recorded build_tree {name}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    _record()
