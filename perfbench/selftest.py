"""Self-test of the output checks: each must pass on real outputs and fail
on a corrupted copy.

    python3 perfbench/selftest.py

Run from the root of a checkout. It makes one small operation per
workload with ``cstree.cli.main`` in a temporary directory (the large
table shrunk to 2,000 rows), then applies one corruption at a time, such
as a shifted threshold, an edited average or a dropped CSV row.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from cstree.cli import main as cli_main  # noqa: E402

TRIALS = 2
SWEEP_SEED = 7


def _cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"cstree {argv[0]} exited {code}")


def _edit_json(path, change):
    doc = json.loads(path.read_text(encoding="utf-8"))
    change(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def _edit_rows(path, change):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(change(lines)), encoding="utf-8")


def _edit_cell(column, row_filter, change):
    """A CSV edit that applies ``change`` to ``column`` of the first matching row."""

    def edit(lines):
        header = lines[0].rstrip("\n").split(",")
        out, done = [lines[0]], False
        for line in lines[1:]:
            cells = dict(zip(header, line.rstrip("\n").split(",")))
            if not done and row_filter(cells):
                cells[column] = repr(change(float(cells[column])))
                line = ",".join(cells[h] for h in header) + "\n"
                done = True
            out.append(line)
        return out

    return edit


class _Case:
    """Makes the outputs once; each test checks a fresh copy of them.

    Mixed into ``unittest.TestCase`` by each workload's test class.
    """

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.base = Path(cls.tmp.name) / "base"
        cls.base.mkdir()
        cls.make(cls.base)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def corrupted(self, edit) -> list[str]:
        op = Path(self.tmp.name) / self.id().rsplit(".", 1)[-1]
        shutil.copytree(self.base, op)
        edit(op)
        return self.check(op)

    def assertCaught(self, edit):
        self.assertTrue(self.corrupted(edit), "the corruption went unnoticed")

    def test_clean_outputs_pass(self):
        self.assertEqual(self.check(self.base), [])


class ExperimentChecks(_Case, unittest.TestCase):
    @classmethod
    def make(cls, op):
        cls.data = op / "sample.csv"
        shutil.copyfile(workloads.SAMPLE_CSV, cls.data)
        _cli("experiment", "--data", cls.data, "--prune", "both", "--trials", TRIALS,
             "--seed", 3, "--out-csv", op / "rows.csv", "--out-json", op / "summary.json")

    def check(self, op):
        return checks.check_experiment(op, checks.Table(self.data), TRIALS, workloads.GRID_SIZE)

    def test_failed_operation(self):
        plan = {"workload": "sample-experiment", "data": str(self.data), "ops": [{"params": {"trials": TRIALS}}]}
        record = {"index": 0, "kind": 0, "seconds": 0.01, "ok": False}
        self.assertTrue(run._verify(plan, [record], Path(self.tmp.name)), "a failed operation went unnoticed")

    def test_dropped_row(self):
        self.assertCaught(lambda op: _edit_rows(op / "rows.csv", lambda lines: lines[:-1]))

    def test_pruned_cost_above_unpruned(self):
        edit = _edit_cell("train_avg_cost", lambda c: c["pruned"] == "true", lambda v: v + 1e6)
        self.assertCaught(lambda op: _edit_rows(op / "rows.csv", edit))

    def test_edited_reduction_ratio(self):
        edit = _edit_cell("reduction_ratio", lambda c: c["pruned"] == "true", lambda v: v + 0.01)
        self.assertCaught(lambda op: _edit_rows(op / "rows.csv", edit))

    def test_edited_mean(self):
        def change(doc):
            means = doc["modes"]["pruned"]["per_lambda"]["-2.0"]
            means["mean_test_avg_cost"] += 0.5

        self.assertCaught(lambda op: _edit_json(op / "summary.json", change))

    def test_edited_win_count(self):
        def change(doc):
            doc["modes"]["unpruned"]["win_counts"]["0.0"] += 1

        self.assertCaught(lambda op: _edit_json(op / "summary.json", change))

    def test_edited_comin_rate(self):
        def change(doc):
            doc["modes"]["pruned"]["winner_comin_test_rate"] += 0.5

        self.assertCaught(lambda op: _edit_json(op / "summary.json", change))

    def test_edited_average_reduction(self):
        def change(doc):
            doc["reduction"]["average_reduction_ratio"] *= 1.001

        self.assertCaught(lambda op: _edit_json(op / "summary.json", change))


class SweepChecks(_Case, unittest.TestCase):
    @classmethod
    def make(cls, op):
        cls.data, cls.costs = op / "pima.csv", op / "pima_costs.json"
        gen.pima_table(5, cls.data, cls.costs)
        _cli("sweep", "--data", cls.data, "--cost-file", cls.costs, "--prune", "both",
             "--seed", SWEEP_SEED, "--out-csv", op / "rows.csv", "--out-json",
             op / "summary.json", "--tree-out", op / "tree.json")

    def check(self, op):
        return checks.check_sweep(op, checks.Table(self.data), self.costs, SWEEP_SEED,
                                  workloads.GRID_SIZE)

    def test_shifted_root_threshold(self):
        def change(doc):
            doc["root"]["threshold"] *= 1.1

        self.assertCaught(lambda op: _edit_json(op / "tree.json", change))

    def test_root_on_another_attribute(self):
        def change(doc):
            doc["root"]["attribute"] = (doc["root"]["attribute"] + 1) % 8

        self.assertCaught(lambda op: _edit_json(op / "tree.json", change))

    def test_edited_train_average(self):
        def edit(op):
            winner = json.loads((op / "summary.json").read_text())["winners"]["pruned"]
            cell = _edit_cell(
                "train_avg_cost",
                lambda c: c["pruned"] == "true" and float(c["lambda"]) == winner,
                lambda v: v + 0.25,
            )
            _edit_rows(op / "rows.csv", cell)

        self.assertCaught(edit)

    def test_wrong_winner(self):
        def change(doc):
            doc["winners"]["unpruned"] = -4.0 if doc["winners"]["unpruned"] != -4.0 else 0.0

        self.assertCaught(lambda op: _edit_json(op / "summary.json", change))

    def test_dropped_row(self):
        self.assertCaught(lambda op: _edit_rows(op / "rows.csv", lambda lines: lines[:-1]))


class TrainReplayChecks(_Case, unittest.TestCase):
    @classmethod
    def make(cls, op):
        cls.data, cls.costs = op / "large.csv", op / "large_costs.json"
        gen.large_table(5, cls.data, cls.costs, rows=2000)
        common = ["--data", cls.data, "--cost-file", cls.costs]
        _cli("train", *common, "--lambda", workloads.LARGE_LAMBDA, "--prune", "none",
             "--tree-out", op / "tree.json", "--out-json", op / "train.json")
        _cli("prune", "--fixture", op / "tree.json", *common, "--tree-out",
             op / "pruned_tree.json", "--out-json", op / "prune.json")
        _cli("prune", "--fixture", op / "pruned_tree.json", *common, "--tree-out",
             op / "replay_tree.json", "--out-json", op / "replay.json")

    def check(self, op):
        return checks.check_train_replay(op, checks.Table(self.data), self.costs)

    def test_edited_leaf_histogram(self):
        def change(doc):
            node = doc["root"]
            while "leaf" not in node:
                node = node["left"]
            node["histogram"][node["leaf"]] += 1

        self.assertCaught(lambda op: _edit_json(op / "tree.json", change))

    def test_shifted_threshold(self):
        def change(doc):
            doc["root"]["threshold"] += 0.5

        self.assertCaught(lambda op: _edit_json(op / "tree.json", change))

    def test_edited_train_average(self):
        def change(doc):
            doc["train"]["average"] += 0.001

        self.assertCaught(lambda op: _edit_json(op / "train.json", change))

    def test_edited_keep_total(self):
        def change(doc):
            doc["trace"][len(doc["trace"]) // 2]["keep"]["test_cost_total"] += 1.0

        self.assertCaught(lambda op: _edit_json(op / "prune.json", change))

    def test_flipped_decision(self):
        def change(doc):
            doc["trace"][0]["pruned"] = not doc["trace"][0]["pruned"]

        self.assertCaught(lambda op: _edit_json(op / "prune.json", change))

    def test_edited_pruned_average(self):
        def change(doc):
            doc["pruned"]["average"] = doc["initial"]["average"] + 1.0

        self.assertCaught(lambda op: _edit_json(op / "prune.json", change))

    def test_replay_prunes_again(self):
        def change(doc):
            doc["trace"][-1]["pruned"] = True

        self.assertCaught(lambda op: _edit_json(op / "replay.json", change))


if __name__ == "__main__":
    unittest.main()
