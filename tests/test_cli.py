"""End-to-end command line behavior, run in process."""

import json
import time

import pytest

from cstree.cli import main
from cstree.tree import deserialize


# flags a subcommand used to accept and ignore; all now exit 1
IGNORED_FLAGS = [
    ("prune", ["--seed", "1"]),
    ("prune", ["--prune", "post"]),
    ("prune", ["--prune"]),  # not taken as an abbreviation of --prune-on-tie
    ("prune", ["--no-prune"]),
    ("prune", ["--min-leaf", "3"]),
    ("prune", ["--cost-dist", "uniform"]),
    ("prune", ["--cost-lower", "1"]),
    ("prune", ["--cost-upper", "10"]),
    ("prune", ["--normal-mean", "5.5"]),
    ("prune", ["--normal-sd", "2"]),
    ("prune", ["--pareto-shape", "2"]),
    ("experiment", ["--tree-out", "{tmp}/tree.json"]),
]


def deep_tree_json(depth):
    """Tree JSON of valid shape whose left spine is ``depth`` splits long."""
    leaf = '{"leaf":0,"histogram":[1,0]}'
    split = '{"attribute":0,"threshold":0.5,"left":'
    return (
        '{"lambda":-1.0,"test_costs":[1,1,1,1,1,1,1,1],"root":'
        + split * depth + leaf + (',"right":' + leaf + "}") * depth + "}"
    )


def alternating_pairs_csv(path):
    """3,000 rows of one column x = i with labels in pairs, a a b b a a ...;
    the tree grown on it is a chain about 1,500 splits deep."""
    lines = [f"{i},{'ab'[(i // 2) % 2]}\n" for i in range(3000)]
    path.write_text("x,y\n" + "".join(lines), encoding="utf-8")
    return path


def chain_prune_inputs(tmp_path, depth):
    """A table of rows x = 0..depth labelled by the parity of x, and the
    tree JSON that splits off its largest remaining x at each of ``depth``
    levels of a left spine, one row per leaf."""
    data = tmp_path / "chain.csv"
    data.write_text(
        "x,y\n" + "".join(f"{x},{'ab'[x % 2]}\n" for x in range(depth + 1)), encoding="utf-8"
    )

    def leaf(x):
        return '{"leaf":%d,"histogram":[%d,%d]}' % (x % 2, 1 - x % 2, x % 2)

    splits = "".join(
        '{"attribute":0,"threshold":%r,"left":' % (depth - k - 0.5) for k in range(depth)
    )
    rights = "".join(',"right":' + leaf(x) + "}" for x in range(1, depth + 1))
    fixture = tmp_path / "chain.json"
    fixture.write_text(
        '{"lambda":0.0,"test_costs":[1.0],"root":' + splits + leaf(0) + rights + "}",
        encoding="utf-8",
    )
    return data, fixture


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTrain:
    def test_fixed_costs_single_exponent(self, capsys, sample_path, costs_file_path, tmp_path):
        tree_out = tmp_path / "tree.json"
        report_out = tmp_path / "report.json"
        code, out, err = run(
            capsys,
            "train",
            "--data", str(sample_path),
            "--cost-file", str(costs_file_path),
            "--lambda", "-2",
            "--tree-out", str(tree_out),
            "--out-json", str(report_out),
        )
        assert code == 0 and err == ""
        assert out.startswith("class 0 = 0\nclass 1 = 1\n")
        assert "lambda -2.0" in out
        assert "training average cost" in out
        assert "testing average cost" not in out  # full data by default

        tree = deserialize(tree_out.read_text(encoding="utf-8"))
        assert tree.lambda_used == -2.0
        assert tree.tc_used.costs == (4.0, 1.0, 4.0, 1.0, 7.0, 7.0, 8.0, 9.0)

        report = json.loads(report_out.read_text(encoding="utf-8"))
        assert report["lambda"] == -2.0
        assert report["nodes"] == tree.node_count()
        assert report["test_costs"] == [4, 1, 4, 1, 7, 7, 8, 9]
        assert report["train"]["count"] == 24
        assert "test" not in report
        assert len(report["trace"]) > 0  # post-pruning is the default

    def test_defaults_to_cost_blind_exponent(self, capsys, sample_path, costs_file_path):
        code, out, _ = run(
            capsys, "train", "--data", str(sample_path), "--cost-file", str(costs_file_path)
        )
        assert code == 0
        assert "lambda 0.0" in out

    def test_holdout_fraction_reports_test_side(
        self, capsys, sample_path, costs_file_path, tmp_path
    ):
        report_out = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "train",
            "--data", str(sample_path),
            "--cost-file", str(costs_file_path),
            "--train-fraction", "0.5",
            "--seed", "4",
            "--out-json", str(report_out),
        )
        assert code == 0
        assert "testing average cost" in out
        report = json.loads(report_out.read_text(encoding="utf-8"))
        assert report["train"]["count"] == 12
        assert report["test"]["count"] == 12

    def test_no_prune_leaves_no_trace(self, capsys, sample_path, costs_file_path, tmp_path):
        report_out = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "train",
            "--data", str(sample_path),
            "--cost-file", str(costs_file_path),
            "--no-prune",
            "--out-json", str(report_out),
        )
        assert code == 0
        assert json.loads(report_out.read_text(encoding="utf-8"))["trace"] == []

    def test_same_seed_same_drawn_costs(self, capsys, sample_path):
        code_a, out_a, _ = run(capsys, "train", "--data", str(sample_path), "--seed", "9")
        code_b, out_b, _ = run(capsys, "train", "--data", str(sample_path), "--seed", "9")
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_inline_two_class_penalties(self, capsys, sample_path):
        code, _, _ = run(
            capsys,
            "train",
            "--data", str(sample_path),
            "--mc-01", "100",
            "--mc-10", "100",
        )
        assert code == 0


class TestPrune:
    def test_fixture_walkthrough(
        self, capsys, sample_path, fixture_tree_path, costs_file_path, tmp_path
    ):
        trace_csv = tmp_path / "trace.csv"
        report_out = tmp_path / "prune.json"
        pruned_out = tmp_path / "pruned.json"
        code, out, err = run(
            capsys,
            "prune",
            "--fixture", str(fixture_tree_path),
            "--data", str(sample_path),
            "--cost-file", str(costs_file_path),
            "--out-csv", str(trace_csv),
            "--out-json", str(report_out),
            "--tree-out", str(pruned_out),
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert "initial average cost 8.375 over 24 rows" in lines
        assert "step 1: attribute 1 keep 8.0 vs prune 24.666666666666668 -> keep" in lines
        assert "step 2: attribute 4 keep 8.0 vs prune 7.666666666666667 -> prune" in lines
        assert "step 4: attribute 1 keep 8.375 vs prune 18.75 -> keep" in lines
        assert "pruned average cost 8.166666666666666; nodes 5" in lines
        assert out.count("-> prune") == 1

        trace_lines = trace_csv.read_text(encoding="utf-8").splitlines()
        assert len(trace_lines) == 5
        assert [line.split(",")[-1] for line in trace_lines[1:]] == [
            "false", "true", "false", "false",
        ]

        report = json.loads(report_out.read_text(encoding="utf-8"))
        assert report["initial"]["average"] == 8.375
        assert report["pruned"]["average"] == pytest.approx(196 / 24, rel=1e-12)
        assert report["trace"][1]["pruned"] is True

        pruned = deserialize(pruned_out.read_text(encoding="utf-8"))
        assert pruned.node_count() == 5

    def test_costs_default_to_those_stored_in_the_tree(
        self, capsys, sample_path, fixture_tree_path
    ):
        code, out, _ = run(
            capsys,
            "prune",
            "--fixture", str(fixture_tree_path),
            "--data", str(sample_path),
        )
        assert code == 0
        assert "initial average cost 8.375 over 24 rows" in out


class TestSweep:
    def test_competition_outputs(self, capsys, sample_path, costs_file_path, tmp_path):
        rows_csv = tmp_path / "rows.csv"
        summary_json = tmp_path / "summary.json"
        winner_json = tmp_path / "winner.json"
        code, out, err = run(
            capsys,
            "sweep",
            "--data", str(sample_path),
            "--cost-file", str(costs_file_path),
            "--lambda-start", "-1",
            "--lambda-end", "0",
            "--lambda-step", "0.5",
            "--prune", "both",
            "--seed", "3",
            "--out-csv", str(rows_csv),
            "--out-json", str(summary_json),
            "--tree-out", str(winner_json),
        )
        assert code == 0 and err == ""
        assert "winner (unpruned): lambda " in out
        assert "winner (pruned): lambda " in out

        lines = rows_csv.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 3 * 2

        summary = json.loads(summary_json.read_text(encoding="utf-8"))
        assert summary["grid"] == [-1.0, -0.5, 0.0]
        assert set(summary["winners"]) == {"unpruned", "pruned"}
        assert summary["winners"]["pruned"] in (-1.0, -0.5, 0.0)

        winner = deserialize(winner_json.read_text(encoding="utf-8"))
        assert winner.lambda_used == summary["winners"]["pruned"]

    def test_rerun_is_byte_identical(self, capsys, sample_path, costs_file_path, tmp_path):
        outputs = []
        for name in ("first", "second"):
            rows_csv = tmp_path / f"{name}.csv"
            code, _, _ = run(
                capsys,
                "sweep",
                "--data", str(sample_path),
                "--cost-file", str(costs_file_path),
                "--lambda-start", "-1",
                "--lambda-end", "0",
                "--lambda-step", "0.5",
                "--seed", "3",
                "--out-csv", str(rows_csv),
            )
            assert code == 0
            outputs.append(rows_csv.read_bytes())
        assert outputs[0] == outputs[1]


class TestExperiment:
    def test_small_run_reports(self, capsys, sample_path, tmp_path):
        rows_csv = tmp_path / "rows.csv"
        summary_json = tmp_path / "summary.json"
        code, out, err = run(
            capsys,
            "experiment",
            "--data", str(sample_path),
            "--trials", "2",
            "--lambda-start", "-1",
            "--lambda-end", "0",
            "--lambda-step", "1.0",
            "--seed", "5",
            "--out-csv", str(rows_csv),
            "--out-json", str(summary_json),
        )
        assert code == 0 and err == ""
        assert "trials 2  rows 8" in out
        assert "average reduction ratio" in out
        assert "winner co-minimal on test in" in out

        lines = rows_csv.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 9
        summary = json.loads(summary_json.read_text(encoding="utf-8"))
        assert summary["trials"] == 2
        assert set(summary["modes"]) == {"unpruned", "pruned"}

    def test_rerun_is_byte_identical(self, capsys, sample_path, tmp_path):
        blobs = []
        for name in ("first", "second"):
            rows_csv = tmp_path / f"{name}.csv"
            summary_json = tmp_path / f"{name}.json"
            code, _, _ = run(
                capsys,
                "experiment",
                "--data", str(sample_path),
                "--trials", "2",
                "--lambda-start", "-1",
                "--lambda-end", "0",
                "--lambda-step", "1.0",
                "--seed", "5",
                "--out-csv", str(rows_csv),
                "--out-json", str(summary_json),
            )
            assert code == 0
            blobs.append((rows_csv.read_bytes(), summary_json.read_bytes()))
        assert blobs[0] == blobs[1]


class TestDeepTrees:
    """Trees deeper than Python's recursion limit train and prune."""

    @pytest.mark.parametrize("min_leaf", ["1", "2"])
    def test_train_alternating_pairs(self, capsys, tmp_path, min_leaf):
        data = alternating_pairs_csv(tmp_path / "pairs.csv")
        code, out, err = run(capsys, "train", "--data", str(data), "--min-leaf", min_leaf)
        assert code == 0 and err == ""
        assert "nodes 2999  leaves 1500\n" in out

    def test_tree_out_too_deep_for_json(self, capsys, tmp_path):
        data = alternating_pairs_csv(tmp_path / "pairs.csv")
        tree_out = tmp_path / "tree.json"
        code, _, err = run(capsys, "train", "--data", str(data), "--tree-out", str(tree_out))
        assert code == 1
        assert err == "error: tree is nested too deeply to write as JSON\n"
        assert not tree_out.exists()

    def test_prune_chain(self, capsys, tmp_path):
        data, fixture = chain_prune_inputs(tmp_path, 900)
        code, out, err = run(capsys, "prune", "--fixture", str(fixture), "--data", str(data))
        assert code == 0 and err == ""
        assert "initial average cost 1.0 over 901 rows\n" in out
        assert out.count(" -> keep\n") == 900
        assert out.endswith("pruned average cost 1.0; nodes 1801\n")


class TestExitCodes:
    def test_missing_data_file(self, capsys):
        code, _, err = run(capsys, "train", "--data", "/nonexistent/rows.csv")
        assert code == 1
        assert err.startswith("error:")

    def test_lopsided_penalty_flags(self, capsys, sample_path):
        code, _, err = run(
            capsys, "train", "--data", str(sample_path), "--mc-01", "100"
        )
        assert code == 1
        assert "--mc-01 and --mc-10 must be given together" in err

    def test_unknown_flag(self, capsys, sample_path):
        code, _, err = run(capsys, "train", "--data", str(sample_path), "--bogus")
        assert code == 1
        assert "error:" in err

    def test_bad_train_fraction(self, capsys, sample_path):
        code, _, err = run(
            capsys, "sweep", "--data", str(sample_path), "--train-fraction", "1.5"
        )
        assert code == 1
        assert "train_fraction" in err

    def test_bad_distribution_choice(self, capsys, sample_path):
        code, _, _ = run(
            capsys, "train", "--data", str(sample_path), "--cost-dist", "cauchy"
        )
        assert code == 1

    def test_missing_fixture_file(self, capsys, sample_path):
        code, _, err = run(
            capsys,
            "prune",
            "--fixture", "/nonexistent/tree.json",
            "--data", str(sample_path),
        )
        assert code == 1
        assert "error:" in err

    def test_matrix_file_without_matrix(self, capsys, sample_path, tmp_path):
        costs_only = tmp_path / "costs_only.json"
        costs_only.write_text(json.dumps({"test_costs": [1] * 8}), encoding="utf-8")
        code, _, err = run(
            capsys,
            "train",
            "--data", str(sample_path),
            "--mc-file", str(costs_only),
        )
        assert code == 1
        assert "no mc_matrix key" in err

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.update(test_costs=5), "test_costs"),
            (lambda d: d.update(test_costs=["4"] * 8), "test_costs"),
            (lambda d: d.update(test_costs=[True] * 8), "test_costs"),
            (lambda d: d.update({"lambda": False}), "lambda"),
            (lambda d: d.update({"lambda": float("nan")}), "lambda"),
            (lambda d: d.update({"lambda": float("-inf")}), "lambda must be a finite number <= 0"),
            (lambda d: d.update({"lambda": float("nan")}), "lambda must be a finite number <= 0"),
            (lambda d: d["root"].update(attribute=True), "attribute index"),
            (lambda d: d["root"].update(threshold=True), "threshold"),
            (lambda d: d["root"]["right"]["right"].update(leaf=True), "leaf class"),
            (lambda d: d["root"]["right"]["right"].update(histogram=[False, 7]), "histogram"),
            # integers too large for a float or an int64
            (lambda d: d["root"].update(threshold=10**400), "threshold must be a finite number"),
            (lambda d: d.update({"lambda": -(10**400)}), "lambda"),
            (
                lambda d: d["root"]["right"]["right"].update(histogram=[0, 2**63]),
                "leaf histogram must be a list of nonnegative integers",
            ),
            # two leaves whose counts each fit an int64 but whose sum does not
            (
                lambda d: d["root"]["right"].update(
                    left={"leaf": 0, "histogram": [2**62, 0]},
                    right={"leaf": 0, "histogram": [2**62, 0]},
                ),
                "histogram counts must total less than 2**63",
            ),
            # a text replacing the document, too deep for json.loads to read
            (lambda d: deep_tree_json(5000), "tree JSON is nested too deeply"),
        ],
    )
    def test_malformed_tree_json(
        self, capsys, sample_path, fixture_tree_path, tmp_path, mutate, message
    ):
        doc = json.loads(fixture_tree_path.read_text(encoding="utf-8"))
        text = mutate(doc) or json.dumps(doc)
        fixture = tmp_path / "tree.json"
        fixture.write_text(text, encoding="utf-8")
        code, _, err = run(
            capsys, "prune", "--fixture", str(fixture), "--data", str(sample_path)
        )
        assert code == 1
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"test_costs": [None] + [1] * 7}, "test_costs"),
            ({"test_costs": [True] * 8}, "test_costs"),
            ({"test_costs": ["4"] * 8}, "test_costs"),
            ({"mc_matrix": [[0, True], [1, 0]]}, "mc_matrix"),
            ({"mc_matrix": [[0, None], [1, 0]]}, "mc_matrix"),
            ({"mc_matrix": [[0, "5"], [1, 0]]}, "mc_matrix"),
            ({"test_costs": [10**400] + [1] * 7}, "test_costs"),
            ({"mc_matrix": [[0, 10**400], [1, 0]]}, "mc_matrix"),
        ],
    )
    def test_malformed_cost_file(self, capsys, sample_path, tmp_path, doc, message):
        costs = tmp_path / "costs.json"
        costs.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(
            capsys, "train", "--data", str(sample_path), "--cost-file", str(costs)
        )
        assert code == 1
        assert err.startswith("error:") and message in err and str(costs) in err

    @pytest.mark.parametrize("flag", ["--cost-file", "--mc-file"])
    def test_cost_file_nested_too_deeply(self, capsys, sample_path, tmp_path, flag):
        costs = tmp_path / "costs.json"
        costs.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code, _, err = run(capsys, "train", "--data", str(sample_path), flag, str(costs))
        assert code == 1
        assert err.startswith("error:") and "nested too deeply" in err and str(costs) in err

    @pytest.mark.parametrize(
        "text, message",
        [
            # a cell longer than the csv module's field limit, bare and quoted
            ("a,y\n" + "1" * 200_000 + ",x\n2,z\n", "row 1: field larger than field limit"),
            ('a,y\n1,x\n"' + "2" * 200_000 + '",z\n', "row 2: field larger than field limit"),
            ("a,y\n1,x\n2,z\n3,\n", "row 3: blank label cell"),
            ("a,y\n1,x\n2\n", "row 2 has 1 cells"),
        ],
    )
    def test_malformed_csv(self, capsys, tmp_path, text, message):
        data = tmp_path / "rows.csv"
        data.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "train", "--data", str(data))
        assert code == 1
        assert err.startswith("error:") and message in err and str(data) in err

    @pytest.mark.parametrize("argv", [["train", "--lambda", "-4"], ["sweep"]])
    def test_overflowing_test_cost_weight(self, capsys, sample_path, tmp_path, argv):
        # 1e-100 ** -4 overflows a float
        costs = tmp_path / "costs.json"
        doc = {"test_costs": [1e-100] + [1] * 7, "mc_matrix": [[0, 50], [200, 0]]}
        costs.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, *argv, "--data", str(sample_path), "--cost-file", str(costs))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "attribute 0 to the power -4.0 overflows" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train", "--lambda", "nan"], "cost exponent must be finite"),
            (["train", "--lambda=-inf"], "cost exponent must be finite"),
            (["sweep", "--lambda", "nan"], "must be finite"),
            (["sweep", "--lambda-start=-inf"], "must be finite"),
            (["sweep", "--lambda-step", "inf"], "must be finite"),
            (["experiment", "--trials", "1", "--lambda-end", "nan"], "must be finite"),
        ],
    )
    def test_non_finite_exponent(self, capsys, sample_path, argv, message):
        code, out, err = run(capsys, *argv, "--data", str(sample_path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("step", ["1e-9", "1e-300", "5e-324"])
    def test_oversized_exponent_grid(self, capsys, sample_path, step):
        # 4e9, about 4e300 and an overflowing count of exponents: refused
        # before any is listed
        started = time.perf_counter()
        code, out, err = run(capsys, "sweep", "--lambda-step", step, "--data", str(sample_path))
        assert time.perf_counter() - started < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error:") and "at most 10000 exponents" in err

    @pytest.mark.parametrize(
        "command, flag",
        IGNORED_FLAGS,
        ids=[f"{command} {' '.join(flag)}" for command, flag in IGNORED_FLAGS],
    )
    def test_ignored_flags_are_rejected(
        self, capsys, sample_path, fixture_tree_path, tmp_path, command, flag
    ):
        argv = {
            "prune": ["prune", "--fixture", str(fixture_tree_path)],
            "experiment": ["experiment", "--trials", "1", "--lambda", "0"],
        }[command]
        flag = [part.format(tmp=tmp_path) for part in flag]
        code, out, err = run(capsys, *argv, "--data", str(sample_path), *flag)
        assert code == 1
        assert out == "" and "unrecognized arguments" in err
        assert list(tmp_path.iterdir()) == []

    def test_flags_are_spelled_in_full(self, capsys, sample_path):
        code, _, err = run(
            capsys, "sweep", "--data", str(sample_path), "--train-frac", "0.5"
        )
        assert code == 1
        assert "unrecognized arguments" in err

    def test_experiment_matrix_class_mismatch(self, capsys, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text("a,c\n1,x\n2,y\n3,z\n4,x\n5,y\n6,z\n", encoding="utf-8")
        code, _, err = run(
            capsys, "experiment", "--data", str(path), "--trials", "1",
            "--mc-01", "1", "--mc-10", "2",
        )
        assert code == 1
        assert "matrix classes and dataset classes differ" in err

    def test_help_exits_cleanly(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "train" in out and "experiment" in out

    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "error:" in err

    def test_unexpected_failure_is_distinguished(self, capsys, sample_path, monkeypatch):
        import cstree.cli as cli_module

        def boom(config):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(cli_module, "run_experiment", boom)
        code, _, err = run(capsys, "experiment", "--data", str(sample_path), "--trials", "1")
        assert code == 2
        assert "unexpected failure" in err


def _leaf(cls, *counts):
    return {"leaf": cls, "histogram": list(counts)}


_THREE_CLASSES = {
    "root.right.left": _leaf(0, 2, 0, 0), "root.right.right": _leaf(1, 0, 7, 0),
    "root.left.left": _leaf(0, 9, 0, 0), "root.left.right.left": _leaf(0, 4, 0, 0),
    "root.left.right.right": _leaf(1, 0, 2, 0),
}

# Trees of the prune fixture with two faults each (or a fault and rows
# that do not fit), given as {node position: replacement node, or keys to
# update}, plus extra flags, and the exit code and stderr of `prune` on
# the sample when these were recorded. A tree is read parents first,
# right subtrees before left, so "root.right.*" is read before "root.left".
PRUNE_FAULTS = {
    "wrong majority, then a bad key": (
        {"root.right.right": _leaf(0, 0, 7), "root.left.left": {**_leaf(0, 9, 0), "extra": 1}},
        [], "leaf class must be the majority of its histogram",
    ),
    "bad key, then wrong majority": (
        {"root.right.right": {**_leaf(1, 0, 7), "extra": 1}, "root.left.left": _leaf(1, 9, 0)},
        [], "node must have exactly the keys {leaf, histogram} or "
        "{attribute, threshold, left, right}",
    ),
    "wrong majority, then an attribute out of range": (
        {"root.right.left": _leaf(1, 2, 0), "root.left": {"attribute": 99}},
        [], "leaf class must be the majority of its histogram",
    ),
    "wrong majority, then a bad threshold": (
        {"root.right.left": _leaf(1, 2, 0), "root.left": {"threshold": "x"}},
        [], "leaf class must be the majority of its histogram",
    ),
    "wrong majority, then a node that is not an object": (
        {"root.right.right": _leaf(0, 0, 7), "root.left.right.left": 5},
        [], "leaf class must be the majority of its histogram",
    ),
    "wrong majority, then a histogram of another width": (
        {"root.right.right": _leaf(0, 0, 7), "root.left.left": _leaf(0, 9, 0, 0)},
        [], "leaf class must be the majority of its histogram",
    ),
    "wrong majority, then a leaf class out of range": (
        {"root.right.right": _leaf(0, 0, 7), "root.left.left": _leaf(5, 9, 0)},
        [], "leaf class must be the majority of its histogram",
    ),
    "wrong majority, then a negative count": (
        {"root.right.right": _leaf(0, 0, 7), "root.left.left": _leaf(0, -1, 0)},
        [], "leaf class must be the majority of its histogram",
    ),
    "wrong majority, then an overflowing leaf": (
        {"root.right.right": _leaf(0, 0, 7), "root.left.left": _leaf(0, 2**63 - 1, 1)},
        [], "leaf class must be the majority of its histogram",
    ),
    "a negative count in a leaf whose class is not its majority": (
        {"root.right.right": _leaf(0, -1, 7)},
        [], "leaf histogram must be a list of nonnegative integers",
    ),
    "an overflowing leaf whose class is not its majority": (
        {"root.right.right": _leaf(1, 2**63 - 1, 1)},
        [], "histogram counts must total less than 2**63",
    ),
    "a split whose total overflows, then a wrong majority": (
        {"root.right.left": _leaf(0, 2**62, 0), "root.right.right": _leaf(0, 2**62, 0),
         "root.left.left": _leaf(1, 9, 0)},
        [], "leaf class must be the majority of its histogram",
    ),
    "zero-count split on rows that do not match": (
        {"root.left.right.left": _leaf(0, 0, 0), "root.left.right.right": _leaf(0, 0, 0)},
        [], "routed rows do not reproduce the stored leaf histograms",
    ),
    "zero-count split on rows that match": (
        {"root.left.left": {
            "attribute": 0, "threshold": -1000.0,
            "left": {"attribute": 0, "threshold": -2000.0,
                     "left": _leaf(0, 0, 0), "right": _leaf(0, 0, 0)},
            "right": _leaf(0, 9, 0),
        }},
        [], "a cost breakdown needs at least one instance",
    ),
    "class-count mismatch": (_THREE_CLASSES, [], "tree counts 3 classes, data has 2"),
    "class-count mismatch and a two-class matrix": (
        _THREE_CLASSES, ["--mc-01", "500", "--mc-10", "50"], "tree counts 3 classes, data has 2"
    ),
    "class-count mismatch on rows that do not match": (
        {**_THREE_CLASSES, "root.right.left": _leaf(0, 5, 0, 0)},
        [], "tree counts 3 classes, data has 2",
    ),
    "too few test costs on rows that do not match": (
        {"test_costs": [4, 1, 4, 1, 7, 7, 8], "root.left.left": _leaf(0, 8, 0)},
        [], "test cost count and attribute count differ",
    ),
    "rows that do not match": (
        {"root.left.left": _leaf(0, 8, 1)},
        [], "routed rows do not reproduce the stored leaf histograms",
    ),
}


def _with_faults(doc, changes):
    for where, value in changes.items():
        if where == "test_costs":
            doc[where] = value
            continue
        *path, side = where.split(".")[1:]
        parent = doc["root"]
        for step in path:
            parent = parent[step]
        if isinstance(value, dict) and not {"leaf", "left"} & set(value):
            parent[side].update(value)
        else:
            parent[side] = value
    return doc


@pytest.mark.parametrize("name", list(PRUNE_FAULTS))
def test_prune_reports_the_recorded_first_fault(
    capsys, sample_path, fixture_tree_path, tmp_path, name
):
    changes, flags, message = PRUNE_FAULTS[name]
    doc = _with_faults(json.loads(fixture_tree_path.read_text(encoding="utf-8")), changes)
    fixture = tmp_path / "tree.json"
    fixture.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(
        capsys, "prune", "--fixture", str(fixture), "--data", str(sample_path), *flags
    )
    assert (code, err) == (1, f"error: {message}\n")
