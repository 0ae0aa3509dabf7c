"""End-to-end behavior gate.

Each test covers one promised behavior, prints a single PASS or FAIL
line, and enforces the stated tolerance. Numbers come from the hand
worked walkthrough on the 24-row sample or from independent naive
reimplementations in oracles.py.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
import support
from cstree.cli import main as cli_main
from cstree.competition import LambdaGrid, run_competition
from cstree.costs import MisclassificationMatrix, TestCostVector
from cstree.data import Dataset, split_train_test
from cstree.evaluation import average_cost, average_reduction_ratio, reduction_ratio
from cstree.experiment import ExperimentConfig, run_experiment
from cstree.pruning import post_prune
from cstree.tree import (
    best_split,
    build_tree,
    serialize,
    structural_equal,
)

PRUNE_CASES = 1000
SWEEP_CASES = 200
WALKER_CASES = 100


@contextmanager
def verdict(label):
    # leading newline so the line survives interleaving with pytest's
    # unterminated progress output under -s
    try:
        yield
    except BaseException:
        print(f"\nFAIL  {label}")
        raise
    print(f"\nPASS  {label}")


def random_case(rng, max_rows):
    """Dataset of 6..max_rows rows, 1-5 attributes, 2-4 classes, with
    integer-grid features so repeated values and ties occur."""
    n = int(rng.integers(6, max_rows + 1))
    width = int(rng.integers(1, 6))
    k = int(rng.integers(2, 5))
    features = rng.integers(0, 12, size=(n, width)).astype(float)
    labels = rng.integers(0, k, size=n)
    labels[0] = 0
    labels[1] = 1  # at least two classes present
    ds = Dataset.from_arrays(
        features, labels, class_names=tuple(str(c) for c in range(k))
    )
    tc = TestCostVector(tuple(float(c) for c in rng.integers(1, 11, size=width)))
    mc_rows = []
    for i in range(k):
        row = [float(rng.integers(1, 501)) for _ in range(k)]
        row[i] = 0.0
        mc_rows.append(tuple(row))
    return ds, tc, MisclassificationMatrix(tuple(mc_rows))


class TestWalkthrough:
    def test_prune_walkthrough_matches_hand_worked_costs(
        self, bound_fixture, table_costs, example_mc
    ):
        with verdict(
            "pruning walkthrough: four decisions and all worked averages, under 1 s"
        ):
            started = time.perf_counter()
            pruned, trace = post_prune(bound_fixture, table_costs, example_mc)
            elapsed = time.perf_counter() - started

            assert [e.pruned for e in trace] == [False, True, False, False]
            assert [e.attribute for e in trace] == [1, 4, 6, 1]

            # exact totals pin the unrounded arithmetic
            keep_totals = [
                (e.cost_keep.test_cost_total, e.cost_keep.misclassification_total)
                for e in trace
            ]
            assert keep_totals == [(48.0, 0.0), (120.0, 0.0), (81.0, 0.0), (201.0, 0.0)]
            prune_totals = [
                (e.cost_prune.test_cost_total, e.cost_prune.misclassification_total)
                for e in trace
            ]
            assert prune_totals == [(48.0, 100.0), (15.0, 100.0), (9.0, 1000.0), (0.0, 450.0)]

            # printed figures, each at half its printed decimal precision;
            # 112.1 is quoted to one decimal so it gets the wider band
            printed = [
                (8.0, 0.005, 24.67, 0.005),
                (8.0, 0.005, 7.667, 0.005),
                (9.0, 0.005, 112.1, 0.05),
                (8.375, 0.005, 18.75, 0.005),
            ]
            for entry, (keep, keep_tol, prune, prune_tol) in zip(trace, printed):
                assert entry.cost_keep.average == pytest.approx(keep, abs=keep_tol)
                assert entry.cost_prune.average == pytest.approx(prune, abs=prune_tol)

            assert pruned.node_count() == 5
            assert elapsed < 1.0, f"took {elapsed:.3f} s"

    def test_fixture_average_costs_hit_worked_values(
        self, bound_fixture, sample, table_costs, example_mc
    ):
        with verdict(
            "average-cost fixtures: 8.375 initial, 7.667 after the mid-tree prune, "
            "18.75 root replacement"
        ):
            initial = average_cost(
                bound_fixture, sample, table_costs, example_mc
            )
            assert abs(initial.average - 8.375) <= 1e-9 * 8.375

            pruned, trace = post_prune(bound_fixture, table_costs, example_mc)
            by_node = {e.node_id: e for e in trace}
            replaced = by_node["root.left"].cost_prune
            assert replaced.average == pytest.approx(7.667, abs=0.005)

            # the pruned tree realizes that figure on the replaced rows
            root = bound_fixture.root
            fifteen, _ = support.partition(sample, root.attribute, root.threshold)
            assert len(fifteen) == 15
            realized = average_cost(pruned, fifteen, table_costs, example_mc)
            assert realized.average == pytest.approx(7.667, abs=0.005)

            stumped = by_node["root"].cost_prune
            assert stumped.average == 18.75

    def test_reduction_ratio_worked_examples(self):
        with verdict("reduction ratios: 0.40 single saving, 0.35 grid mean, exact"):
            assert reduction_ratio(100.0, 60.0) == 0.40
            assert average_reduction_ratio([0.4, 0.5, 0.3, 0.2]) == 0.35

    def test_grown_root_picks_cheap_informative_attribute(self, sample, table_costs):
        with verdict(
            "growing at exponent -2 on the sample roots the tree at attribute a2"
        ):
            tree = build_tree(sample, table_costs, -2.0)
            assert tree.root.attribute == 1
            assert sample.attribute_names[tree.root.attribute] == "a2"


class TestProperties:
    def test_pruning_never_raises_training_cost_and_is_idempotent(self):
        with verdict(
            f"{PRUNE_CASES} randomized prunes: training cost never rises, second "
            "pass changes nothing, under 60 s"
        ):
            rng = np.random.default_rng(404)
            started = time.perf_counter()
            for _ in range(PRUNE_CASES):
                ds, tc, mc = random_case(rng, max_rows=200)
                lam = float(rng.choice([-4.0, -2.0, -1.0, -0.5, 0.0]))
                tree = build_tree(ds, tc, lam)
                pruned, _ = post_prune(tree, tc, mc)

                before = average_cost(tree, ds, tc, mc)
                after = average_cost(pruned, ds, tc, mc)
                assert after.average <= before.average + 1e-9 * max(1.0, before.average)

                again, second = post_prune(pruned, tc, mc)
                assert structural_equal(again, pruned)
                assert not any(e.pruned for e in second)
            elapsed = time.perf_counter() - started
            assert elapsed < 60.0, f"took {elapsed:.1f} s"

    def test_competition_winner_and_split_invariances(self):
        with verdict(
            f"{SWEEP_CASES} randomized sweeps: winner attains the training minimum, "
            "exponent 0 matches the plain gain-ratio oracle, cost scaling by "
            "16 or 1/16 never moves a split"
        ):
            rng = np.random.default_rng(505)
            grids = [
                LambdaGrid(-4.0, 0.0, 1.0),
                LambdaGrid(-2.0, 0.0, 0.5),
                LambdaGrid(-4.0, 0.0, 0.5),
                LambdaGrid(-1.0, 0.0, 0.25),
            ]
            cases = []
            for case in range(SWEEP_CASES):
                ds, tc, mc = random_case(rng, max_rows=50)
                grid = grids[case % len(grids)]
                train, _ = split_train_test(
                    ds, 0.6, np.random.default_rng([505, case])
                )
                cases.append((train, tc, mc, grid))

                result = run_competition(train, tc, mc, grid)
                lowest = min(r.train_cost.average for r in result.records)
                assert result.record_for(result.winner_lambda).train_cost.average == lowest

                self._check_cost_blind_split(train, tc)

                # where no attribute has been tested yet, rescaling is a
                # uniform power-of-two shift of every score: the choice is
                # provably unchanged
                for lam in grid.values():
                    base = best_split(train, tc, lam)
                    for factor in (16.0, 0.0625):
                        scaled = best_split(train, tc.scaled(factor), lam)
                        assert (base is None) == (scaled is None)
                        if base is not None:
                            assert (base.attribute, base.threshold) == (
                                scaled.attribute,
                                scaled.threshold,
                            )

            # below the root the claim collides with the reuse rule: an
            # attribute already tested on the path keeps weight 1 while
            # every fresh attribute's weight scales by factor^lambda, so
            # scaling flips fresh-versus-retest comparisons by design
            for train, tc, mc, grid in cases:
                for lam in grid.values():
                    base = build_tree(train, tc, lam)
                    for factor in (16.0, 0.0625):
                        scaled_tree = build_tree(train, tc.scaled(factor), lam)
                        assert structural_equal(base, scaled_tree), (
                            f"scaling test costs by {factor} moved a split below "
                            f"the root at exponent {lam}: with re-tested "
                            f"attributes pinned at weight 1 and fresh scores "
                            f"rescaled by {factor}**{lam}, the comparison "
                            f"between a fresh and an already-tested attribute "
                            f"cannot be scale-free; root-level choices were "
                            f"verified invariant across all {SWEEP_CASES} sweeps"
                        )

    @staticmethod
    def _check_cost_blind_split(train, tc):
        chosen = best_split(train, tc, 0.0)
        rows = train.features.tolist()
        labels = train.labels.tolist()
        k = train.num_classes
        expected = oracles.best_gain_ratio_split(rows, labels, k)
        if expected is None:
            assert chosen is None
            return
        assert chosen is not None
        score, attribute, threshold = expected
        if (chosen.attribute, chosen.threshold) == (attribute, threshold):
            return
        # a genuine near-tie: the pick must score within rounding of the top
        ratio = TestProperties._oracle_ratio(
            rows, labels, k, chosen.attribute, chosen.threshold
        )
        assert ratio >= score - 1e-9

    @staticmethod
    def _oracle_ratio(rows, labels, k, attribute, threshold):
        left = [l for r, l in zip(rows, labels) if r[attribute] <= threshold]
        right = [l for r, l in zip(rows, labels) if r[attribute] > threshold]

        def hist(subset):
            h = [0] * k
            for label in subset:
                h[label] += 1
            return h

        total = len(labels)
        gain = (
            oracles.entropy_bits(hist(labels))
            - len(left) / total * oracles.entropy_bits(hist(left))
            - len(right) / total * oracles.entropy_bits(hist(right))
        )
        return gain / oracles.entropy_bits([len(left), len(right)])

    def test_average_cost_agrees_with_reference_walker(self):
        with verdict(
            f"{WALKER_CASES} random trees: average cost matches the naive "
            "serialized-tree walker to 1e-9 relative"
        ):
            rng = np.random.default_rng(606)
            for _ in range(WALKER_CASES):
                ds, tc, mc = random_case(rng, max_rows=80)
                lam = float(rng.choice([-3.0, -1.0, 0.0]))
                tree = build_tree(ds, tc, lam)
                got = average_cost(tree, ds, tc, mc)

                penalties = [
                    [mc.cost(i, j) for j in range(ds.num_classes)]
                    for i in range(ds.num_classes)
                ]
                tests, penalty, mean = oracles.average_cost_json(
                    serialize(tree),
                    ds.features.tolist(),
                    ds.labels.tolist(),
                    list(tc.costs),
                    penalties,
                )
                assert abs(got.test_cost_total - tests) <= 1e-9 * max(1.0, tests)
                assert abs(got.misclassification_total - penalty) <= 1e-9 * max(1.0, penalty)
                assert abs(got.average - mean) <= 1e-9 * max(1.0, abs(mean))


class TestProtocol:
    def test_trial_protocol_reduction_and_winner_rates(self, sample_path):
        with verdict(
            "100-trial protocol on the sample: pruning saves on average at every "
            "exponent, and the training winner is co-minimal on testing in at "
            "least half the trials"
        ):
            config = ExperimentConfig(
                data_path=sample_path,
                trials=100,
                seed=0,
                prune_mode="both",
            )
            _, summary = run_experiment(config)

            per_lambda = summary["reduction"]["per_lambda_mean"]
            assert len(per_lambda) == 17
            worst = min(per_lambda.values())
            print(f"  mean reduction ratio per exponent: min {worst:.3f}")
            assert worst > 0.0

            pruned_rate = summary["modes"]["pruned"]["winner_comin_test_rate"]
            unpruned_rate = summary["modes"]["unpruned"]["winner_comin_test_rate"]
            print(
                f"  winner co-minimal on testing: pruned {pruned_rate:.2f}, "
                f"unpruned {unpruned_rate:.2f}, required 0.50"
            )
            assert pruned_rate >= 0.5, (
                f"the training winner reaches the testing minimum in only "
                f"{pruned_rate:.0%} of trials (unpruned competition: "
                f"{unpruned_rate:.0%}); with 10-row test sets a single "
                f"misclassification moves an average by 5 or 50, so the "
                f"training choice rarely stays minimal"
            )

    def test_experiment_reports_are_byte_identical(self, sample_path, tmp_path):
        with verdict(
            "rerunning the experiment command with one seed reproduces the CSV "
            "and JSON byte for byte"
        ):
            blobs = []
            for name in ("first", "second"):
                rows_csv = tmp_path / f"{name}.csv"
                summary_json = tmp_path / f"{name}.json"
                code = cli_main(
                    [
                        "experiment",
                        "--data", str(sample_path),
                        "--trials", "5",
                        "--lambda-start", "-2",
                        "--lambda-end", "0",
                        "--lambda-step", "0.5",
                        "--seed", "123",
                        "--out-csv", str(rows_csv),
                        "--out-json", str(summary_json),
                    ]
                )
                assert code == 0
                blobs.append((rows_csv.read_bytes(), summary_json.read_bytes()))
            assert blobs[0][0] == blobs[1][0]
            assert blobs[0][1] == blobs[1][1]
            assert len(blobs[0][0]) > 0 and len(blobs[0][1]) > 0
