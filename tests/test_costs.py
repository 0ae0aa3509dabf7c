"""Cost vectors, penalty matrices, cost files, and random cost draws."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstree.costs import (
    CostDistributionSpec,
    MisclassificationMatrix,
    TestCostVector,
    _sum_in_order,
    generate_test_costs,
    load_cost_file,
    total_test_cost,
    two_class_matrix,
)
from cstree.evaluation import average_reduction_ratio


class TestTestCostVector:
    def test_lookup(self, table_costs):
        assert table_costs.cost(1) == 1.0
        assert table_costs.cost(6) == 8.0
        assert len(table_costs) == 8

    def test_scaled(self, table_costs):
        doubled = table_costs.scaled(2.0)
        assert doubled.costs == tuple(2 * c for c in table_costs.costs)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_non_positive_or_non_finite(self, bad):
        with pytest.raises(ValueError):
            TestCostVector((1.0, bad))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TestCostVector(())

    def test_rejects_bad_index(self, table_costs):
        with pytest.raises(ValueError, match="out of range"):
            table_costs.cost(8)

    def test_rejects_bad_scale(self, table_costs):
        with pytest.raises(ValueError):
            table_costs.scaled(0.0)


class TestTotalTestCost:
    def test_pair_of_attributes(self, table_costs):
        assert total_test_cost(table_costs, {1, 4}) == 8.0
        assert total_test_cost(table_costs, {1, 6}) == 9.0

    def test_empty_set(self, table_costs):
        assert total_test_cost(table_costs, set()) == 0.0

    def test_duplicates_charged_once(self, table_costs):
        assert total_test_cost(table_costs, [1, 1, 4, 4, 4]) == 8.0

    def test_invalid_index(self, table_costs):
        with pytest.raises(ValueError):
            total_test_cost(table_costs, {99})

    @settings(max_examples=50, deadline=None)
    @given(
        picks=st.lists(st.integers(0, 7), max_size=12),
        extra=st.integers(0, 7),
    )
    def test_monotone_under_inclusion(self, table_costs, picks, extra):
        base = total_test_cost(table_costs, picks)
        assert total_test_cost(table_costs, picks + [extra]) >= base
        assert total_test_cost(table_costs, picks + picks) == base


class TestSumInOrder:
    # Python 3.12's compensated built-in sum() gives 0.6 here; reports
    # depend on the left-to-right value on every supported version.
    def test_adds_left_to_right(self):
        assert _sum_in_order([0.1, 0.2, 0.3]) == 0.6000000000000001
        assert _sum_in_order(iter([0.3, 0.2, 0.1])) == 0.6

    def test_empty_is_float_zero(self):
        assert _sum_in_order([]) == 0.0 and isinstance(_sum_in_order([]), float)

    def test_report_sums_use_it(self):
        tc = TestCostVector((0.1, 0.2, 0.3))
        assert total_test_cost(tc, {2, 0, 1}) == 0.6000000000000001
        assert average_reduction_ratio([0.1, 0.2, 0.3]) == 0.6000000000000001 / 3


class TestMisclassificationMatrix:
    def test_lookup(self, example_mc):
        assert example_mc.cost(0, 1) == 500.0
        assert example_mc.cost(1, 0) == 50.0
        assert example_mc.cost(0, 0) == 0.0
        assert example_mc.num_classes == 2

    def test_two_class_helper(self, example_mc):
        assert two_class_matrix(500, 50) == example_mc

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            MisclassificationMatrix(((1.0, 2.0), (3.0, 0.0)))

    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError, match="nonnegative"):
            MisclassificationMatrix(((0.0, -1.0), (1.0, 0.0)))

    def test_rejects_ragged(self):
        with pytest.raises(ValueError, match="expected 2"):
            MisclassificationMatrix(((0.0, 1.0), (1.0, 0.0, 2.0)))

    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="two classes"):
            MisclassificationMatrix(((0.0,),))

    def test_rejects_bad_lookup(self, example_mc):
        with pytest.raises(ValueError):
            example_mc.cost(0, 2)


class TestCostDistributionSpec:
    def test_defaults(self):
        spec = CostDistributionSpec()
        assert spec.kind == "uniform"
        assert (spec.lower, spec.upper) == (1, 10)
        assert (spec.normal_mean, spec.normal_sd) == (5.5, 2.0)
        assert spec.pareto_shape == 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="exponential"),
            dict(lower=0),
            dict(lower=5, upper=5),
            dict(lower=7, upper=3),
            dict(normal_sd=0.0),
            dict(pareto_shape=-1.0),
            dict(lower=1.5, upper=10),
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValueError):
            CostDistributionSpec(**kwargs)


class TestGenerateTestCosts:
    @pytest.mark.parametrize("kind", ["uniform", "normal", "pareto"])
    def test_integral_and_in_bounds(self, kind):
        spec = CostDistributionSpec(kind=kind)
        rng = np.random.default_rng(5)
        for _ in range(30):
            tc = generate_test_costs(spec, 8, rng)
            assert len(tc) == 8
            for c in tc.costs:
                assert 1.0 <= c <= 10.0
                assert c == int(c)

    def test_deterministic_given_seed(self):
        spec = CostDistributionSpec()
        a = generate_test_costs(spec, 8, np.random.default_rng(11))
        b = generate_test_costs(spec, 8, np.random.default_rng(11))
        assert a == b

    def test_uniform_frequencies(self):
        # 10^4 draws: each value's frequency within 3 sigma of 1/10
        spec = CostDistributionSpec()
        rng = np.random.default_rng(123)
        draws = []
        for _ in range(1250):
            draws.extend(generate_test_costs(spec, 8, rng).costs)
        assert len(draws) == 10_000
        sigma = math.sqrt(0.1 * 0.9 / 10_000)
        for value in range(1, 11):
            freq = draws.count(float(value)) / 10_000
            assert abs(freq - 0.1) <= 3 * sigma, (value, freq)

    def test_normal_centers_mass(self):
        spec = CostDistributionSpec(kind="normal")
        rng = np.random.default_rng(7)
        draws = [c for _ in range(500) for c in generate_test_costs(spec, 8, rng).costs]
        mean = sum(draws) / len(draws)
        assert 4.5 <= mean <= 6.5
        middle = sum(1 for c in draws if 4 <= c <= 7) / len(draws)
        assert middle > 0.5

    def test_pareto_skews_low(self):
        spec = CostDistributionSpec(kind="pareto")
        rng = np.random.default_rng(7)
        draws = [c for _ in range(500) for c in generate_test_costs(spec, 8, rng).costs]
        low = sum(1 for c in draws if c <= 2) / len(draws)
        high = sum(1 for c in draws if c >= 9) / len(draws)
        assert low > high

    def test_needs_positive_count(self):
        with pytest.raises(ValueError):
            generate_test_costs(CostDistributionSpec(), 0, np.random.default_rng(0))


class TestLoadCostFile:
    def test_example_file(self, costs_file_path, table_costs, example_mc):
        tc, mc = load_cost_file(costs_file_path)
        assert tc == table_costs
        assert mc == example_mc

    def test_costs_only(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"test_costs": [2, 3]}), encoding="utf-8")
        tc, mc = load_cost_file(path)
        assert tc == TestCostVector((2.0, 3.0))
        assert mc is None

    def test_matrix_only(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"mc_matrix": [[0, 5], [7, 0]]}), encoding="utf-8")
        tc, mc = load_cost_file(path)
        assert tc is None
        assert mc == two_class_matrix(5, 7)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"test_costs": [1], "bogus": 1}), encoding="utf-8")
        with pytest.raises(ValueError, match="bogus"):
            load_cost_file(path)

    def test_zero_cost_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"test_costs": [0, 3]}), encoding="utf-8")
        with pytest.raises(ValueError, match="positive"):
            load_cost_file(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError):
            load_cost_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_cost_file(tmp_path / "absent.json")
