import math

import numpy as np
import pytest

from dphist.privacy import (
    BudgetLedger,
    BudgetOverflowError,
    NoiseSource,
    geometric_level_budget,
    laplace_sample,
    require_positive,
)

BAD_BUDGETS = [0.0, -1.0, math.nan, math.inf, -math.inf]


class TestRequirePositive:
    @pytest.mark.parametrize("value", [5e-324, 1e-4, 1.0, 1e300, 3, np.float64(0.5)])
    def test_accepts_positive_finite(self, value):
        require_positive("eps", value)

    @pytest.mark.parametrize("value", BAD_BUDGETS)
    def test_rejects_naming_the_value(self, value):
        with pytest.raises(ValueError, match=rf"^eps_data must be positive and finite, got {value!r}$"):
            require_positive("eps_data", value)

    @pytest.mark.parametrize("value", BAD_BUDGETS)
    def test_every_budget_entry_point_rejects(self, value):
        src = NoiseSource(0, zero_noise=True)
        for call in (
            lambda: laplace_sample(1.0, value, src),
            lambda: laplace_sample(value, 1.0, src),
            lambda: geometric_level_budget(0, 3, value),
            lambda: BudgetLedger().charge("x", value),
            lambda: BudgetLedger().charge_parallel("x", value, count=4),
        ):
            with pytest.raises(ValueError, match="must be positive and finite"):
                call()


class TestLaplaceSample:
    def test_rejects_bad_eps(self):
        src = NoiseSource(0)
        with pytest.raises(ValueError):
            laplace_sample(1.0, 0.0, src)
        with pytest.raises(ValueError):
            laplace_sample(1.0, -1.0, src)

    def test_rejects_bad_eps_even_in_zero_noise(self):
        src = NoiseSource(0, zero_noise=True)
        with pytest.raises(ValueError):
            laplace_sample(1.0, 0.0, src)

    def test_zero_noise_mode(self):
        src = NoiseSource(0, zero_noise=True)
        assert laplace_sample(2.0, 0.001, src) == 0.0

    def test_huge_eps_limit(self):
        src = NoiseSource(1)
        draws = [laplace_sample(1.0, 1e12, src.substream(i)) for i in range(100)]
        assert max(abs(d) for d in draws) < 1e-9

    def test_moments(self):
        # scale b = sensitivity / eps = 2: mean 0, variance 2 b^2 = 8
        src = NoiseSource(2024).substream("moments")
        draws = src.generator.laplace(0.0, 2.0, size=1_000_000)
        assert abs(draws.mean()) < 3 * 2.0 * math.sqrt(2) / 1000
        assert abs(draws.var() - 8.0) < 0.4


class TestGeometricLevelBudget:
    def test_height_zero_collapses(self):
        assert geometric_level_budget(0, 0, 0.7) == pytest.approx(0.7)

    def test_two_levels(self):
        e0 = geometric_level_budget(0, 1, 1.0)
        e1 = geometric_level_budget(1, 1, 1.0)
        assert e0 == pytest.approx(0.5575066659755581, abs=1e-12)
        assert e1 == pytest.approx(0.4424933340244419, abs=1e-12)
        assert e0 + e1 == pytest.approx(1.0, abs=1e-12)

    def test_three_levels_frozen_values(self):
        values = [geometric_level_budget(i, 2, 0.3) for i in range(3)]
        assert values == pytest.approx([0.123780, 0.098244, 0.077976], abs=1e-5)

    def test_against_numerical_kkt_solver(self):
        # independently minimize sum(2^(h-i) / eps_i^2) s.t. sum(eps_i) = eps
        scipy_opt = pytest.importorskip("scipy.optimize")
        h, eps = 2, 0.3
        weights = [2 ** (h - i) for i in range(h + 1)]

        def objective(x):
            return sum(w / v**2 for w, v in zip(weights, x))

        res = scipy_opt.minimize(
            objective,
            x0=[eps / (h + 1)] * (h + 1),
            constraints=[{"type": "eq", "fun": lambda x: sum(x) - eps}],
            bounds=[(1e-6, eps)] * (h + 1),
            tol=1e-14,
        )
        closed = [geometric_level_budget(i, h, eps) for i in range(h + 1)]
        assert list(res.x) == pytest.approx(closed, rel=1e-4)

    def test_sums_to_eps_up_to_height_30(self):
        for h in range(31):
            total = sum(geometric_level_budget(i, h, 0.123) for i in range(h + 1))
            assert abs(total - 0.123) < 1e-9

    def test_strictly_decreasing_in_level(self):
        values = [geometric_level_budget(i, 12, 1.0) for i in range(13)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            geometric_level_budget(5, 4, 1.0)

    def test_fanout_four(self):
        values = [geometric_level_budget(i, 3, 0.5, fanout=4) for i in range(4)]
        assert sum(values) == pytest.approx(0.5, abs=1e-12)
        assert values[0] > values[-1]


class TestNoiseSource:
    def test_substream_determinism(self):
        a = NoiseSource(99).substream("site", 3).laplace(1.0)
        b = NoiseSource(99).substream("site", 3).laplace(1.0)
        assert a == b

    def test_substream_independence(self):
        a = NoiseSource(99).substream("site", 3).laplace(1.0)
        b = NoiseSource(99).substream("site", 4).laplace(1.0)
        c = NoiseSource(99).substream("other", 3).laplace(1.0)
        assert len({a, b, c}) == 3

    def test_type_tagged_keys(self):
        a = NoiseSource(1).substream(5).laplace(1.0)
        b = NoiseSource(1).substream("5").laplace(1.0)
        assert a != b

    def test_choice_zero_noise_is_argmax(self):
        src = NoiseSource(0, zero_noise=True)
        assert src.choice_index(np.array([0.2, 0.5, 0.3])) == 1
        assert src.choice_index(np.array([0.4, 0.4, 0.2])) == 0


class TestBudgetLedger:
    def test_empty_ledger_valid(self):
        BudgetLedger().assert_valid(0.1)

    def test_rejects_nonpositive_charge(self):
        with pytest.raises(ValueError):
            BudgetLedger().charge("x", 0.0)

    def test_sequential_overflow_detected(self):
        ledger = BudgetLedger()
        ledger.charge("a", 0.08, path=(0,))
        ledger.charge("a", 0.08, path=(0,))
        with pytest.raises(BudgetOverflowError, match="0"):
            ledger.assert_valid(0.1)

    def test_nan_entry_is_an_overflow(self):
        # built through entries=, as a ledger read back from a file is
        ledger = BudgetLedger(entries=[("a", 0, (0,), 0.01, 1), ("b", 0, (0, 1), math.nan, 1)])
        with pytest.raises(BudgetOverflowError, match="0/1 charged nan"):
            ledger.assert_valid(0.1)
        with pytest.raises(BudgetOverflowError):
            BudgetLedger(entries=[("cells", 0, None, math.nan, 9)]).assert_valid(0.1)

    def test_nan_eps_total_is_an_overflow(self):
        ledger = BudgetLedger()
        ledger.charge("a", 0.01, path=(0,))
        with pytest.raises(BudgetOverflowError):
            ledger.assert_valid(math.nan)
        with pytest.raises(BudgetOverflowError):
            BudgetLedger().assert_valid(math.nan)

    def test_siblings_are_parallel(self):
        ledger = BudgetLedger()
        ledger.charge("a", 0.08, path=(0,))
        ledger.charge("a", 0.08, path=(1,))
        ledger.assert_valid(0.1)

    def test_chain_totals_prefix_sums(self):
        ledger = BudgetLedger()
        ledger.charge("root", 0.01, path=())
        ledger.charge("mid", 0.02, path=(0,))
        ledger.charge("leaf", 0.03, path=(0, 1))
        ledger.charge("leaf", 0.05, path=(1,))
        totals = ledger.chain_totals()
        assert totals[(0, 1)] == pytest.approx(0.06)
        assert totals[(1,)] == pytest.approx(0.06)

    def test_parallel_groups_count_once(self):
        ledger = BudgetLedger()
        ledger.charge_parallel("cells", 0.05, count=100)
        ledger.charge_parallel("subcells", 0.05, count=400)
        totals = ledger.chain_totals()
        assert totals[()] == pytest.approx(0.1)
        ledger.assert_valid(0.1)

    def test_save_format(self, tmp_path):
        ledger = BudgetLedger()
        ledger.charge("split-eval", 1e-4, path=(0, 1), level=3)
        ledger.charge_parallel("cell", 0.1, count=16)
        path = tmp_path / "ledger.csv"
        ledger.save(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "label,level,path,eps,sites"
        assert lines[1] == "split-eval,3,0/1,0.0001,1"
        assert lines[2] == "cell,0,*,0.1,16"
