import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dphist import baselines, privacy
from dphist.grid import FrequencyMatrix, generate_gaussian
from dphist.htf import HtfParams, estimate_height, release
from dphist.privacy import (
    CELL,
    COUNT,
    EM,
    MAX_PATH_DEPTH,
    SPLIT,
    BudgetLedger,
    BudgetOverflowError,
    NoiseSource,
    geometric_level_budget,
    path_code,
    philox_array,
    require_positive,
    site_counters,
)

import oracles
from oracles import chain_totals_by_prefix_slices

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
            lambda: estimate_height(FrequencyMatrix.zeros(2, 2), value, 1.0, src, ledger=BudgetLedger()),
            lambda: baselines.build_flat_uniform(FrequencyMatrix.zeros(2, 2), value, src),
            lambda: src.laplace(value, COUNT, 1, 0, 0),
            lambda: geometric_level_budget(0, 3, value),
            lambda: BudgetLedger().charge("x", value),
            lambda: BudgetLedger().charge_parallel("x", value, count=4),
        ):
            with pytest.raises(ValueError, match="must be positive and finite"):
                call()


class TestLaplaceSample:
    # the two single draws: htf's noisy total and flat-uniform's, each checking its budget first
    @staticmethod
    def single_draws(eps, src):
        matrix = FrequencyMatrix.zeros(2, 2)
        return (
            lambda: estimate_height(matrix, eps, 1.0, src, ledger=BudgetLedger()),
            lambda: baselines.build_flat_uniform(matrix, eps, src),
        )

    def test_rejects_bad_eps(self):
        src = NoiseSource(0)
        for call in self.single_draws(0.0, src) + self.single_draws(-1.0, src):
            with pytest.raises(ValueError):
                call()

    def test_rejects_bad_eps_even_in_zero_noise(self):
        src = NoiseSource(0, zero_noise=True)
        for call in self.single_draws(0.0, src):
            with pytest.raises(ValueError):
                call()

    def test_zero_noise_mode(self):
        src = NoiseSource(0, zero_noise=True)
        assert src.laplace(2.0 / 0.001, COUNT, 1, 0, 0) == 0.0

    def test_huge_eps_limit(self):
        src = NoiseSource(1)
        draws = [src.laplace(1.0 / 1e12, COUNT, i, 0, 0) for i in range(100)]
        assert max(abs(d) for d in draws) < 1e-9

    def test_moments(self):
        # scale b = sensitivity / eps = 2: mean 0, variance 2 b^2 = 8
        src = NoiseSource(2024).substream("moments")
        draws = src.laplace_array(2.0, site_counters(CELL, np.arange(1_000_000)))
        assert abs(draws.mean()) < 3 * 2.0 * math.sqrt(2) / 1000
        assert abs(draws.var() - 8.0) < 0.4

    def test_kolmogorov_smirnov(self):
        stats = pytest.importorskip("scipy.stats")
        src = NoiseSource(2025).substream("ks")
        draws = src.laplace_array(2.0, site_counters(CELL, np.arange(1_000_000)))
        assert stats.kstest(draws, "laplace", args=(0.0, 2.0)).pvalue > 1e-3

    @pytest.mark.parametrize("zero_noise", [False, True])
    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_array_rejects_a_bad_scale(self, zero_noise, scale):
        src = NoiseSource(0, zero_noise=zero_noise)
        sites = site_counters(COUNT, [1, 2, 3])
        for bad in (scale, [1.0, scale, 2.0]):
            with pytest.raises(ValueError, match=rf"^scale must be positive and finite, got {scale!r}$"):
                src.laplace_array(bad, sites)

    def test_site_must_be_four_words(self):
        with pytest.raises(ValueError, match="four words"):
            NoiseSource(0).laplace(1.0, COUNT, 1)

    @pytest.mark.parametrize("zero_noise", [False, True])
    @pytest.mark.parametrize("word", [1.5, -1, 2**64])
    def test_site_words_checked(self, zero_noise, word):
        # a cast truncates 1.5 onto the site (2, 1, 0, 0), and overflows or wraps the others
        with pytest.raises(ValueError, match=r"site words must be integers in \[0, 2\*\*64\)"):
            NoiseSource(0, zero_noise=zero_noise).laplace(1.0, COUNT, word, 0, 0)

    @pytest.mark.parametrize("zero_noise", [False, True])
    def test_counters_checked_in_both_modes(self, zero_noise):
        src = NoiseSource(0, zero_noise=zero_noise)
        with pytest.raises(ValueError, match="four words"):
            src.laplace_array(1.0, np.zeros((3, 3), dtype=np.uint64))
        with pytest.raises(ValueError, match="four words"):
            src.laplace(1.0, 1, 2)


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


def _philox_reference(counter, key) -> int:
    """numpy's Philox4x64-10 first word for ``counter``: numpy adds 1 to its counter before it encrypts."""
    value = (sum(int(word) << (64 * i) for i, word in enumerate(counter)) - 1) % 2**256
    before = np.array([(value >> (64 * i)) & (2**64 - 1) for i in range(4)], dtype=np.uint64)
    return int(np.random.Philox(counter=before, key=np.array(key, dtype=np.uint64)).random_raw())


def _random_words(rng, shape) -> np.ndarray:
    words = rng.integers(0, 2**64, size=shape, dtype=np.uint64, endpoint=False)
    words[: len(words) // 10] = 0  # counters of small words, as the release sites use
    words.flat[-4:] = 2**64 - 1
    return words


class TestPhilox:
    def test_scalar_and_array_match_numpy(self):
        # the scalar cipher is the reference one of the test oracles
        rng = np.random.default_rng(11)
        counters = _random_words(rng, (1200, 4))
        keys = rng.integers(0, 2**64, size=(1200, 2), dtype=np.uint64, endpoint=False)
        for counter, key in zip(counters, keys):
            expected = _philox_reference(counter, key)
            assert oracles.philox(counter.tolist(), key.tolist()) == expected
            assert int(philox_array(counter[None], key.tolist())[0]) == expected

    def test_array_matches_numpy_under_one_key(self):
        rng = np.random.default_rng(12)
        counters = _random_words(rng, (1000, 4))
        key = (0xDEADBEEF, 2**64 - 1)
        got = philox_array(counters, key)
        assert got.dtype == np.uint64
        assert got.tolist() == [_philox_reference(c, key) for c in counters]

    @pytest.mark.parametrize("layout", ["C", "column-major", "strided", "int64"])
    def test_kernel_blocks_and_layouts_match_the_reference(self, layout):
        # K around the kernel's block, every counter layout a caller may pass, against the reference cipher
        rng = np.random.default_rng(14)
        block = privacy._BLOCK
        src = NoiseSource(7).substream("blocks")
        for k in (0, 1, block - 1, block, block + 1, 2 * block + 3):
            words = rng.integers(0, 2**63, size=(k, 4), dtype=np.int64)
            counters = {
                "C": words.astype(np.uint64),
                "column-major": np.ascontiguousarray(words.T.astype(np.uint64)).T,
                "strided": np.repeat(words.astype(np.uint64), 3, axis=0)[::3],
                "int64": words,
            }[layout]
            got = philox_array(counters, src.key)
            assert got.dtype == np.uint64 and got.shape == (k,)
            rows = words.tolist()
            assert got.tolist() == [oracles.philox(c, src.key) for c in rows]
            if layout == "column-major":
                assert src.uniform_array(counters).tolist() == [oracles.uniform(src, *c) for c in rows]

    def test_rejects_bad_counters(self):
        with pytest.raises(ValueError):
            oracles.philox((1, 2, 3), (0, 0))
        with pytest.raises(ValueError):
            oracles.philox((1, 2, 3, 2**64), (0, 0))
        with pytest.raises(ValueError):
            philox_array(np.zeros((3, 3), dtype=np.uint64), (0, 0))

    @pytest.mark.parametrize("word", [1.5, -1, 2**64, np.array([0.0, 1.0]), [3, -2]],
                             ids=["float", "negative", "2**64", "float-array", "negative-in-list"])
    def test_site_counters_reject_a_bad_word(self, word):
        # a cast to uint64 truncates 1.5 onto the counter of 1, and overflows or wraps the others
        for args in ((COUNT, word), (COUNT, 1, word), (COUNT, [1, 2], 0, word), (word, 1)):
            with pytest.raises(ValueError, match=r"site words must be integers in \[0, 2\*\*64\)"):
                site_counters(*args)

    def test_site_counters_keep_every_word_below_2_to_the_64(self):
        sites = site_counters(COUNT, [0, 2**63 - 1], np.array([2**63, 2**64 - 1], dtype=np.uint64), 2**64 - 1)
        assert sites.tolist() == [[COUNT, 0, 2**63, 2**64 - 1], [COUNT, 2**63 - 1, 2**64 - 1, 2**64 - 1]]

    def test_scalar_and_array_draws_agree(self):
        # the package's one cipher against the reference one, a site at a time
        rng = np.random.default_rng(13)
        counters = _random_words(rng, (3000, 4))
        src = NoiseSource(5).substream("agree")
        words = philox_array(counters, src.key)
        assert words.tolist() == [oracles.philox(c, src.key) for c in counters.tolist()]
        assert src.uniform_array(counters).tolist() == [oracles.uniform(src, *c) for c in counters.tolist()]
        array = src.laplace_array(1.0, counters)
        scalar = np.array([oracles.laplace(src, 1.0, *c) for c in counters.tolist()])
        # both take the quantile through np.log: a site's draw does not depend on the cipher's form
        assert array.tolist() == scalar.tolist()
        assert [src.laplace(1.0, *c) for c in counters[:50].tolist()] == array[:50].tolist()

    def test_uniform_open_interval(self, monkeypatch):
        src = NoiseSource(0)
        assert 0.0 < src.uniform_array(site_counters(COUNT, 1))[0] < 1.0
        monkeypatch.setattr(privacy, "philox_array", lambda counters, key: np.array([0, 2**64 - 1], dtype=np.uint64))
        got = src.uniform_array(site_counters(COUNT, [1, 2]))
        # the top word's bin midpoint 1 - 2**-54 rounds to 1.0, so it is clamped to the float below 1
        assert got.tolist() == [2.0**-54, 1.0 - 2.0**-53] and got[1] < 1.0

    def test_top_word_draws_a_finite_laplace(self, monkeypatch):
        words = np.array([2**64 - 1, (2**53 - 2) << 11], dtype=np.uint64)
        monkeypatch.setattr(privacy, "philox_array", lambda counters, key: words.copy())
        got = NoiseSource(0).laplace_array(1.5, site_counters(COUNT, [1, 2]))
        # -log(2 - 2u) at u = 1 - 2**-53 and at 1 - 2**-52, the next bin down: 52 and 51 times log 2
        assert got.tolist() == [1.5 * -float(np.log(2.0**-52)), 1.5 * -float(np.log(2.0**-51))]
        assert [oracles.laplace_quantile(1.5, u) for u in (1.0 - 2.0**-53, 1.0 - 2.0**-52)] == got.tolist()

    def test_quantile_at_the_half(self, monkeypatch):
        # the top 53 bits 2**52 - 1 and 2**52 give the uniforms just below 1/2 and exactly 1/2 (0.5 + 2**52 rounds
        # to even), where the branch of the quantile, and the sign of a zero draw, are decided
        tops = [0, 1, 2**51, 2**52 - 2, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 3, 2**53 - 2]
        words = np.array([top << 11 | 0x5A5 for top in tops], dtype=np.uint64)
        monkeypatch.setattr(privacy, "philox_array", lambda counters, key: words.copy())
        got = NoiseSource(0).laplace_array(1.5, site_counters(COUNT, np.arange(len(tops))))
        want = [oracles.laplace_quantile(1.5, (top + 0.5) * 2.0**-53) for top in tops]
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]

    def test_array_scale_per_site(self):
        src = NoiseSource(3)
        sites = site_counters(COUNT, [5, 6, 7])
        unit = src.laplace_array(1.0, sites)
        assert src.laplace_array([1.0, 2.0, 0.5], sites).tolist() == (unit * [1.0, 2.0, 0.5]).tolist()


class TestPathCode:
    def test_injective_to_depth_8(self):
        codes = set()
        count = 0
        for depth in range(9):
            for path in itertools.product(range(4), repeat=depth):
                codes.add(path_code(path))
                count += 1
        assert len(codes) == count == sum(4**d for d in range(9))
        assert max(codes) < 2**64

    def test_depth_limit(self):
        assert path_code((3,) * MAX_PATH_DEPTH) < 2**64
        with pytest.raises(ValueError, match="deeper"):
            path_code((0,) * 32)

    def test_child_index_range(self):
        with pytest.raises(ValueError):
            path_code((4,))
        with pytest.raises(ValueError):
            path_code((-1,))


class TestNoiseSource:
    def test_substream_determinism(self):
        a = NoiseSource(99).substream("site", 3).laplace(1.0, CELL, 0, 0, 0)
        b = NoiseSource(99).substream("site", 3).laplace(1.0, CELL, 0, 0, 0)
        assert a == b

    def test_substream_independence(self):
        a = NoiseSource(99).substream("site", 3).laplace(1.0, CELL, 0, 0, 0)
        b = NoiseSource(99).substream("site", 4).laplace(1.0, CELL, 0, 0, 0)
        c = NoiseSource(99).substream("other", 3).laplace(1.0, CELL, 0, 0, 0)
        assert len({a, b, c}) == 3

    def test_type_tagged_keys(self):
        a = NoiseSource(1).substream(5).laplace(1.0, CELL, 0, 0, 0)
        b = NoiseSource(1).substream("5").laplace(1.0, CELL, 0, 0, 0)
        assert a != b

    def test_key_is_seed_sequence_state(self):
        src = NoiseSource(42).substream("ug")
        state = np.random.SeedSequence(entropy=42, spawn_key=src._spawn_key).generate_state(2, np.uint64)
        assert src.key == tuple(int(w) for w in state)

    def test_choice_zero_noise_is_argmax(self):
        src = NoiseSource(0, zero_noise=True)
        probs = [np.array([0.2, 0.5, 0.3]), np.array([0.4, 0.4, 0.2])]
        assert baselines.exponential_mechanism_choices(probs, src, site_counters(EM, [1, 2])) == [1, 0]

    def test_choice_is_inverse_cdf_of_the_site_uniform(self):
        src = NoiseSource(4)
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        sites = site_counters(EM, np.arange(200))
        expected = np.searchsorted(np.cumsum(probs), src.uniform_array(sites), side="right").tolist()
        assert baselines.exponential_mechanism_choices([probs] * 200, src, sites) == expected

    def test_zero_noise_array(self):
        assert NoiseSource(0, zero_noise=True).laplace_array(5.0, site_counters(CELL, [1, 2])).tolist() == [0.0, 0.0]

    def test_sibling_draws_uncorrelated(self):
        # Bound fixed before the first run: five standard errors of the
        # sample correlation of n independent pairs, 5 / sqrt(n).
        n = 200_000
        bound = 5.0 / math.sqrt(n)
        src = NoiseSource(31).substream("siblings")
        parents = 4**9 + np.arange(n, dtype=np.uint64)  # path codes of depth-9 nodes
        children = [src.laplace_array(1.0, site_counters(COUNT, parents << np.uint64(2) | np.uint64(c)))
                    for c in range(4)]
        pairs = list(itertools.combinations(children, 2))
        pairs.append((src.laplace_array(1.0, site_counters(COUNT, parents)), children[0]))
        cells = np.arange(n)
        pairs.append((src.laplace_array(1.0, site_counters(CELL, cells // 512, cells % 512)),
                      src.laplace_array(1.0, site_counters(CELL, cells // 512, cells % 512 + 1))))
        pairs.append((src.laplace_array(1.0, site_counters(SPLIT, parents, 0)),
                      src.laplace_array(1.0, site_counters(SPLIT, parents, 1))))
        for a, b in pairs:
            assert abs(np.corrcoef(a, b)[0, 1]) < bound


METHODS_64 = {
    "htf": lambda m, ns: release(m, HtfParams(eps_total=0.5, stop_count=20.0), ns),
    "ug": lambda m, ns: baselines.build_uniform_grid(m, 0.5, ns),
    "ag": lambda m, ns: baselines.build_adaptive_grid(m, 0.5, ns),
    "quadtree": lambda m, ns: baselines.build_quadtree(m, 0.5, 5, ns),
    "kdtree": lambda m, ns: baselines.build_kdtree(m, 0.5, 8, ns),
    "singular": lambda m, ns: baselines.build_singular(m, 0.5, ns),
    "uniform": lambda m, ns: baselines.build_flat_uniform(m, 0.5, ns),
}


@pytest.mark.parametrize("method", METHODS_64)
def test_release_draws_each_counter_once(monkeypatch, method):
    drawn = []
    array = privacy.philox_array

    def traced_array(counters, key):
        drawn.extend((tuple(key), tuple(row)) for row in np.asarray(counters, dtype=np.uint64).tolist())
        return array(counters, key)

    def no_generator(self):
        pytest.fail("a release drew from NoiseSource.generator")

    monkeypatch.setattr(privacy, "philox_array", traced_array)
    monkeypatch.setattr(NoiseSource, "generator", property(no_generator))
    matrix = generate_gaussian(20_000, 8.0, 64, 64, seed=2)
    METHODS_64[method](matrix, NoiseSource(6))
    assert drawn
    assert len(set(drawn)) == len(drawn)


def _count_cipher_calls(monkeypatch):
    calls = {"philox_array": 0, "rows": 0, "laplace": 0}
    array, laplace = privacy.philox_array, NoiseSource.laplace

    def traced_array(counters, key):
        calls["philox_array"] += 1
        calls["rows"] += len(counters)
        return array(counters, key)

    def traced_laplace(self, scale, *site):
        calls["laplace"] += 1
        return laplace(self, scale, *site)

    monkeypatch.setattr(privacy, "philox_array", traced_array)
    monkeypatch.setattr(NoiseSource, "laplace", traced_laplace)
    return calls


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_htf_draws_each_level_in_at_most_three_calls(monkeypatch, seed):
    calls = _count_cipher_calls(monkeypatch)
    matrix = generate_gaussian(100_000, 20.0, 256, 256, seed=seed)
    hist = release(matrix, HtfParams(eps_total=0.5, stop_count=20.0), NoiseSource(seed))
    levels = 1 + max(len(e[2]) for e in hist.ledger.entries)
    assert levels > 5
    assert calls["laplace"] == 1  # the height estimate
    assert calls["philox_array"] <= 1 + 3 * levels


@pytest.mark.parametrize("height", [4, 8, 12])
def test_kdtree_draws_each_level_in_one_call(monkeypatch, height):
    calls = _count_cipher_calls(monkeypatch)
    matrix = generate_gaussian(20_000, 8.0, 64, 64, seed=2)
    hist = baselines.build_kdtree(matrix, 0.5, height, NoiseSource(6))
    assert calls["laplace"] == 0
    assert calls["philox_array"] <= height + 1
    # every split and every node count is drawn through it
    labels = [e[0] for e in hist.ledger.entries]
    assert calls["rows"] == labels.count("em-split") + labels.count("node-count")


class TestBudgetLedger:
    def test_empty_ledger_valid(self):
        BudgetLedger().assert_valid(0.1)

    def test_rejects_nonpositive_charge(self):
        with pytest.raises(ValueError):
            BudgetLedger().charge("x", 0.0)

    def test_sequential_overflow_detected(self):
        ledger = BudgetLedger()
        ledger.charge("a", 0.08, code=path_code((0,)))
        ledger.charge("a", 0.08, code=path_code((0,)))
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
        ledger.charge("a", 0.01, code=path_code((0,)))
        with pytest.raises(BudgetOverflowError):
            ledger.assert_valid(math.nan)
        with pytest.raises(BudgetOverflowError):
            BudgetLedger().assert_valid(math.nan)

    def test_siblings_are_parallel(self):
        ledger = BudgetLedger()
        ledger.charge("a", 0.08, code=path_code((0,)))
        ledger.charge("a", 0.08, code=path_code((1,)))
        ledger.assert_valid(0.1)

    def test_chain_totals_prefix_sums(self):
        ledger = BudgetLedger()
        ledger.charge("root", 0.01, code=path_code(()))
        ledger.charge("mid", 0.02, code=path_code((0,)))
        ledger.charge("leaf", 0.03, code=path_code((0, 1)))
        ledger.charge("leaf", 0.05, code=path_code((1,)))
        totals = ledger.chain_totals()
        assert totals[path_code((0, 1))] == pytest.approx(0.06)
        assert totals[path_code((1,))] == pytest.approx(0.06)

    def test_parallel_groups_count_once(self):
        ledger = BudgetLedger()
        ledger.charge_parallel("cells", 0.05, count=100)
        ledger.charge_parallel("subcells", 0.05, count=400)
        totals = ledger.chain_totals()
        assert totals[path_code(())] == pytest.approx(0.1)
        ledger.assert_valid(0.1)

    def test_tolerance_is_a_share_of_the_budget(self):
        ledger = BudgetLedger()
        ledger.charge("a", 5e-10)
        with pytest.raises(BudgetOverflowError, match="<root> charged 5e-10"):
            ledger.assert_valid(1e-12)  # 500 times its budget, though within 1e-9 of it
        ledger.assert_valid(5e-10 / (1 + 0.5 * privacy.EPS_TOL))

    def test_entries_round_trip_and_save_the_same_bytes(self, tmp_path):
        matrix = generate_gaussian(20_000, 8.0, 64, 64, seed=1)
        htf_hist = release(matrix, HtfParams(eps_total=0.5), NoiseSource(1))
        for hist in (htf_hist, baselines.build_adaptive_grid(matrix, 0.5, NoiseSource(1))):  # ag adds parallel groups
            copy = BudgetLedger(entries=hist.ledger.entries)
            assert copy.entries == hist.ledger.entries
            hist.ledger.save(tmp_path / "a.csv")
            copy.save(tmp_path / "b.csv")
            assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_path_column_names_the_codes_child_indices(self, tmp_path):
        # every child index at every depth a path code holds
        paths = [tuple((i + j) % 4 for j in range(depth)) for depth in range(MAX_PATH_DEPTH + 1) for i in range(4)]
        ledger = BudgetLedger()
        ledger.charge_many("count", np.full(len(paths), 0.1), codes=[path_code(p) for p in paths], levels=np.zeros(len(paths), int))
        ledger.save(tmp_path / "ledger.csv")
        rows = (tmp_path / "ledger.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["/".join(map(str, path)) for path in paths]
        assert [e[2] for e in ledger.entries] == paths

    def test_save_format(self, tmp_path):
        ledger = BudgetLedger()
        ledger.charge("split-eval", 1e-4, code=path_code((0, 1)), level=3)
        ledger.charge_parallel("cell", 0.1, count=16)
        path = tmp_path / "ledger.csv"
        ledger.save(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "label,level,path,eps,sites"
        assert lines[1] == "split-eval,3,0/1,0.0001,1"
        assert lines[2] == "cell,0,*,0.1,16"


class TestChargeMany:
    def test_appends_one_charge_per_path_in_order(self):
        bulk, single = BudgetLedger(), BudgetLedger()
        paths, levels, eps = [(), (0,), (0, 1), (1,)], [2, 1, 0, 1], [0.1, 0.2, 0.3, 0.4]
        bulk.charge_many("count", np.array(eps), codes=[path_code(p) for p in paths], levels=np.array(levels))
        for path, level, e in zip(paths, levels, eps):
            single.charge("count", e, code=path_code(path), level=level)
        assert bulk.entries == single.entries
        assert all(type(e[1]) is int and type(e[3]) is float for e in bulk.entries)

    @pytest.mark.parametrize("value", BAD_BUDGETS)
    def test_rejects_a_bad_eps_and_charges_nothing(self, value):
        ledger = BudgetLedger()
        with pytest.raises(ValueError, match=rf"^charge must be positive and finite, got {value!r}$"):
            ledger.charge_many("count", [0.1, value, 0.2], codes=[1, 4, 5], levels=[1, 0, 0])
        assert ledger.entries == []

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="2 charges with 1 codes"):
            BudgetLedger().charge_many("count", [0.1, 0.2], codes=[1], levels=[0, 0])


tree_paths = st.lists(st.integers(0, 3), max_size=MAX_PATH_DEPTH).map(tuple)


@st.composite
def random_ledgers(draw):
    """Charges, parallel groups and zero-cost rows at paths of up to five (or 31) levels, many of them repeated."""
    short = st.lists(st.integers(0, 3), max_size=5).map(tuple)
    paths = draw(st.lists(st.one_of(short, tree_paths), min_size=1, max_size=12))
    ledger = BudgetLedger()
    for _ in range(draw(st.integers(0, 60))):
        kind = draw(st.sampled_from(["charge", "charge", "charge", "parallel", "zero"]))
        eps = draw(st.floats(1e-6, 1.0))
        if kind == "parallel":
            ledger.charge_parallel("cells", eps, count=draw(st.integers(1, 9)))
        elif kind == "zero":  # a zero-cost row, as a ledger file may hold
            ledger = BudgetLedger(entries=[*ledger.entries, ("warn", 0, draw(st.sampled_from(paths)), 0.0, 1)])
        else:
            ledger.charge("count", eps, code=path_code(draw(st.sampled_from(paths))), level=draw(st.integers(0, 5)))
    return ledger


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.lists(st.integers(0, 3), max_size=3).map(tuple), tree_paths), max_size=30))
def test_codes_sorted_by_their_digits_are_paths_in_tuple_order(paths):
    # the order tree.grow puts nodes and ledger rows in: a path before its extensions, siblings in child order
    assert sorted(map(path_code, paths), key=bin) == list(map(path_code, sorted(paths)))


class TestChainTotalsAgainstPrefixSlices:
    @settings(max_examples=300, deadline=None)
    @given(random_ledgers(), st.floats(0.0, 1.0))
    def test_same_paths_order_and_bits(self, ledger, fraction):
        expected = chain_totals_by_prefix_slices(ledger)
        got = ledger.chain_totals()
        assert list(got) == [path_code(path) for path in expected]
        assert [t.hex() for t in got.values()] == [t.hex() for t in expected.values()]

        # assert_valid names the first path over the budget, in that order
        eps_total = fraction * max(expected.values())
        over = [path for path, total in expected.items() if not total <= eps_total * (1 + privacy.EPS_TOL)]
        if not over:
            ledger.assert_valid(eps_total)
            return
        with pytest.raises(BudgetOverflowError) as info:
            ledger.assert_valid(eps_total)
        assert str(info.value).startswith(f"path {'/'.join(map(str, over[0])) or '<root>'} charged ")
