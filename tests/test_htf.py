import gc
import math
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dphist import baselines, kernels
from dphist.grid import FrequencyMatrix, generate_gaussian
from dphist.histogram import PrivateHistogram
from dphist.htf import (
    HEIGHT,
    NODE_COUNT,
    PRUNE_TOPUP,
    SPLIT,
    HtfParams,
    _quartering_search,
    build_partitioning,
    estimate_height,
    perturb_and_prune,
    release,
    split_level,
)
from dphist.privacy import BudgetLedger, NoiseSource, path_code
from dphist.tree import PARTITION_RESERVED, Node

from oracles import (
    guillotine_tiling,
    noisy_split_baseline,
    objective_argmins_exact,
    objective_value,
    optimal_split_exact,
    path_of,
    perturb_and_prune_two_mode,
    preorder,
    quartering_search,
    release_two_mode,
)

# 3x3 worked-example grid; left two columns form the homogeneous block
# whose row splits score 0, 6 and 8.
FIG_GRID = np.array([[0, 0, 4], [3, 3, 1], [3, 3, 1]])
B1 = np.array([[0, 0], [3, 3], [3, 3]])


def zero_noise():
    return NoiseSource(0, zero_noise=True)


def split_objective(block, k, axis):
    """``kernels.objective_at`` of the whole ``block`` split after ``k`` rows ("y") or columns ("x")."""
    return kernels.objective_at(np.asarray(block), 0, len(block), 0, len(block[0]), k, axis == "y")


def searched_split(block, axis, level_budget, search_iters, noise):
    """The split index ``split_level`` searches for a one-node level on ``block``, cut along ``axis``.

    The node's height picks the axis: rows at an even height, columns at an odd one.
    """
    root = Node((0, len(block), 0, len(block[0])), 2 if axis == "y" else 1)
    split_level([root], FrequencyMatrix(block), level_budget, search_iters, noise, BudgetLedger())
    r0, r1, c0, c1 = root.children[0].bounds
    return r1 - r0 if axis == "y" else c1 - c0


class TestSplitObjective:
    def test_worked_example_values(self):
        assert split_objective(B1, 1, "y") == 0.0
        assert split_objective(B1, 2, "y") == 6.0
        assert split_objective(B1, 3, "y") == 8.0

    def test_constant_matrix_is_zero(self):
        block = np.full((5, 4), 7)
        for k in range(1, 6):
            assert split_objective(block, k, "y") == 0.0
        for k in range(1, 5):
            assert split_objective(block, k, "x") == 0.0

    def test_column_axis_transposes(self):
        rng = np.random.default_rng(0)
        block = rng.integers(0, 9, size=(5, 7))
        for k in range(1, 8):
            assert split_objective(block, k, "x") == pytest.approx(
                split_objective(block.T, k, "y")
            )

    def test_index_out_of_range(self):
        objective = kernels.LevelObjective(FrequencyMatrix(B1), [(0, 3, 0, 2)], True)
        with pytest.raises(ValueError):
            objective([0])
        with pytest.raises(ValueError):
            objective([4])

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            block = rng.integers(0, 10, size=(rng.integers(2, 8), rng.integers(2, 8)))
            for axis, extent in (("y", block.shape[0]), ("x", block.shape[1])):
                for k in range(1, extent + 1):
                    assert split_objective(block, k, axis) == pytest.approx(
                        objective_value(block.tolist(), k, axis == "y")
                    )


class TestSensitivityBound:
    def test_single_record_changes_objective_by_at_most_two(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            u = int(rng.integers(2, 9))
            v = int(rng.integers(2, 9))
            block = rng.integers(0, 6, size=(u, v))
            base = {
                ("y", k): split_objective(block, k, "y") for k in range(1, u + 1)
            }
            base.update({("x", k): split_objective(block, k, "x") for k in range(1, v + 1)})
            i = int(rng.integers(0, u))
            j = int(rng.integers(0, v))
            for delta in (+1, -1):
                if delta < 0 and block[i, j] == 0:
                    continue
                changed = block.copy()
                changed[i, j] += delta
                for (axis, k), value in base.items():
                    diff = abs(split_objective(changed, k, axis) - value)
                    assert diff <= 2.0 + 1e-9
                    # tighter bound when the change lands in the first cluster
                    in_first = i < k if axis == "y" else j < k
                    if delta > 0 and in_first:
                        width = v if axis == "y" else u
                        assert diff <= 2.0 * (k * width - 1) / (k * width) + 1e-9


class TestOptimalSplitExact:
    def test_worked_example(self):
        assert optimal_split_exact(B1, "y") == 1

    def test_constant_matrix_tie_break(self):
        assert optimal_split_exact(np.full((6, 3), 2), "y") == 1

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            block = rng.integers(0, 12, size=(8, 8))
            for axis, row_split in (("y", True), ("x", False)):
                got = optimal_split_exact(block, axis)
                # exhaustive scan over the objective op, smallest index first
                values = [split_objective(block, k, axis) for k in range(1, 8)]
                assert got == int(np.argmin(values)) + 1
                # exact-arithmetic oracle pins the index whenever unique
                exact = objective_argmins_exact(block.tolist(), row_split)
                if len(exact) == 1:
                    assert got == exact[0]
                else:
                    assert got in exact

    def test_unsplittable(self):
        with pytest.raises(ValueError):
            optimal_split_exact(np.array([[1, 2, 3]]), "y")


class TestNoisySplitBaseline:
    def test_zero_noise_limit_equals_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            block = rng.integers(0, 15, size=(9, 5))
            got = noisy_split_baseline(block, "y", 1e9, NoiseSource(3, zero_noise=True))
            assert got == optimal_split_exact(block, "y")

    def test_charges_full_level_budget(self):
        ledger = BudgetLedger()
        block = np.arange(28).reshape(7, 4)
        noisy_split_baseline(block, "y", 6e-3, NoiseSource(1), ledger=ledger, path=(0,))
        evals = [e for e in ledger.entries if e[0] == SPLIT]
        assert len(evals) == 6  # extent - 1 candidates
        assert sum(e[3] for e in evals) == pytest.approx(6e-3)

    def test_selection_distribution_matches_direct_simulation(self):
        # same noise law applied directly to the exact objective vector
        block = np.random.default_rng(12).integers(0, 8, size=(16, 16))
        exact = np.array([objective_value(block.tolist(), k, True) for k in range(1, 16)])
        runs = 1500
        eps_level = 0.3
        eps_eval = eps_level / 15
        picks = np.zeros(15)
        for r in range(runs):
            k = noisy_split_baseline(block, "y", eps_level, NoiseSource(r))
            picks[k - 1] += 1
        oracle_rng = np.random.default_rng(999)
        oracle = np.zeros(15)
        for _ in range(runs):
            noisy = exact + oracle_rng.laplace(0.0, 2.0 / eps_eval, size=15)
            oracle[np.argmin(noisy)] += 1
        tv_distance = 0.5 * np.abs(picks / runs - oracle / runs).sum()
        assert tv_distance < 0.1


class TestGetSplitPoint:
    def test_one_level_budget_charge_per_split(self):
        ledger = BudgetLedger()
        matrix = FrequencyMatrix(np.random.default_rng(0).integers(0, 9, size=(32, 32)))
        root = build_partitioning(matrix, 3, 7e-3, 3, NoiseSource(0), ledger)
        splits = [e for e in ledger.entries if e[0] == SPLIT]
        inner = [node for node in preorder(root) if not node.is_leaf]
        assert len(inner) == 7
        assert [path_code(e[2]) for e in splits] == [node.code for node in inner]
        assert all(e[3] == 7e-3 for e in splits)

    def test_zero_noise_finds_unimodal_minimum(self):
        # two homogeneous bands produce a V-shaped objective over k
        for boundary in (3, 5, 9, 12):
            block = np.vstack(
                [np.full((boundary, 6), 1), np.full((16 - boundary, 6), 9)]
            )
            got = searched_split(block, "y", 1.0, 8, zero_noise())
            assert got == optimal_split_exact(block, "y") == boundary

    def test_returned_index_always_splittable(self):
        rng = np.random.default_rng(4)
        for trial in range(50):
            u = int(rng.integers(2, 40))
            block = rng.integers(0, 20, size=(u, 3))
            k = searched_split(block, "y", 1e-3, 3, NoiseSource(trial))
            assert 1 <= k <= u - 1


@st.composite
def search_cases(draw):
    """Blocks of a random tiling with an axis of two or more cells, their counts, and the draws of their searches."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(2, 12))
    blocks = [b for b in guillotine_tiling(draw, rows, cols, limit=12) if max(b[1] - b[0], b[3] - b[2]) >= 2]
    assume(blocks)
    top = draw(st.sampled_from([0, 1, 3, 20]))
    counts = np.reshape(draw(st.lists(st.integers(0, top), min_size=rows * cols, max_size=rows * cols)), (rows, cols))
    axes = [draw(st.sampled_from([a for a, n in (("y", r1 - r0), ("x", c1 - c0)) if n >= 2]))
            for r0, r1, c0, c1 in blocks]
    evals = 2 * draw(st.integers(1, 4)) + 1
    scale = draw(st.sampled_from([0.0, 0.5, 5.0, 50.0]))  # 0: no noise, where every tie falls to the tie rule
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    draws = np.round(rng.laplace(0.0, 1.0, size=(len(blocks), evals)) * scale, draw(st.sampled_from([0, 6])))
    return counts, blocks, axes, draws


class TestLevelSearch:
    @settings(max_examples=300, deadline=None)
    @given(search_cases())
    def test_matches_the_search_of_each_block(self, case):
        counts, blocks, axes, draws = case
        objective = kernels.LevelObjective(FrequencyMatrix(counts), blocks, [axis == "y" for axis in axes])
        got = _quartering_search(objective, draws)
        assert got.tolist() == [quartering_search(counts, *node) for node in zip(blocks, axes, draws.tolist())]

    def test_ties_go_to_the_centre_then_the_lower_quarter(self):
        flat = np.full((9, 2), 4)
        assert searched_split(flat, "y", 1.0, 3, zero_noise()) == 5  # every value 0: the centre stays
        # rows read the same both ways: quarters 3 and 7 tie, below the centre 5
        block = np.repeat([[9], [9], [9], [0], [0], [0], [0], [9], [9], [9]], 2, axis=1)
        assert split_objective(block, 3, "y") == split_objective(block, 7, "y") < split_objective(block, 5, "y")
        assert searched_split(block, "y", 1.0, 1, zero_noise()) == 3
        assert quartering_search(block, (0, 10, 0, 2), "y", [0.0] * 3) == 3

    def test_total_past_the_int64_bound_is_rejected(self):
        with pytest.raises(ValueError, match=r"2\^63"):
            searched_split(np.array([[2**61, 0], [0, 0]]), "y", 1.0, 3, zero_noise())


class TestEstimateHeight:
    def make_matrix(self, total):
        side = 1024
        counts = np.zeros((side, side), dtype=np.int64)
        counts[0, 0] = total
        return FrequencyMatrix(counts)

    def test_reported_heights(self):
        matrix = self.make_matrix(3_500_000)
        for eps_total, expected in ((0.1, 15), (0.3, 16), (0.5, 17)):
            got = estimate_height(matrix, 1e-4, eps_total, zero_noise(), ledger=BudgetLedger())
            assert got == expected

    def test_budget_charged(self):
        ledger = BudgetLedger()
        estimate_height(self.make_matrix(1000), 1e-4, 0.1, zero_noise(), ledger=ledger)
        assert ledger.total_by_label(HEIGHT) == pytest.approx(1e-4)

    def test_small_data_clamps_to_one(self):
        matrix = self.make_matrix(50)
        assert estimate_height(matrix, 1e-4, 0.1, zero_noise(), ledger=BudgetLedger()) == 1

    def test_scale_epsilon_exchangeability(self):
        a = estimate_height(self.make_matrix(1_000_000), 1e-4, 0.2, zero_noise(), ledger=BudgetLedger())
        b = estimate_height(self.make_matrix(2_000_000), 1e-4, 0.1, zero_noise(), ledger=BudgetLedger())
        assert a == b

    def test_clamped_to_grid_capacity(self):
        counts = np.zeros((4, 4), dtype=np.int64)
        counts[0, 0] = 10**9
        got = estimate_height(FrequencyMatrix(counts), 1e-4, 1.0, zero_noise(), ledger=BudgetLedger())
        assert got == 4  # log2(16)


class TestBuildPartitioning:
    def test_single_cell_root(self):
        matrix = FrequencyMatrix(np.array([[5]]))
        ledger = BudgetLedger()
        root = build_partitioning(matrix, 4, 1e-3, 3, zero_noise(), ledger)
        assert root.is_leaf
        assert ledger.total_by_label(PARTITION_RESERVED) == pytest.approx(4e-3)

    def test_worked_example_structure(self):
        matrix = FrequencyMatrix(FIG_GRID)
        ledger = BudgetLedger()
        root = build_partitioning(matrix, 3, 5e-4, 3, zero_noise(), ledger)
        # odd root height: column split peels off the right column
        assert root.left.bounds == (0, 3, 0, 2)
        assert root.right.bounds == (0, 3, 2, 3)
        # the homogeneous block separates its zero row
        assert root.left.left.bounds == (0, 1, 0, 2)
        assert root.left.right.bounds == (1, 3, 0, 2)
        # the right column separates its dense top cell
        assert root.right.left.bounds == (0, 1, 2, 3)
        assert root.right.right.bounds == (1, 3, 2, 3)
        assert root.left.count == 12 and root.right.count == 6

    def test_leaves_tile_domain(self):
        rng = np.random.default_rng(21)
        matrix = FrequencyMatrix(rng.integers(0, 30, size=(64, 64)))
        root = build_partitioning(matrix, 4, 1e-3, 3, NoiseSource(9), BudgetLedger())
        paint = np.zeros((64, 64), dtype=int)

        def walk(node):
            if node.is_leaf:
                r0, r1, c0, c1 = node.bounds
                paint[r0:r1, c0:c1] += 1
            else:
                walk(node.left)
                walk(node.right)

        walk(root)
        assert (paint == 1).all()

    def test_axis_alternates_with_fallback(self):
        # a 1xN root cannot split rows at even height; falls back to columns
        matrix = FrequencyMatrix(np.arange(8).reshape(1, 8))
        root = build_partitioning(matrix, 2, 1e-3, 2, zero_noise(), BudgetLedger())
        assert not root.is_leaf
        r0, r1, c0, c1 = root.left.bounds
        assert c1 - c0 < 8


class TestPerturbAndPrune:
    @staticmethod
    def split_root(matrix, height, noise, ledger):
        # as release starts the walk: the root split, or a height-0 leaf when it cannot be
        root = Node((0, matrix.rows, 0, matrix.cols), height, count=matrix.total)
        if not split_level([root], matrix, 5e-4, 3, noise, ledger):
            root.height = 0
        return root

    def walk_fig_tree(self, noise, ledger):
        matrix = FrequencyMatrix(FIG_GRID)
        root = self.split_root(matrix, 3, noise, ledger)
        return perturb_and_prune(root, matrix, 0.09, 5e-4, 3, 7.0, 1, noise, ledger)

    def test_prune_on_count_stop(self):
        # the right column holds 6 points; a count stop of 7 prunes it whole
        ledger = BudgetLedger()
        leaves = self.walk_fig_tree(zero_noise(), ledger)
        regions = {r for r, _ in leaves}
        assert (0, 3, 2, 3) in regions

    def test_zero_noise_counts_are_exact(self):
        ledger = BudgetLedger()
        matrix = FrequencyMatrix(FIG_GRID)
        leaves = self.walk_fig_tree(zero_noise(), ledger)
        for region, ncount in leaves:
            assert ncount == matrix.region_sums([region])[0]

    def test_single_node_tree_gets_full_data_budget(self):
        matrix = FrequencyMatrix(np.array([[9]]))
        ledger = BudgetLedger()
        root = self.split_root(matrix, 3, zero_noise(), ledger)
        leaves = perturb_and_prune(root, matrix, 0.05, 5e-4, 3, 1.0, 1, zero_noise(), ledger)
        assert leaves == [((0, 1, 0, 1), 9.0)]
        charges = [e for e in ledger.entries if e[0] == NODE_COUNT]
        assert len(charges) == 1 and charges[0][3] == pytest.approx(0.05)

    def test_pruned_path_budget_totals(self):
        ledger = BudgetLedger()
        self.walk_fig_tree(NoiseSource(5), ledger)
        data = ledger.total_by_label(NODE_COUNT) + ledger.total_by_label(PRUNE_TOPUP)
        assert data > 0
        for total in ledger.chain_totals().values():
            # splits: 3 levels of 5e-4 each; data: 0.09 per path
            assert total == pytest.approx(3 * 5e-4 + 0.09, abs=1e-9)


class TestRelease:
    def test_budget_subtraction_example(self):
        counts = np.zeros((1024, 1024), dtype=np.int64)
        counts[0, 0] = 3_500_000
        matrix = FrequencyMatrix(counts)
        params = HtfParams(
            eps_total=0.1, eps_partition_level=5e-4, eps_height=1e-4, height_override=15
        )
        hist = release(matrix, params, zero_noise())
        # the ledger is the budget record: on every path the structure takes 15 x 5e-4, the data the rest
        for leaf in map(path_of, hist.ledger.chain_totals()):
            on_path = [e for e in hist.ledger.entries if e[2] == leaf[: len(e[2])]]
            structure = sum(e[3] for e in on_path if e[0] in (SPLIT, PARTITION_RESERVED))
            data = sum(e[3] for e in on_path if e[0] in (NODE_COUNT, PRUNE_TOPUP))
            assert structure == pytest.approx(0.0075)
            assert data == pytest.approx(0.0924)

    def test_a_node_pruned_on_a_tiny_data_budget_is_topped_up(self):
        params = HtfParams(
            eps_total=1e-12, eps_height=1e-13, eps_partition_level=1e-14, height_override=6, stop_count=1e30
        )
        hist = release(generate_gaussian(20_000, 8.0, 64, 64, seed=1), params, NoiseSource(1))
        assert [e[0] for e in hist.ledger.entries].count(PRUNE_TOPUP) == 1  # the root, pruned
        totals = hist.ledger.chain_totals()
        assert totals and all(total == pytest.approx(1e-12, rel=1e-9) for total in totals.values())

    def test_no_data_budget_raises_before_work(self):
        matrix = FrequencyMatrix.zeros(8, 8)
        params = HtfParams(
            eps_total=0.01, eps_partition_level=1e-3, eps_height=1e-4, height_override=10
        )
        with pytest.raises(ValueError, match="data budget"):
            release(matrix, params, zero_noise())

    def test_zero_noise_counts_match_truth(self):
        rng = np.random.default_rng(17)
        matrix = FrequencyMatrix(rng.integers(0, 40, size=(32, 32)))
        params = HtfParams(eps_total=0.5, height_override=4, stop_count=50.0)
        hist = release(matrix, params, zero_noise())
        assert np.array_equal(hist.ncounts, matrix.region_sums(hist.bounds))

    def test_released_leaves_tile_domain(self):
        rng = np.random.default_rng(13)
        matrix = FrequencyMatrix(rng.integers(0, 25, size=(64, 48)))
        params = HtfParams(eps_total=0.3, height_override=5)
        hist = release(matrix, params, NoiseSource(2))
        hist.validate_cover()

    def test_fixed_seed_reproducible(self):
        matrix = FrequencyMatrix(np.random.default_rng(3).integers(0, 30, size=(32, 32)))
        params = HtfParams(eps_total=0.2, height_override=4)
        a = release(matrix, params, NoiseSource(77))
        b = release(matrix, params, NoiseSource(77))
        assert np.array_equal(a.bounds, b.bounds)
        assert np.array_equal(a.ncounts, b.ncounts)

    def test_different_seeds_differ(self):
        matrix = FrequencyMatrix(np.random.default_rng(3).integers(0, 30, size=(32, 32)))
        params = HtfParams(eps_total=0.2, height_override=4)
        a = release(matrix, params, NoiseSource(1))
        b = release(matrix, params, NoiseSource(2))
        assert not (np.array_equal(a.bounds, b.bounds) and np.array_equal(a.ncounts, b.ncounts))

    def test_total_mode_exact_path_accounting(self):
        rng = np.random.default_rng(31)
        matrix = FrequencyMatrix(rng.integers(0, 50, size=(64, 64)))
        for h in (3, 6, 10):
            params = HtfParams(
                eps_total=0.5, eps_partition=0.1, eps_height=1e-3,
                height_override=h, stop_count=40.0, stop_cells=4,
            )
            hist = release(matrix, params, NoiseSource(h))
            for total in hist.ledger.chain_totals().values():
                assert total == pytest.approx(0.5, abs=1e-9)

    def test_estimated_height_pipeline(self):
        rng = np.random.default_rng(41)
        matrix = FrequencyMatrix(rng.poisson(3.0, size=(64, 64)))
        params = HtfParams(eps_total=0.5)
        hist = release(matrix, params, NoiseSource(8))
        hist.validate_cover()
        hist.ledger.assert_valid(0.5)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            HtfParams(eps_total=0.1, eps_partition=0.01, eps_partition_level=1e-3)
        with pytest.raises(ValueError):
            HtfParams(eps_total=0.1, search_iters=0)
        with pytest.raises(ValueError):
            HtfParams(eps_total=0.1, stop_cells=0)

    def test_nan_stop_count_rejected(self):
        # a NaN stop_count would make every "count <= stop_count" test false and never prune on count
        with pytest.raises(ValueError, match="stop_count must not be NaN"):
            HtfParams(eps_total=0.1, stop_count=math.nan)
        for allowed in (-5.0, 0.0, math.inf, -math.inf):
            HtfParams(eps_total=0.1, stop_count=allowed)

    def test_height_override_beyond_path_codes_rejected(self):
        HtfParams(eps_total=0.1, height_override=31)
        with pytest.raises(ValueError, match="height_override"):
            HtfParams(eps_total=0.1, height_override=32)

    def test_default_knobs(self):
        params = HtfParams(eps_total=0.1)
        assert params.eps_partition_level == 5e-4
        assert params.eps_height == 1e-4
        assert params.search_iters == 3
        assert params.stop_count == 100.0
        assert params.stop_cells == 5
        assert params.height_constant == 10.0

    def test_export_import_round_trip(self, tmp_path):
        matrix = FrequencyMatrix(np.random.default_rng(5).integers(0, 20, size=(16, 16)))
        hist = release(matrix, HtfParams(eps_total=0.2, height_override=3), NoiseSource(6))
        path = tmp_path / "hist.txt"
        hist.save(path)
        loaded = type(hist).load(path)
        second = tmp_path / "hist2.txt"
        loaded.save(second)
        assert path.read_bytes() == second.read_bytes()
        assert np.array_equal(loaded.bounds, hist.bounds)

    def test_load_rejects_content_after_leaves(self, tmp_path):
        matrix = FrequencyMatrix(np.random.default_rng(5).integers(0, 20, size=(16, 16)))
        hist = release(matrix, HtfParams(eps_total=0.2, height_override=3), NoiseSource(6))
        path = tmp_path / "hist.txt"
        hist.save(path)
        text = path.read_text()
        path.write_text(text + "\n\n")
        assert len(PrivateHistogram.load(path)) == len(hist)
        path.write_text(text + text.splitlines()[-1] + "\n")
        with pytest.raises(ValueError, match="after the"):
            PrivateHistogram.load(path)

    def test_matrix_freed_when_release_returns(self):
        # a reference cycle would hold the counts and their prefix table until a full collection
        releases = {
            "htf": lambda m: (
                release(m, HtfParams(eps_total=0.2, height_override=5), NoiseSource(3)),
                build_partitioning(m, 5, 5e-4, 3, NoiseSource(3), BudgetLedger()),
            ),
            "ug": lambda m: baselines.build_uniform_grid(m, 0.2, NoiseSource(3)),
            "ag": lambda m: baselines.build_adaptive_grid(m, 0.2, NoiseSource(3)),
            "quadtree": lambda m: baselines.build_quadtree(m, 0.2, 4, NoiseSource(3), smooth=True),
            "kdtree": lambda m: baselines.build_kdtree(m, 0.2, 6, NoiseSource(3), smooth=True),
            "singular": lambda m: baselines.build_singular(m, 0.2, NoiseSource(3)),
            "uniform": lambda m: baselines.build_flat_uniform(m, 0.2, NoiseSource(3)),
        }
        gc.disable()
        try:
            for method, run in releases.items():
                matrix = FrequencyMatrix(np.random.default_rng(7).integers(0, 50, size=(64, 64)))
                alive = weakref.ref(matrix)
                run(matrix)
                del matrix
                assert alive() is None, method
        finally:
            gc.enable()


@st.composite
def release_cases(draw):
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(0, draw(st.integers(1, 60)), size=(rows, cols))
    params = HtfParams(
        eps_total=0.5,
        height_override=draw(st.integers(1, 7)),
        stop_count=draw(st.floats(-20.0, 400.0)),
        stop_cells=draw(st.integers(1, 12)),
    )
    return FrequencyMatrix(counts), params, draw(st.integers(0, 2**31 - 1))


class TestLazyReleaseProperties:
    @settings(max_examples=150, deadline=None)
    @given(release_cases())
    def test_matches_full_tree_tiles_and_spends_exactly(self, case):
        matrix, params, seed = case
        hist = release(matrix, params, NoiseSource(seed))

        height = params.height_override
        root = build_partitioning(
            matrix, height, params.eps_partition_level, params.search_iters, NoiseSource(seed), BudgetLedger()
        )
        eps_data = params.eps_total - params.eps_partition_level * height - params.eps_height  # as release computes it
        leaves = perturb_and_prune_two_mode(
            root, eps_data, params.stop_count, params.stop_cells,
            0 if root.is_leaf else height, NoiseSource(seed), BudgetLedger(),
        )
        assert hist.bounds.tolist() == [list(r) for r, _ in leaves]
        assert hist.ncounts.tolist() == [n for _, n in leaves]

        paint = np.zeros(matrix.shape, dtype=int)
        for r0, r1, c0, c1 in hist.bounds:
            paint[r0:r1, c0:c1] += 1
        assert (paint == 1).all()

        totals = hist.ledger.chain_totals()
        assert totals
        for total in totals.values():
            assert total == pytest.approx(params.eps_total, abs=1e-12)


@st.composite
def walk_cases(draw):
    rows = draw(st.one_of(st.just(1), st.integers(1, 12)))
    cols = draw(st.one_of(st.just(1), st.integers(1, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(0, draw(st.integers(1, 60)), size=(rows, cols))
    structure = draw(st.sampled_from(["eps_partition", "eps_partition_level"]))
    params = HtfParams(
        eps_total=draw(st.floats(0.1, 5.0)),
        height_override=draw(st.one_of(st.none(), st.integers(1, 7))),
        stop_count=draw(st.floats(-20.0, 400.0)),
        stop_cells=draw(st.integers(1, 12)),
        **{structure: draw(st.floats(1e-4, 0.05) if structure == "eps_partition" else st.floats(1e-5, 1e-2))},
    )
    return FrequencyMatrix(counts), params, draw(st.integers(0, 2**31 - 1))


def release_bytes(hist) -> tuple[bytes, bytes, list[str], list[str]]:
    """The ``.hist`` and ledger files of a release, and the ``float.hex`` of every ledger eps and leaf count."""
    with tempfile.TemporaryDirectory() as tmp:
        hist.save(Path(tmp) / "out.hist")
        hist.ledger.save(Path(tmp) / "out.ledger.csv")
        files = (Path(tmp) / "out.hist").read_bytes(), (Path(tmp) / "out.ledger.csv").read_bytes()
    return (*files, [float.hex(e[3]) for e in hist.ledger.entries], [float.hex(n) for n in hist.ncounts.tolist()])


class TestOneWalkAgainstTwoModeReference:
    # a 1x1 grid whose data budget is not its own single-level geometric share: 0.5 - 3 * 5e-4 - 1e-4
    @example((FrequencyMatrix(np.array([[7]])), HtfParams(eps_total=0.5, height_override=3), 11))
    @settings(max_examples=300, deadline=None)
    @given(walk_cases())
    def test_release_and_ledger_bytes_equal(self, case):
        matrix, params, seed = case
        assert release_bytes(release(matrix, params, NoiseSource(seed))) == release_bytes(
            release_two_mode(matrix, params, NoiseSource(seed))
        )
