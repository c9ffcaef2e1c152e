import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dphist.baselines import (
    _grid_cells,
    build_adaptive_grid,
    build_flat_uniform,
    build_kdtree,
    build_quadtree,
    build_singular,
    build_uniform_grid,
    exponential_mechanism_choices,
    exponential_mechanism_probs,
)
from dphist.grid import FrequencyMatrix
from dphist.htf import HtfParams, release
from dphist.privacy import EM, NoiseSource, site_counters
from dphist.tree import Node
from dphist.queries import Workload, WorkloadSpec, answer_workload, evaluate, generate_workload

from oracles import grid_cells, smooth_nodes


def zero_noise():
    return NoiseSource(0, zero_noise=True)


def random_matrix(seed, shape=(32, 32), high=20):
    rng = np.random.default_rng(seed)
    return FrequencyMatrix(rng.integers(0, high, size=shape))


class TestUniformGrid:
    def test_granularity_formula(self):
        counts = np.zeros((1024, 1024), dtype=np.int64)
        counts[0, 0] = 3_500_000
        hist = build_uniform_grid(FrequencyMatrix(counts), 0.1, zero_noise())
        m = round(math.sqrt(3_500_000 * 0.1 / 10))
        assert m == 187
        assert len(hist) == m * m

    def test_zero_noise_aligned_query_exact(self):
        matrix = random_matrix(1, shape=(16, 16))
        hist = build_uniform_grid(matrix, 1e6, NoiseSource(2))
        # grid granularity clamps to 16, so any cell-aligned query is exact
        query = (2, 9, 3, 14)
        got = answer_workload(hist, Workload([query]))[0]
        assert got == pytest.approx(matrix.region_sums([query])[0], abs=1e-3)

    def test_single_cell_degenerate_equals_flat(self):
        matrix = random_matrix(3, shape=(8, 8), high=2)  # tiny total -> m = 1
        ug = build_uniform_grid(matrix, 1e-3, zero_noise())
        flat = build_flat_uniform(matrix, 1e-3, zero_noise())
        assert np.array_equal(ug.bounds, flat.bounds)
        assert ug.ncounts == pytest.approx(flat.ncounts)

    def test_cover_and_ledger(self):
        matrix = random_matrix(4)
        hist = build_uniform_grid(matrix, 0.5, NoiseSource(1))
        hist.validate_cover()
        hist.ledger.assert_valid(0.5)


class TestAdaptiveGrid:
    def test_empty_dataset_collapses_level_two(self):
        matrix = FrequencyMatrix.zeros(32, 32)
        hist = build_adaptive_grid(matrix, 0.1, zero_noise())
        # every level-1 cell stays whole: noisy count 0 -> granularity 1
        assert len(hist) == min(10, 32) ** 2

    def test_zero_noise_counts_exact(self):
        matrix = random_matrix(7, shape=(40, 40), high=50)
        hist = build_adaptive_grid(matrix, 0.5, zero_noise())
        assert np.array_equal(hist.ncounts, matrix.region_sums(hist.bounds))

    def test_cover_and_ledger(self):
        matrix = random_matrix(8, shape=(64, 64), high=100)
        hist = build_adaptive_grid(matrix, 0.3, NoiseSource(5))
        hist.validate_cover()
        hist.ledger.assert_valid(0.3)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            build_adaptive_grid(random_matrix(1), 0.1, zero_noise(), alpha=1.5)


class TestQuadtree:
    def test_height_one_exact_quadrants(self):
        matrix = FrequencyMatrix(np.array([[1, 2], [3, 4]]))
        hist = build_quadtree(matrix, 1.0, 1, zero_noise(), alloc="uniform")
        got = {tuple(b): n for b, n in zip(map(tuple, hist.bounds.tolist()), hist.ncounts)}
        assert got == {
            (0, 1, 0, 1): 1.0,
            (0, 1, 1, 2): 2.0,
            (1, 2, 0, 1): 3.0,
            (1, 2, 1, 2): 4.0,
        }

    def test_uniform_budget_per_level(self):
        matrix = random_matrix(2, shape=(16, 16))
        hist = build_quadtree(matrix, 0.7, 2, NoiseSource(3), alloc="uniform")
        charges = [e for e in hist.ledger.entries if e[0] == "node-count"]
        by_level = {}
        for _, level, _, eps, _ in charges:
            by_level.setdefault(level, set()).add(round(eps, 12))
        for level, values in by_level.items():
            assert values == {round(0.7 / 3, 12)}

    def test_geometric_levels_sum_to_total(self):
        matrix = random_matrix(9, shape=(16, 16))
        hist = build_quadtree(matrix, 0.4, 3, NoiseSource(1), alloc="geometric")
        for total in hist.ledger.chain_totals().values():
            assert total == pytest.approx(0.4, abs=1e-9)

    def test_height_clamped_to_grid(self):
        matrix = random_matrix(5, shape=(8, 8))
        hist = build_quadtree(matrix, 0.2, 10, NoiseSource(0), alloc="uniform")
        hist.validate_cover()
        assert len(hist) == 64  # clamped to height 3: every cell a leaf

    def test_smoothing_preserves_cover_and_budget(self):
        matrix = random_matrix(6, shape=(32, 32))
        hist = build_quadtree(matrix, 0.3, 3, NoiseSource(7), alloc="uniform", smooth=True)
        hist.validate_cover()
        hist.ledger.assert_valid(0.3)


class TestKdtree:
    def test_default_structure_fraction(self):
        import inspect

        sig = inspect.signature(build_kdtree)
        assert sig.parameters["structure_fraction"].default == 0.15

    def test_zero_noise_exact_median_splits(self):
        counts = np.zeros((1, 8), dtype=np.int64)
        counts[0] = [1, 1, 1, 1, 1, 1, 1, 1]
        matrix = FrequencyMatrix(counts)
        hist = build_kdtree(matrix, 1.0, 1, zero_noise(), smooth=False)
        # argmax utility = exact median -> split at column 4
        assert sorted(map(tuple, hist.bounds.tolist())) == [(0, 1, 0, 4), (0, 1, 4, 8)]

    def test_em_probabilities_closed_form(self):
        counts = np.array([[5, 1, 0, 2, 7, 1, 1, 3]])
        sums = counts[0]
        prefix = np.cumsum(sums)[:-1]
        utilities = -np.abs(prefix - sums.sum() / 2.0)
        eps = 0.8
        direct = np.exp(eps * utilities / 2.0)
        direct /= direct.sum()
        got = exponential_mechanism_probs(utilities, eps, sensitivity=1.0)
        assert got == pytest.approx(direct, abs=1e-12)

    def test_em_selection_matches_probabilities(self):
        utilities = np.array([-3.0, -1.0, 0.0, -2.0])
        probs = exponential_mechanism_probs(utilities, 2.0)
        picks = np.zeros(4)
        for seed in range(4000):
            [pick] = exponential_mechanism_choices([probs], NoiseSource(seed).substream("em"), site_counters(EM, 1))
            picks[pick] += 1
        assert 0.5 * np.abs(picks / 4000 - probs).sum() < 0.05

    def test_em_concentrates_with_large_budget(self):
        utilities = np.array([-5.0, 0.0, -1.0, -4.0])
        probs = exponential_mechanism_probs(utilities, 1e9)
        assert probs[1] == pytest.approx(1.0)
        assert exponential_mechanism_choices([probs], NoiseSource(3).substream("em"), site_counters(EM, 1)) == [1]

    def test_cover_and_ledger(self):
        matrix = random_matrix(11, shape=(32, 32), high=60)
        hist = build_kdtree(matrix, 0.4, 4, NoiseSource(2))
        hist.validate_cover()
        hist.ledger.assert_valid(0.4)


class TestSingular:
    def test_single_cell_grid(self):
        counts = np.array([[42]])
        hist = build_singular(FrequencyMatrix(counts), 0.5, zero_noise())
        assert len(hist) == 1 and hist.ncounts[0] == 42.0

    def test_every_cell_is_a_leaf(self):
        matrix = random_matrix(3, shape=(8, 6))
        hist = build_singular(matrix, 0.5, NoiseSource(1))
        assert len(hist) == 48
        hist.validate_cover()

    def test_noise_variance_scale(self):
        matrix = FrequencyMatrix.zeros(64, 64)
        hist = build_singular(matrix, 0.5, NoiseSource(9))
        # per-cell variance 2 / eps^2 = 8
        assert hist.ncounts.var() == pytest.approx(8.0, rel=0.15)


class TestFlatUniform:
    def test_whole_domain_exact_without_noise(self):
        matrix = random_matrix(2)
        hist = build_flat_uniform(matrix, 0.5, zero_noise())
        assert answer_workload(hist, Workload([(0, matrix.rows, 0, matrix.cols)]))[0] == matrix.total

    def test_quarter_domain_scaling(self):
        matrix = random_matrix(4, shape=(16, 16))
        hist = build_flat_uniform(matrix, 0.5, NoiseSource(3))
        quarter = answer_workload(hist, Workload([(0, 8, 0, 8)]))[0]
        assert quarter == pytest.approx(hist.ncounts[0] / 4)

    def test_clustered_data_has_large_uniformity_error(self):
        counts = np.zeros((16, 16), dtype=np.int64)
        counts[0, 0] = 10000
        matrix = FrequencyMatrix(counts)
        hist = build_flat_uniform(matrix, 1e6, NoiseSource(1))
        empty_corner = (8, 16, 8, 16)
        assert answer_workload(hist, Workload([empty_corner]))[0] > 1000
        assert matrix.region_sums([empty_corner])[0] == 0


def reference_cells(r0, r1, c0, c1, mr, mc):
    """The mr x mc cells of a rectangle, row-major, with edges at lo + extent * i // parts."""
    rows = [r0 + (r1 - r0) * i // mr for i in range(mr + 1)]
    cols = [c0 + (c1 - c0) * i // mc for i in range(mc + 1)]
    return [[rows[a], rows[a + 1], cols[b], cols[b + 1]] for a in range(mr) for b in range(mc)]


SIDES = st.one_of(st.just(1), st.sampled_from([2, 3, 5, 7, 13, 31, 37, 61, 64]), st.integers(1, 64))


@st.composite
def grid_releases(draw):
    rows, cols = draw(SIDES), draw(SIDES)
    high = draw(st.sampled_from([1, 5, 100, 2000]))
    counts = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, high, (rows, cols))
    method = draw(st.sampled_from(["ug", "ag", "singular"]))
    options = {}
    if method == "ag":
        options = {"alpha": draw(st.floats(0.05, 0.95)), "c0": draw(st.floats(0.5, 20.0))}
    return FrequencyMatrix(counts), method, draw(st.floats(0.01, 2.0)), options


SIDES_20 = st.one_of(st.just(1), st.integers(1, 20))


@st.composite
def rect_cuts(draw):
    """Rects on a 70 x 70 grid with per-rect row and column counts up to each extent, or one count for all."""
    rects, mr, mc = [], [], []
    for _ in range(draw(st.integers(1, 6))):
        r0, c0, height, width = draw(st.integers(0, 50)), draw(st.integers(0, 50)), draw(SIDES_20), draw(SIDES_20)
        rects.append((r0, r0 + height, c0, c0 + width))
        mr.append(draw(st.one_of(st.just(height), st.integers(1, height))))
        mc.append(draw(st.one_of(st.just(width), st.integers(1, width))))
    if draw(st.booleans()):  # one count for every rect, as ug and singular pass
        return np.array(rects), draw(st.integers(1, min(mr))), draw(st.integers(1, min(mc)))
    return np.array(rects), np.array(mr), np.array(mc)


class TestGridCells:
    @settings(max_examples=200, deadline=None)
    @given(rect_cuts())
    def test_matches_the_division_reference(self, case):
        rects, mr, mc = case
        got, want = _grid_cells(rects, mr, mc), grid_cells(rects, mr, mc)
        for name, g, w in zip(("cells", "owner", "row", "col"), got, want):
            assert g.dtype == w.dtype, name
            assert g.tolist() == w.tolist(), name
        assert got[0].T.flags.c_contiguous  # one contiguous column per bound


class TestGridReleaseProperties:
    @settings(max_examples=150, deadline=None)
    @given(grid_releases())
    def test_cells_tile_count_exactly_and_spend_eps(self, case):
        matrix, method, eps, options = case
        build = {"ug": build_uniform_grid, "ag": build_adaptive_grid, "singular": build_singular}[method]
        hist = build(matrix, eps, zero_noise(), **options)
        rows, cols = matrix.shape

        paint = np.zeros(matrix.shape, dtype=int)
        for r0, r1, c0, c1 in hist.bounds:
            paint[r0:r1, c0:c1] += 1
        assert (paint == 1).all()
        assert hist.ncounts.tolist() == matrix.region_sums(hist.bounds).tolist()
        for path, total in hist.ledger.chain_totals().items():
            assert total == pytest.approx(eps, abs=1e-12), path

        if method == "ug":
            m = min(max(1, int(round(math.sqrt(matrix.total * eps / 10.0)))), rows, cols)
            expected = reference_cells(0, rows, 0, cols, m, m)
            assert len(hist) == m * m
        elif method == "ag":
            c0, eps2 = options["c0"], eps - options["alpha"] * eps
            m1 = min(max(10, int(math.ceil(math.sqrt(matrix.total * eps / c0) / 4))), rows, cols)
            expected = []
            for cell in reference_cells(0, rows, 0, cols, m1, m1):
                n = matrix.region_sums([tuple(cell)])[0]
                m2 = int(math.ceil(math.sqrt(n * eps2 / (c0 / 2.0)))) if n > 0 else 1
                m2 = max(1, min(m2, cell[1] - cell[0], cell[3] - cell[2]))
                expected += reference_cells(*cell, m2, m2)
        else:
            expected = reference_cells(0, rows, 0, cols, rows, cols)
        assert hist.bounds.tolist() == expected


def make_tree(depth, fanout, rng, var=4.0):
    """Random complete hierarchy with consistent true counts."""

    def build(height):
        node = Node(bounds=(0, 1, 0, 1), height=height)
        if height > 0:
            node.children = [build(height - 1) for _ in range(fanout)]
            node.count = sum(c.count for c in node.children)
        else:
            node.count = int(rng.integers(0, 100))
        node.ncount = node.count + rng.laplace(0, math.sqrt(var / 2.0))
        return node

    return build(depth)


class TestHierarchicalConsistency:
    def test_consistent_tree_is_fixed_point(self):
        rng = np.random.default_rng(0)
        root = make_tree(3, 2, rng)

        def force_consistency(node):
            if node.children:
                for c in node.children:
                    force_consistency(c)
                node.ncount = sum(c.ncount for c in node.children)

        force_consistency(root)
        before = []

        def collect(node):
            before.append(node.ncount)
            for c in node.children:
                collect(c)

        collect(root)
        smooth_nodes(root, 4.0)
        after = []
        collect_after = []

        def collect2(node):
            collect_after.append(node.ncount)
            for c in node.children:
                collect2(c)

        collect2(root)
        assert collect_after == pytest.approx(before, abs=1e-9)

    def test_parent_equals_children_after(self):
        rng = np.random.default_rng(5)
        for trial in range(100):
            fanout = 2 if trial % 2 == 0 else 4
            root = make_tree(4, fanout, rng)
            smooth_nodes(root, 4.0)

            def check(node):
                if node.children:
                    assert node.ncount == pytest.approx(
                        sum(c.ncount for c in node.children), abs=1e-9
                    )
                    for c in node.children:
                        check(c)

            check(root)

    def test_non_uniform_fanout_rejected(self):
        root = Node(bounds=(0, 1, 0, 1), height=2, ncount=1.0)
        a = Node(bounds=(0, 1, 0, 1), height=1, ncount=1.0)
        b = Node(bounds=(0, 1, 0, 1), height=1, ncount=1.0)
        a.children = [
            Node(bounds=(0, 1, 0, 1), height=0, ncount=1.0),
        ]
        root.children = [a, b]
        with pytest.raises(ValueError):
            smooth_nodes(root, 1.0)

    def test_leaf_variance_never_increases(self):
        # fixed structure, repeated noise draws: smoothing must not add variance
        rng = np.random.default_rng(10)
        trials = 10_000
        depth = 3
        n_leaves = 2**depth
        raw = np.empty((trials, n_leaves))
        smoothed = np.empty((trials, n_leaves))
        for t in range(trials):
            root = make_tree(depth, 2, rng, var=8.0)
            leaves = []

            def collect(node):
                if not node.children:
                    leaves.append(node)
                else:
                    for c in node.children:
                        collect(c)

            collect(root)
            raw[t] = [leaf.ncount for leaf in leaves]
            smooth_nodes(root, 8.0)
            smoothed[t] = [leaf.ncount for leaf in leaves]
        raw_var = raw.var(axis=0)
        smooth_var = smoothed.var(axis=0)
        assert (smooth_var <= raw_var * 1.02).all()
        assert smooth_var.mean() < raw_var.mean()


BUILDERS = {
    "htf": lambda m, eps, ns: release(m, HtfParams(eps_total=eps), ns),
    "ug": build_uniform_grid,
    "ag": build_adaptive_grid,
    "quadtree": lambda m, eps, ns: build_quadtree(m, eps, 3, ns),
    "kdtree": lambda m, eps, ns: build_kdtree(m, eps, 3, ns),
    "singular": build_singular,
    "uniform": build_flat_uniform,
}


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("method", BUILDERS)
def test_every_release_rejects_a_bad_eps_total(method, eps):
    for noise in (NoiseSource(0), zero_noise()):
        with pytest.raises(ValueError, match="eps_total must be positive and finite"):
            BUILDERS[method](random_matrix(2, shape=(8, 8)), eps, noise)


@pytest.mark.parametrize("c0", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("build", [build_uniform_grid, build_adaptive_grid])
def test_grids_reject_a_bad_c0(build, c0):
    with pytest.raises(ValueError, match="c0 must be positive and finite"):
        build(random_matrix(2, shape=(8, 8)), 0.5, zero_noise(), c0=c0)


class TestBenchmarkSanity:
    def test_all_methods_tile_and_audit(self):
        matrix = random_matrix(15, shape=(32, 32), high=40)
        ns = NoiseSource(0)
        hists = [
            build_uniform_grid(matrix, 0.2, ns.substream("a")),
            build_adaptive_grid(matrix, 0.2, ns.substream("b")),
            build_quadtree(matrix, 0.2, 3, ns.substream("c")),
            build_kdtree(matrix, 0.2, 4, ns.substream("d")),
            build_singular(matrix, 0.2, ns.substream("e")),
            build_flat_uniform(matrix, 0.2, ns.substream("f")),
        ]
        for hist in hists:
            hist.validate_cover()
            hist.ledger.assert_valid(0.2)

    def test_singular_worse_than_htf_on_clustered_data(self):
        from dphist.grid import generate_gaussian
        from dphist.htf import HtfParams, release

        matrix = generate_gaussian(50000, 10.0, 128, 128, seed=3)
        wl = generate_workload(WorkloadSpec(500, "random", "random", seed=3), 128, 128)
        htf_mre = np.median(
            [
                evaluate(release(matrix, HtfParams(eps_total=0.1), NoiseSource(s)), matrix, wl).mre
                for s in range(3)
            ]
        )
        singular_mre = np.median(
            [
                evaluate(build_singular(matrix, 0.1, NoiseSource(s)), matrix, wl).mre
                for s in range(3)
            ]
        )
        assert htf_mre < singular_mre
