from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dphist import kernels
from dphist.grid import FrequencyMatrix

from oracles import (
    cell_answer_workload,
    cell_leaf_owner,
    cluster_deviation_exact,
    guillotine_tiling,
    objective_at_float,
    objective_scan,
    objective_value,
    split_clusters,
)


def random_case(seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 25, size=(rng.integers(4, 30), rng.integers(4, 30)))
    r0 = int(rng.integers(0, counts.shape[0] - 2))
    r1 = int(rng.integers(r0 + 2, counts.shape[0] + 1))
    c0 = int(rng.integers(0, counts.shape[1] - 2))
    c1 = int(rng.integers(c0 + 2, counts.shape[1] + 1))
    return counts, r0, r1, c0, c1


class TestObjectiveKernels:
    def test_scan_matches_pointwise(self):
        for seed in range(25):
            counts, r0, r1, c0, c1 = random_case(seed)
            for row_split in (True, False):
                scan = objective_scan(counts, r0, r1, c0, c1, row_split)
                extent = (r1 - r0) if row_split else (c1 - c0)
                assert scan.shape == (extent,)
                for k in range(1, extent + 1):
                    assert scan[k - 1] == pytest.approx(
                        kernels.objective_at(counts, r0, r1, c0, c1, k, row_split)
                    )

    def test_backends_agree_with_reference(self):
        for seed in range(25):
            counts, r0, r1, c0, c1 = random_case(seed)
            block = counts[r0:r1, c0:c1].tolist()
            for row_split in (True, False):
                extent = (r1 - r0) if row_split else (c1 - c0)
                for k in range(1, extent + 1):
                    ref = objective_value(block, k, row_split)
                    assert kernels.objective_at(counts, r0, r1, c0, c1, k, row_split) == pytest.approx(ref)


@st.composite
def level_cases(draw):
    """A tiled grid of all-zero, single-hot-cell or small counts; per block a split axis and split indices."""
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    blocks = guillotine_tiling(draw, rows, cols, limit=12)
    kind = draw(st.sampled_from(["small", "zeros", "hot"]))
    counts = np.zeros((rows, cols), dtype=np.int64)
    if kind == "small":
        cells = draw(st.lists(st.integers(0, 6), min_size=rows * cols, max_size=rows * cols))
        counts[...] = np.reshape(cells, counts.shape)
    elif kind == "hot":  # a total of 2**30 needs int64 keys, 2**40 int64 cells too
        hot = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        counts[hot] = draw(st.sampled_from([1, 5, 2**30, 2**40]))
    row_split = [draw(st.booleans()) for _ in blocks]
    evals = draw(st.integers(1, 3))
    # every index in [1, extent], the extent itself (an empty second cluster) included
    k = [[draw(st.integers(1, r1 - r0 if by_rows else c1 - c0)) for _ in range(evals)]
         for (r0, r1, c0, c1), by_rows in zip(blocks, row_split)]
    return counts, blocks, row_split, k


class TestLevelObjective:
    @settings(max_examples=300, deadline=None)
    @given(level_cases())
    def test_matches_exact_deviation(self, case):
        counts, blocks, row_split, k = case
        got = kernels.LevelObjective(FrequencyMatrix(counts), blocks, row_split)(k)
        assert got.shape == (len(blocks), len(k[0]))
        for i, ((r0, r1, c0, c1), by_rows) in enumerate(zip(blocks, row_split)):
            for e, split in enumerate(k[i]):
                # each cluster's exact deviation, rounded once, then the two added
                first, second = split_clusters(counts[r0:r1, c0:c1], split, by_rows)
                want = float(cluster_deviation_exact(first)) + float(cluster_deviation_exact(second))
                assert got[i, e] == want
                assert kernels.objective_at(counts, r0, r1, c0, c1, split, by_rows) == want

    def test_float_mean_form_agrees(self):
        for seed in range(25):
            counts, r0, r1, c0, c1 = random_case(seed)
            for row_split in (True, False):
                extent = (r1 - r0) if row_split else (c1 - c0)
                objective = kernels.LevelObjective(FrequencyMatrix(counts), [(r0, r1, c0, c1)], row_split)
                got = objective([range(1, extent + 1)])
                want = [objective_at_float(counts, r0, r1, c0, c1, k, row_split) for k in range(1, extent + 1)]
                assert got[0] == pytest.approx(want, rel=1e-12, abs=1e-9)

    def test_int64_bound(self):
        # (total + 1)·N·M is 2^63 exactly: the last total the bound admits
        edge = FrequencyMatrix([[2**62 - 1, 0]])
        assert kernels.LevelObjective(edge, [(0, 1, 0, 2)], False)([[1, 2]]).tolist() == [[0.0, float(2**62 - 1)]]
        with pytest.raises(ValueError, match=r"\(total \+ 1\)·N·M must not exceed 2\^63"):
            kernels.LevelObjective(FrequencyMatrix([[2**62, 0]]), [(0, 1, 0, 2)], False)

    def test_blocks_must_lie_inside(self):
        with pytest.raises(ValueError, match="block 1"):
            kernels.LevelObjective(FrequencyMatrix(np.ones((4, 4), dtype=np.int64)), [(0, 2, 0, 4), (2, 5, 0, 4)], True)


class TestAnswerWorkload:
    @staticmethod
    def reference(bounds, ncounts, queries):
        out = []
        for qr0, qr1, qc0, qc1 in queries:
            acc = 0.0
            for (r0, r1, c0, c1), n in zip(bounds, ncounts):
                rows = max(0, min(r1, qr1) - max(r0, qr0))
                cols = max(0, min(c1, qc1) - max(c0, qc0))
                acc += n * rows * cols / ((r1 - r0) * (c1 - c0))
            out.append(acc)
        return out

    def make_case(self, seed):
        rng = np.random.default_rng(seed)
        # random slab partition of a 16x16 grid
        cuts = sorted({0, 16, *map(int, rng.integers(1, 16, size=5))})
        bounds = np.array(
            [(a, b, 0, 16) for a, b in zip(cuts, cuts[1:])], dtype=np.int64
        )
        ncounts = rng.normal(0, 10, size=len(bounds))
        queries = []
        for _ in range(40):
            r0, c0 = rng.integers(0, 16, size=2)
            queries.append((int(r0), int(rng.integers(r0 + 1, 17)), int(c0), int(rng.integers(c0 + 1, 17))))
        return bounds, ncounts, np.array(queries, dtype=np.int64)

    def test_matches_reference(self):
        for seed in range(10):
            bounds, ncounts, queries = self.make_case(seed)
            ref = self.reference(bounds.tolist(), ncounts.tolist(), queries.tolist())
            assert kernels.answer_workload(bounds, ncounts, queries, (16, 16)) == pytest.approx(ref, abs=1e-9)



def exact_answers(bounds, ncounts, queries):
    """Each answer in rational arithmetic, with the absolute leaf mass the query covers."""
    out = []
    for qr0, qr1, qc0, qc1 in queries:
        answer = mass = Fraction(0)
        for (r0, r1, c0, c1), n in zip(bounds, ncounts):
            overlap = max(0, min(r1, qr1) - max(r0, qr0)) * max(0, min(c1, qc1) - max(c0, qc0))
            share = Fraction(n) * overlap / ((r1 - r0) * (c1 - c0))
            answer += share
            mass += abs(share)
        out.append((answer, mass))
    return out


def assert_exact_within(got, bounds, ncounts, queries, rel):
    for value, (answer, mass) in zip(got.tolist(), exact_answers(bounds, ncounts, queries)):
        assert abs(Fraction(value) - answer) <= rel * max(1, mass), (value, float(answer))


COUNTS = st.one_of(
    st.just(0.0),
    st.integers(-10**9, 10**9).map(float),
    st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False),
)


@st.composite
def tiled_grids(draw):
    """A random guillotine tiling of a random grid, with counts and queries."""
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 12))
    leaves = guillotine_tiling(draw, rows, cols)
    ncounts = draw(st.lists(COUNTS, min_size=len(leaves), max_size=len(leaves)))
    queries = []
    for _ in range(draw(st.integers(1, 12))):
        r0 = draw(st.integers(0, rows - 1))
        c0 = draw(st.integers(0, cols - 1))
        queries.append((r0, draw(st.integers(r0 + 1, rows)), c0, draw(st.integers(c0 + 1, cols))))
    return (rows, cols), leaves, ncounts, queries


class TestAnswerWorkloadExact:
    @settings(max_examples=300, deadline=None)
    @given(tiled_grids())
    def test_matches_rational_oracle(self, case):
        shape, leaves, ncounts, queries = case
        got = kernels.answer_workload(
            np.array(leaves, dtype=np.int64), np.array(ncounts), np.array(queries, dtype=np.int64), shape
        )
        assert got.shape == (len(queries),)
        assert_exact_within(got, leaves, ncounts, queries, 1e-12)

    def test_small_queries_beside_a_heavy_leaf(self):
        # one leaf holds ~1e6 in the middle of near-empty leaves: a prefix sum over
        # its mass rounds at ~1e-10, far above the answers of small empty-area queries
        n = 64
        leaves = [(0, 30, 0, n), (30, 34, 0, 30), (30, 34, 30, 34), (30, 34, 34, n), (34, n, 0, n)]
        ncounts = [0.37, -0.21, 1e6 + 0.123, 0.0, 0.53]
        queries = [
            (r, r + h, c, c + w)
            for r in (0, 7, 28, 30, 31, 34, 50, 61)
            for c in (0, 9, 29, 34, 40, 61)
            for h, w in ((1, 1), (2, 3), (3, 2))
            if r + h <= n and c + w <= n and not (r < 34 and r + h > 30 and c < 34 and c + w > 30)
        ]
        got = kernels.answer_workload(
            np.array(leaves, dtype=np.int64), np.array(ncounts), np.array(queries, dtype=np.int64), (n, n)
        )
        assert_exact_within(got, leaves, ncounts, queries, 1e-12)


def expand_to_cells(paint, shape):
    """The ``(N + 1, M + 1)`` cell paint that a block paint stands for: each cell reads its block's owner."""
    owner, row_edges, col_edges = paint
    rows = np.repeat(np.arange(len(row_edges)), np.diff(row_edges, append=shape[0] + 1))
    cols = np.repeat(np.arange(len(col_edges)), np.diff(col_edges, append=shape[1] + 1))
    return owner[np.ix_(rows, cols)]


def raises_coverage_error(paint, bounds, shape):
    try:
        paint(bounds, shape)
    except kernels.CoverageError:
        return True
    return False


def release_like_counts(n, seed):
    """Integer counts with Laplace noise of a scale between 0.01 and 1e6, as the releases carry."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1000, n) + rng.laplace(0.0, 10.0 ** rng.integers(-2, 7), n)


def every_query(shape):
    rows, cols = shape
    return np.array(
        [(r0, r1, c0, c1) for r0 in range(rows) for r1 in range(r0 + 1, rows + 1)
         for c0 in range(cols) for c1 in range(c0 + 1, cols + 1)],
        dtype=np.int64,
    )


class TestLeafOwner:
    def test_paints_each_cell_with_its_leaf(self):
        bounds = np.array([(0, 1, 0, 3), (1, 3, 0, 2), (1, 3, 2, 3)])
        paint = kernels.leaf_owner(bounds, (3, 3))
        assert paint.row_edges.tolist() == [0, 1, 3]
        assert paint.col_edges.tolist() == [0, 2, 3]
        assert paint.owner.tolist() == [[1, 1, 0], [2, 3, 0], [0, 0, 0]]
        cells = [[1, 1, 1, 0], [2, 2, 3, 0], [2, 2, 3, 0], [0, 0, 0, 0]]
        assert expand_to_cells(paint, (3, 3)).tolist() == cells

    @settings(max_examples=300, deadline=None)
    @given(tiled_grids())
    def test_block_paint_expands_to_the_cell_paint(self, case):
        shape, leaves, _, _ = case
        bounds = np.array(leaves, dtype=np.int64)
        paint = kernels.leaf_owner(bounds, shape)
        assert paint.row_edges.tolist() == sorted({0, shape[0], *bounds[:, :2].ravel().tolist()})
        assert paint.col_edges.tolist() == sorted({0, shape[1], *bounds[:, 2:].ravel().tolist()})
        assert paint.owner.shape == (len(paint.row_edges), len(paint.col_edges))
        assert np.array_equal(expand_to_cells(paint, shape), cell_leaf_owner(bounds, shape))

    @settings(max_examples=300, deadline=None)
    @given(tiled_grids(), st.integers(0, 2**32 - 1))
    def test_answers_equal_the_cell_kernel(self, case, seed):
        # the hi parts are exact in both kernels; only the lo tables round, in another order.
        # With counts near the smallest floats an answer whose hi part is 0 can differ in its
        # last bit (test_matches_rational_oracle bounds both); with counts like these none does
        shape, leaves, _, queries = case
        bounds, queries = np.array(leaves, dtype=np.int64), np.array(queries, dtype=np.int64)
        ncounts = release_like_counts(len(leaves), seed)
        got = kernels.answer_workload(bounds, ncounts, queries, shape)
        assert got.tobytes() == cell_answer_workload(bounds, ncounts, queries, shape).tobytes()

    @pytest.mark.parametrize(
        "shape, leaves",
        [
            ((1, 1), [(0, 1, 0, 1)]),
            ((1, 7), [(0, 1, 0, 2), (0, 1, 2, 3), (0, 1, 3, 7)]),
            ((6, 1), [(0, 4, 0, 1), (4, 5, 0, 1), (5, 6, 0, 1)]),
            ((5, 7), [(0, 5, 0, 7)]),
            ((5, 7), [(r, r + 1, c, c + 1) for r in range(5) for c in range(7)]),
        ],
        ids=["1x1", "1xM", "Nx1", "one-leaf", "singular"],
    )
    def test_edge_grids_against_the_cell_kernel(self, shape, leaves):
        bounds = np.array(leaves, dtype=np.int64)
        paint = kernels.leaf_owner(bounds, shape)
        assert np.array_equal(expand_to_cells(paint, shape), cell_leaf_owner(bounds, shape))
        queries = every_query(shape)
        for seed in range(5):
            ncounts = release_like_counts(len(leaves), seed)
            got = kernels.answer_workload(bounds, ncounts, queries, shape, owner=paint)
            assert got.tobytes() == cell_answer_workload(bounds, ncounts, queries, shape).tobytes()

    @pytest.mark.parametrize(
        "bounds",
        [
            [(0, 2, 0, 2), (0, 1, 0, 1)],  # overlap
            [(0, 1, 0, 2)],  # gap: the cells do not add up to the grid's
            [(0, 1, 0, 2), (0, 1, 0, 2)],  # overlap and gap with the right cell total
            [(0, 3, 0, 2)],  # outside the grid
            [(0, 2, 0, 2), (1, 1, 0, 2)],  # empty leaf
            [(1, 2, 0, 2), (1, 2, 0, 2)],  # row 0 uncovered, with the right cell total
            [(0, 2, 0, 1), (0, 2, 0, 1)],  # column M - 1 uncovered, with the right cell total
        ],
        ids=["overlap", "gap", "overlap-and-gap", "outside", "empty", "misses-row-0", "misses-col-M"],
    )
    def test_rejects_leaves_that_do_not_tile(self, bounds):
        with pytest.raises(kernels.CoverageError):
            kernels.leaf_owner(np.array(bounds), (2, 2))
        with pytest.raises(kernels.CoverageError):
            kernels.answer_workload(np.array(bounds), np.ones(len(bounds)), np.array([(0, 1, 0, 1)]), (2, 2))

    @settings(max_examples=300, deadline=None)
    @given(tiled_grids(), st.data())
    def test_rejects_what_the_cell_paint_rejects(self, case, data):
        shape, leaves, _, _ = case
        bounds = np.array(leaves, dtype=np.int64)
        leaf = data.draw(st.integers(0, len(leaves) - 1))
        if data.draw(st.booleans()):  # move one bound of one leaf by one
            bounds[leaf, data.draw(st.integers(0, 3))] += data.draw(st.sampled_from([-1, 1]))
        else:  # or put a copy of another leaf in its place
            bounds[leaf] = bounds[data.draw(st.integers(0, len(leaves) - 1))]
        assert raises_coverage_error(kernels.leaf_owner, bounds, shape) == raises_coverage_error(
            cell_leaf_owner, bounds, shape
        )

    def test_given_paint_answers_as_a_fresh_one(self):
        bounds = np.array([(0, 1, 0, 3), (1, 3, 0, 2), (1, 3, 2, 3)])
        queries = np.array([(0, 3, 0, 3), (0, 2, 1, 3), (2, 3, 2, 3)])
        owner = kernels.leaf_owner(bounds, (3, 3))
        got = kernels.answer_workload(bounds, [3.0, -1.5, 7.25], queries, (3, 3), owner=owner)
        assert got.tobytes() == kernels.answer_workload(bounds, [3.0, -1.5, 7.25], queries, (3, 3)).tobytes()

    @pytest.mark.parametrize("shape", [(4, 4), (2, 3), (3, 4), (9,)])
    def test_rejects_a_paint_of_another_shape(self, shape):
        # (4, 4) is the shape of the cell paint; the block paint of these leaves is 3 x 3
        bounds = np.array([(0, 1, 0, 3), (1, 3, 0, 2), (1, 3, 2, 3)])
        paint = kernels.leaf_owner(bounds, (3, 3))._replace(owner=np.ones(shape, np.int32))
        with pytest.raises(ValueError, match="leaf paint"):
            kernels.answer_workload(bounds, np.ones(3), np.array([(0, 1, 0, 1)]), (3, 3), owner=paint)

    @pytest.mark.parametrize(
        "edges",
        [
            {"row_edges": [1, 2, 3]},
            {"row_edges": [0, 1, 2]},
            {"col_edges": [0, 4, 3]},
            {"col_edges": [0, 0, 3]},
            {"col_edges": []},
        ],
        ids=["rows-from-1", "rows-short-of-N", "cols-out-of-order", "cols-repeated", "no-cols"],
    )
    def test_rejects_paint_edges_that_do_not_span_the_grid(self, edges):
        # as many edges as the owner array has rows and columns, all but the last case
        bounds = np.array([(0, 1, 0, 3), (1, 3, 0, 2), (1, 3, 2, 3)])
        paint = kernels.leaf_owner(bounds, (3, 3))._replace(**{k: np.array(v, dtype=np.int64) for k, v in edges.items()})
        with pytest.raises(ValueError, match="leaf paint"):
            kernels.answer_workload(bounds, np.ones(3), np.array([(0, 1, 0, 1)]), (3, 3), owner=paint)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_counts(self, bad):
        with pytest.raises(ValueError, match="finite"):
            kernels.answer_workload(np.array([(0, 1, 0, 2), (1, 2, 0, 2)]), np.array([1.0, bad]), np.array([(0, 1, 0, 1)]), (2, 2))
