from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dphist import kernels

from oracles import objective_scan, objective_value


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
    leaves, todo = [], [(0, rows, 0, cols)]
    while todo:
        r0, r1, c0, c1 = todo.pop()
        axes = [axis for axis, extent in ((0, r1 - r0), (1, c1 - c0)) if extent > 1]
        if axes and len(leaves) + len(todo) < 30 and draw(st.booleans()):
            if draw(st.sampled_from(axes)) == 0:
                k = draw(st.integers(r0 + 1, r1 - 1))
                todo += [(r0, k, c0, c1), (k, r1, c0, c1)]
            else:
                k = draw(st.integers(c0 + 1, c1 - 1))
                todo += [(r0, r1, c0, k), (r0, r1, k, c1)]
        else:
            leaves.append((r0, r1, c0, c1))
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


class TestLeafOwner:
    def test_paints_each_cell_with_its_leaf(self):
        bounds = np.array([(0, 1, 0, 3), (1, 3, 0, 2), (1, 3, 2, 3)])
        owner = kernels.leaf_owner(bounds, (3, 3))
        assert owner.tolist() == [[1, 1, 1, 0], [2, 2, 3, 0], [2, 2, 3, 0], [0, 0, 0, 0]]

    @pytest.mark.parametrize(
        "bounds",
        [
            [(0, 2, 0, 2), (0, 1, 0, 1)],  # overlap
            [(0, 1, 0, 2)],  # gap
            [(0, 1, 0, 2), (0, 1, 0, 2)],  # overlap and gap with the right cell total
            [(0, 3, 0, 2)],  # outside the grid
            [(0, 2, 0, 2), (1, 1, 0, 2)],  # empty leaf
        ],
        ids=["overlap", "gap", "overlap-and-gap", "outside", "empty"],
    )
    def test_rejects_leaves_that_do_not_tile(self, bounds):
        with pytest.raises(kernels.CoverageError):
            kernels.leaf_owner(np.array(bounds), (2, 2))
        with pytest.raises(kernels.CoverageError):
            kernels.answer_workload(np.array(bounds), np.ones(len(bounds)), np.array([(0, 1, 0, 1)]), (2, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_counts(self, bad):
        with pytest.raises(ValueError, match="finite"):
            kernels.answer_workload(np.array([(0, 1, 0, 2), (1, 2, 0, 2)]), np.array([1.0, bad]), np.array([(0, 1, 0, 1)]), (2, 2))
