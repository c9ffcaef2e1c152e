import io
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dphist import grid
from dphist.grid import (
    FrequencyMatrix,
    discretize,
    generate_gaussian,
    load_matrix,
    load_points,
    sample_gaussian_points,
    save_matrix,
    save_points,
    write_rows,
)

from oracles import (
    discretize_allocating,
    load_matrix_loadtxt,
    naive_region_sum,
    outcome,
    prefix_table,
    sample_gaussian_points_all_rows,
    sample_gaussian_points_allocating,
)

# Worked-example grid: 3x3 cells grouped into four partitions holding
# 0, 12, 4 and 2 points.
FIG_GRID = np.array([[0, 0, 4], [3, 3, 1], [3, 3, 1]])


def fig_points():
    pts = []
    for i in range(3):
        for j in range(3):
            pts.extend([(i + 0.5, j + 0.5)] * FIG_GRID[i, j])
    return np.array(pts)


class TestDiscretize:
    def test_empty_input(self):
        matrix, rejected = discretize([], (0, 1, 0, 1), 4, 4)
        assert matrix.total == 0 and rejected == 0
        assert matrix.counts.shape == (4, 4)

    def test_worked_example_partitions(self):
        matrix, rejected = discretize(fig_points(), (0, 3, 0, 3), 3, 3)
        assert rejected == 0
        c1, c2, c3, c4 = matrix.region_sums([(0, 1, 0, 2), (1, 3, 0, 2), (0, 1, 2, 3), (1, 3, 2, 3)]).tolist()
        assert (c1, c2, c3, c4) == (0, 12, 4, 2)

    def test_matches_independent_tally(self):
        rng = np.random.default_rng(42)
        pts = rng.uniform(0, 16, size=(10000, 2))
        matrix, rejected = discretize(pts, (0, 16, 0, 16), 16, 16)
        assert rejected == 0
        assert matrix.total == 10000
        tally = np.zeros((16, 16), dtype=int)
        for x, y in pts:
            tally[int(x), int(y)] += 1
        assert np.array_equal(matrix.counts, tally)

    def test_out_of_bounds_rejected(self):
        pts = np.array([[0.5, 0.5], [2.5, 0.5], [-1.0, 0.5], [0.5, 9.0]])
        matrix, rejected = discretize(pts, (0, 2, 0, 2), 2, 2)
        assert matrix.total == 1
        assert rejected == 3
        assert matrix.total + rejected == len(pts)

    def test_degenerate_bounds(self):
        with pytest.raises(ValueError):
            discretize([(0, 0)], (1, 1, 0, 2), 2, 2)

    def test_nonfinite_points(self):
        with pytest.raises(ValueError):
            discretize([(np.nan, 0.0)], (0, 1, 0, 1), 2, 2)


class TestSubgridSum:
    def test_full_domain(self):
        matrix = FrequencyMatrix(FIG_GRID)
        assert matrix.region_sums([(0, 3, 0, 3)])[0] == matrix.total == 18

    def test_worked_example_block(self):
        matrix = FrequencyMatrix(FIG_GRID)
        assert matrix.region_sums([(0, 3, 0, 2)])[0] == 12

    def test_against_naive_sum(self):
        rng = np.random.default_rng(7)
        counts = rng.integers(0, 20, size=(64, 64))
        matrix = FrequencyMatrix(counts)
        for _ in range(500):
            r0, c0 = rng.integers(0, 64, size=2)
            r1 = rng.integers(r0 + 1, 65)
            c1 = rng.integers(c0 + 1, 65)
            region = (int(r0), int(r1), int(c0), int(c1))
            assert matrix.region_sums([region])[0] == naive_region_sum(counts, r0, r1, c0, c1)

    def test_region_sums_match_region_sum(self):
        rng = np.random.default_rng(8)
        counts = rng.integers(0, 20, size=(17, 23))
        matrix = FrequencyMatrix(counts)
        rects = []
        for _ in range(300):
            r0, c0 = rng.integers(0, 17), rng.integers(0, 23)
            rects.append((int(r0), int(rng.integers(r0 + 1, 18)), int(c0), int(rng.integers(c0 + 1, 24))))
        sums = matrix.region_sums(np.array(rects))
        assert sums.dtype == np.int64
        assert sums.tolist() == [naive_region_sum(counts, *r) for r in rects]
        assert matrix.region_sums(np.empty((0, 4), dtype=np.int64)).shape == (0,)

    @pytest.mark.parametrize("rect", [(0, 5, 0, 4), (2, 2, 0, 4), (-1, 2, 0, 4), (0, 4, 3, 1)])
    def test_region_sums_reject_bad_rectangles(self, rect):
        with pytest.raises(ValueError, match="is empty or outside the 4x4 grid"):
            FrequencyMatrix.zeros(4, 4).region_sums([rect])

    def test_disjoint_partition_sums_to_total(self):
        rng = np.random.default_rng(3)
        matrix = FrequencyMatrix(rng.integers(0, 9, size=(12, 9)))
        pieces = [
            (0, 5, 0, 9),
            (5, 12, 0, 4),
            (5, 12, 4, 9),
        ]
        assert matrix.region_sums(pieces).sum() == matrix.total

    def test_out_of_bounds_region(self):
        matrix = FrequencyMatrix.zeros(4, 4)
        with pytest.raises(ValueError):
            matrix.region_sums([(0, 5, 0, 4)])


class TestFrequencyMatrix:
    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            FrequencyMatrix([[1, -1]])

    def test_rejects_a_total_past_int64(self):
        assert FrequencyMatrix([[2**63 - 1, 0]]).total == 2**63 - 1
        with pytest.raises(ValueError, match=r"total below 2\^63"):
            FrequencyMatrix([[2**63 - 1, 1]])

    @pytest.mark.parametrize("count", [1.5, math.nan])
    def test_rejects_counts_that_are_not_whole_numbers(self, count):
        assert FrequencyMatrix([[1.0, 2.0]]).counts.tolist() == [[1, 2]]
        with pytest.raises(ValueError, match="whole numbers"):
            FrequencyMatrix([[count, 2.0]])

    def test_counts_read_only(self):
        matrix = FrequencyMatrix.zeros(2, 2)
        with pytest.raises(ValueError):
            matrix.counts[0, 0] = 5

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.just((1, 1)),
            st.tuples(st.just(1), st.integers(1, 60)),
            st.tuples(st.integers(1, 60), st.just(1)),
            st.tuples(st.integers(1, 60), st.integers(1, 60)),
        ),
        st.integers(0, 2**32),
        st.integers(0, 2**31),
    )
    def test_prefix_table_matches_two_cumsums(self, shape, high, seed):
        counts = np.random.default_rng(seed).integers(0, high, size=shape, endpoint=True)
        table = FrequencyMatrix(counts)._prefix
        want = prefix_table(counts)
        assert table.dtype == want.dtype == np.int64
        assert table.tobytes() == want.tobytes()


class TestGaussianGenerator:
    def test_zero_points(self):
        matrix = generate_gaussian(0, 10.0, 8, 8, seed=1)
        assert matrix.total == 0

    def test_total_is_exact(self):
        matrix = generate_gaussian(5000, 3.0, 32, 32, seed=9)
        assert matrix.total == 5000

    def test_spread_orders_occupancy(self):
        tight = generate_gaussian(100000, 20.0, 1024, 1024, seed=5)
        wide = generate_gaussian(100000, 100.0, 1024, 1024, seed=5)
        assert (wide.counts > 0).sum() > (tight.counts > 0).sum()

    def test_seed_reproducibility(self):
        a = generate_gaussian(2000, 15.0, 64, 64, seed=123)
        b = generate_gaussian(2000, 15.0, 64, 64, seed=123)
        assert np.array_equal(a.counts, b.counts)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            generate_gaussian(10, 0.0, 8, 8, seed=0)

    @pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf")])
    def test_sigma_must_be_finite_too(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            generate_gaussian(10, sigma, 8, 8, seed=0)


class CentredRng:
    """A generator whose ``uniform`` returns a fixed cluster centre; the normal draws come from a seeded generator."""

    def __init__(self, centre, seed):
        self.centre = np.asarray(centre, dtype=np.float64)
        self.rng = np.random.default_rng(seed)

    def uniform(self, low, high):
        return self.centre.copy()

    def normal(self, loc, scale, size):
        return self.rng.normal(loc, scale, size=size)

    def standard_normal(self, size):
        return self.rng.standard_normal(size)


class ScriptedRng(CentredRng):
    """A ``CentredRng`` whose standard normal draws are given, one array per call, in order."""

    def __init__(self, centre, draws):
        super().__init__(centre, 0)
        self.draws = [np.array(d, dtype=np.float64).reshape(-1, 2) for d in draws]

    def normal(self, loc, scale, size):
        return loc + scale * self.standard_normal(size)

    def standard_normal(self, size):
        draw = self.draws.pop(0)
        assert draw.shape == size
        return draw


def near(extent):
    """A coordinate in [0, extent): at either edge, a hair inside it, or anywhere."""
    edges = [0.0, 1e-9, extent - 1e-9, np.nextafter(extent, 0.0), extent / 2.0]
    return st.one_of(st.sampled_from(edges), st.floats(0.0, extent, exclude_max=True))


# centres on the grid's corners, sigmas whose draws underflow to 0 or overflow to +-inf, and grids one cell wide
EDGE_GRIDS = [(1, 37), (29, 1), (1, 1), (6, 9)]
EDGE_SIGMAS = [5e-324, 1e308, 3.0]


def corners(rows, cols):
    """The centres at 0.0 and a hair below the far edge, on each axis."""
    return [(x, y) for x in (0.0, np.nextafter(rows, 0.0)) for y in (0.0, np.nextafter(cols, 0.0))]


class TestResamplingAgainstAllRowLoop:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_points_are_bit_identical(self, data):
        rows = data.draw(st.integers(1, 40))
        cols = data.draw(st.integers(1, 40))
        centre = (data.draw(near(rows)), data.draw(near(cols)))
        n = data.draw(st.integers(0, 2000))
        sigma = data.draw(st.sampled_from([0.1, 1.0, 5.0, 50.0, 1e3]))
        seed = data.draw(st.integers(0, 2**32 - 1))
        got = sample_gaussian_points(n, sigma, rows, cols, CentredRng(centre, seed))
        expected = sample_gaussian_points_all_rows(n, sigma, rows, cols, CentredRng(centre, seed))
        assert got.shape == (n, 2)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("centre", [(0.0, 0.0), (0.0, 7.999), (7.999, 0.0), (7.999, 7.999)])
    def test_no_points_at_a_corner(self, centre):
        got = sample_gaussian_points(0, 5.0, 8, 8, CentredRng(centre, 1))
        assert got.shape == (0, 2)
        assert got.tobytes() == sample_gaussian_points_all_rows(0, 5.0, 8, 8, CentredRng(centre, 1)).tobytes()

    @pytest.mark.parametrize("sigma", EDGE_SIGMAS)
    @pytest.mark.parametrize("rows, cols", EDGE_GRIDS)
    def test_corner_centres_and_extreme_sigmas(self, rows, cols, sigma):
        for seed, centre in enumerate(corners(rows, cols)):
            got = sample_gaussian_points(400, sigma, rows, cols, CentredRng(centre, seed))
            with np.errstate(over="ignore"):
                expected = sample_gaussian_points_all_rows(400, sigma, rows, cols, CentredRng(centre, seed))
            assert got.tobytes() == expected.tobytes(), centre

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_generator_bit_identical(self, seed):
        for n, sigma, rows, cols in ((0, 3.0, 8, 8), (5000, 40.0, 64, 32), (3000, 2.0, 1, 1)):
            got = sample_gaussian_points(n, sigma, rows, cols, np.random.default_rng(seed))
            expected = sample_gaussian_points_all_rows(n, sigma, rows, cols, np.random.default_rng(seed))
            assert got.tobytes() == expected.tobytes()


class TestInPlaceAgainstAllocating:
    """The in-place sampler and binner against their allocating forms: the same points, generator state and matrix."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_sampled_points_and_generator_state_are_identical(self, data):
        rows = data.draw(st.integers(1, 40))
        cols = data.draw(st.integers(1, 40))
        centre = (data.draw(near(rows)), data.draw(near(cols)))
        n = data.draw(st.integers(0, 2000))
        sigma = data.draw(st.sampled_from([0.1, 1.0, 5.0, 50.0, 1e3, 1e4]))
        seed = data.draw(st.integers(0, 2**32 - 1))
        got_rng, expected_rng = CentredRng(centre, seed), CentredRng(centre, seed)
        got = sample_gaussian_points(n, sigma, rows, cols, got_rng)
        expected = sample_gaussian_points_allocating(n, sigma, rows, cols, expected_rng)
        assert got.tobytes() == expected.tobytes()
        assert got_rng.rng.bit_generator.state == expected_rng.rng.bit_generator.state

    @pytest.mark.parametrize("sigma", EDGE_SIGMAS)
    @pytest.mark.parametrize("rows, cols", EDGE_GRIDS)
    def test_corner_centres_and_extreme_sigmas(self, rows, cols, sigma):
        for seed, centre in enumerate(corners(rows, cols)):
            got_rng, expected_rng = CentredRng(centre, seed), CentredRng(centre, seed)
            got = sample_gaussian_points(400, sigma, rows, cols, got_rng)  # raises no overflow warning
            with np.errstate(over="ignore"):
                expected = sample_gaussian_points_allocating(400, sigma, rows, cols, expected_rng)
            assert got.tobytes() == expected.tobytes(), centre
            assert got_rng.rng.bit_generator.state == expected_rng.rng.bit_generator.state

    @pytest.mark.parametrize("centre", [(0.0, 0.0), (2.0, 3.0)])
    def test_coordinates_on_the_bounds_are_tested_exactly(self, centre):
        # each point lands on 0 (inside, also from -0.0 + 0.0), on rows or cols (outside), or a hair below them
        cx, cy = centre
        first = [[-cx, -cy], [-0.0, -0.0], [4.0 - cx, 0.0], [0.0, 5.0 - cy], [np.nextafter(4.0, 0.0) - cx, 0.0],
                 [0.0, np.nextafter(5.0, 0.0) - cy], [np.nextafter(-cx, -np.inf), 0.0]]
        redraws = [[[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]]]
        got = sample_gaussian_points(7, 1.0, 4, 5, ScriptedRng(centre, [first, *redraws]))
        expected = sample_gaussian_points_allocating(7, 1.0, 4, 5, ScriptedRng(centre, [first, *redraws]))
        assert got.tobytes() == expected.tobytes()
        assert np.signbit(got).sum() == 0 and (got[[2, 3, 6]] == np.add(centre, 0.5)).all()

    @pytest.mark.parametrize("seed", range(30))
    def test_seeded_datasets_are_identical(self, seed):
        # n=0, a 1x1 grid at sigma 1e4 (every point a straggler, clamped), thin and wide grids, and a sigma whose
        # draws all overflow to +-inf (every point redrawn 100 times, then clamped to a corner)
        for n, sigma, rows, cols in ((0, 3.0, 8, 8), (500, 1e4, 1, 1), (5000, 40.0, 64, 32), (2000, 2.0, 1, 50),
                                     (2000, 9.0, 30, 1), (3000, 200.0, 64, 64), (300, 1e308, 5, 3)):
            got_rng, expected_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_gaussian_points(n, sigma, rows, cols, got_rng)  # raises no overflow warning
            with np.errstate(over="ignore"):
                expected = sample_gaussian_points_allocating(n, sigma, rows, cols, expected_rng)
            assert got.tobytes() == expected.tobytes()
            assert got_rng.bit_generator.state == expected_rng.bit_generator.state
            for bounds in ((0, rows, 0, cols), (0.25, rows - 0.25, -2.0, cols * 0.7)):
                matrix, rejected = discretize(got, bounds, rows, cols)
                reference, reference_rejected = discretize_allocating(expected, bounds, rows, cols)
                assert rejected == reference_rejected
                assert np.array_equal(matrix.counts, reference.counts)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(-3.0, 12.0), st.floats(-3.0, 12.0)), max_size=60),
        st.integers(1, 9),
        st.integers(1, 9),
        st.sampled_from([(0.0, 9.0, 0.0, 9.0), (0.5, 7.25, -1.0, 11.0), (2.0, 3.0, 2.0, 3.0)]),
    )
    def test_binned_matrices_are_identical(self, points, rows, cols, bounds):
        pts = np.array(points, dtype=np.float64).reshape(-1, 2)
        matrix, rejected = discretize(pts, bounds, rows, cols)
        reference, reference_rejected = discretize_allocating(pts, bounds, rows, cols)
        assert rejected == reference_rejected
        assert np.array_equal(matrix.counts, reference.counts)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 1])
    def test_non_finite_points_raise_as_before(self, bad, where):
        pts = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        pts[1, where] = bad
        for binner in (discretize, discretize_allocating):
            with pytest.raises(ValueError, match="point coordinates must be finite"):
                binner(pts, (0, 4, 0, 4), 4, 4)


def reference_points_text(pts):
    # one line at a time, as the format is specified
    return "# x,y\n" + "".join(f"{x:.10g},{y:.10g}\n" for x, y in pts)


def decimal_rounded(values):
    """Each row rounded to 0-11 decimals in turn: values whose digits stop short of ten, or are ties at ten."""
    scale = 10.0 ** (np.arange(len(values)) % 12)[:, None]
    return np.round(values * scale) / scale


def written_rows(values, row_format):
    out = io.StringIO()
    write_rows(out, values, row_format)
    return out.getvalue()


ANY_FLOAT = st.one_of(
    st.floats(),  # nan, inf, -0.0, subnormals and every magnitude
    st.floats(1.0, 1e13),  # the array path's domain and a little past it
    st.builds(lambda m, k: m / 10.0**k, st.integers(0, 10**13), st.integers(0, 13)),  # decimals, near-ties
)
INT64 = st.one_of(st.integers(-(2**63), 2**63 - 1), st.integers(-(10**5), 10**5), st.sampled_from([-(2**63), 2**63 - 1]))


def reference_matrix_text(matrix):
    lines = [f"{matrix.rows} {matrix.cols} {matrix.total}"]
    lines += [" ".join(str(int(v)) for v in row) for row in matrix.counts]
    return "\n".join(lines) + "\n"


class TestFileFormats:
    @pytest.mark.parametrize(
        "pts",
        [
            np.empty((0, 2)),
            np.array([[-0.0, 0.0], [1e300, -1e-300], [5e-324, 123456789.123456789], [0.1, 1 / 3]]),
            np.random.default_rng(11).normal(0.0, 1e3, size=(70_000, 2)),
            np.array([
                [2.5, 1.00000000005],  # a half in the last digit, and one just past the tenth
                [1.0000000005, 1234567890.5],  # ties at the tenth digit: decimal, and exact in binary
                [1234567891.5, 9999999999.4],  # a tie that rounds up to even; the largest ten digits
                [999.99999999995, 9.9999999999],  # round up to a power of ten
                [9999999999.5, 1e10],  # round up to, and at, 10**10, which %g writes with an exponent
                [1e-4, np.nextafter(1e-4, 0.0)],  # where %g switches to an exponent
                [5e-324, 2.2250738585072014e-308 / 3],  # subnormals
                [-0.0, math.nan],
                [math.inf, -math.inf],
                [1024 * (1 - 1e-9), 64 * (1 - 1e-9)],  # sample_gaussian_points' clamp below hi
                [1.0, 0.5],
            ]),
            sample_gaussian_points(5000, 200.0, 64, 64, np.random.default_rng(3)),  # below 1 and at the clamp
            decimal_rounded(np.random.default_rng(13).uniform(0.0, 2000.0, size=(12_000, 2))),
        ],
        ids=["empty", "edge-values", "more-than-one-chunk", "rounding-edges", "wide-cluster", "decimal-rounded"],
    )
    def test_points_match_per_line_format(self, tmp_path, pts):
        path = tmp_path / "pts.txt"
        save_points(pts, path)
        text = path.read_text()
        assert text == reference_points_text(pts)
        parsed = [[float(v) for v in line.split(",")] for line in text.splitlines()[1:]]
        assert np.array_equal(load_points(path), np.array(parsed).reshape(-1, 2), equal_nan=True)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(ANY_FLOAT, ANY_FLOAT), max_size=40), st.sampled_from(["%.10g", "%.12g"]))
    def test_write_rows_matches_percent_on_floats(self, pairs, conversion):
        values = np.array(pairs, dtype=np.float64).reshape(-1, 2)
        row_format = f"{conversion},{conversion}\n"
        assert written_rows(values, row_format) == "".join(row_format % tuple(row) for row in values.tolist())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(INT64, INT64, INT64), max_size=40))
    def test_write_rows_matches_percent_on_int64(self, rows):
        values = np.array(rows, dtype=np.int64).reshape(-1, 3)
        row_format = "%d, %d %d\n"
        assert written_rows(values, row_format) == "".join(row_format % tuple(row) for row in values.tolist())

    @pytest.mark.parametrize(
        "counts",
        [
            np.array([[0]]),
            np.array([[0, 10**15], [7, 1]]),
            np.random.default_rng(12).integers(0, 10**6, size=(700, 200)),
        ],
        ids=["single-cell", "large-count", "more-than-one-chunk"],
    )
    def test_matrix_matches_per_line_format(self, tmp_path, counts):
        matrix = FrequencyMatrix(counts)
        path = tmp_path / "matrix.txt"
        save_matrix(matrix, path)
        assert path.read_text() == reference_matrix_text(matrix)
        assert load_matrix(path) == matrix

    @pytest.mark.parametrize("line", ["1,2,3", "abc,1", "1", "1,2\n3,4,5"])
    def test_points_malformed_line_rejected(self, tmp_path, line):
        path = tmp_path / "pts.txt"
        path.write_text(f"# x,y\n{line}\n")
        with pytest.raises(ValueError):
            load_points(path)

    def test_points_header_only_is_empty(self, tmp_path):
        path = tmp_path / "pts.txt"
        save_points(np.empty((0, 2)), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = load_points(path)
        assert pts.shape == (0, 2)

    def test_header_only_matrix_is_rejected_without_warning(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("0 0 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                load_matrix(path)

    def test_points_round_trip(self, tmp_path):
        pts = np.array([[0.25, 1.5], [3.125, 0.0625]])
        path = tmp_path / "pts.txt"
        save_points(pts, path)
        assert np.array_equal(load_points(path), pts)

    def test_points_comments_ignored(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("# header\n1.0,2.0\n\n# trailing\n3.0,4.0\n")
        assert load_points(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_matrix_round_trip(self, tmp_path):
        matrix = FrequencyMatrix(FIG_GRID)
        path = tmp_path / "matrix.txt"
        save_matrix(matrix, path)
        loaded = load_matrix(path)
        assert loaded == matrix
        assert path.read_text().splitlines()[0] == "3 3 18"

    def test_matrix_header_mismatch(self, tmp_path):
        path = tmp_path / "matrix.txt"
        path.write_text("2 2 5\n1 1\n1 1\n")
        with pytest.raises(ValueError):
            load_matrix(path)


@st.composite
def matrices(draw) -> np.ndarray:
    """Counts of 1 to 18 digits totalling below 2^63, on shapes that include 1x1, 1xM and Nx1."""
    shape = st.one_of(st.tuples(st.integers(1, 12), st.integers(1, 40)), st.sampled_from([(1, 1), (1, 40), (40, 1)]))
    rows, cols = draw(shape)
    room = 2**63 - 1
    counts = np.empty(rows * cols, np.int64)
    wide = draw(st.sampled_from([0, 1, 10]))  # cells in ten that may be wider than a digit: the array parse takes few
    for i in range(len(counts)):
        digits = draw(st.integers(1, 18)) if draw(st.integers(1, 10)) <= wide else 1
        top = min(10**digits - 1, room)
        counts[i] = draw(st.integers(min(10 ** (digits - 1), top) if digits > 1 else 0, top))
        room -= int(counts[i])
    return counts.reshape(rows, cols)


def read_counts(path):
    """The array parse of ``path``: its counts, or None where it hands the file to ``np.loadtxt``."""
    with open(path, "rb") as fh:
        read = grid._read_counts(fh)
    return read and read[0]


class TestMatrixReader:
    """``load_matrix`` reads every file as the ``np.loadtxt`` reference does, on both sides of the hand-off."""

    @settings(max_examples=150, deadline=None)
    @given(matrices(), st.sampled_from([1, 7, 64, grid._READ_BLOCK]))
    def test_saved_matrix_equals_the_reference(self, tmp_path_factory, counts, block):
        path = tmp_path_factory.mktemp("reader") / "matrix.txt"
        save_matrix(FrequencyMatrix(counts), path)
        with mock.patch.object(grid, "_READ_BLOCK", block):  # lines cross blocks, and a line can outgrow one
            loaded = load_matrix(path)
            array = read_counts(path)
        assert loaded == load_matrix_loadtxt(path) == FrequencyMatrix(counts)
        # a block is whole lines: one with more digits after each count's first than counts goes to np.loadtxt
        extra = np.vectorize(lambda v: len(str(v)) - 1)(counts)
        if (extra.sum(axis=1) <= counts.shape[1]).all():
            assert array is not None
        if extra.sum() > counts.size:
            assert array is None

    @pytest.mark.parametrize(
        "shape, high, array",
        [((1024, 1024), 10**12, False), ((1024, 1024), 1, True), ((1, 300_000), 10, True), ((3000, 100), 100, True)],
        ids=["dense-12-digit", "sparse-one-18-digit-cell", "line-longer-than-a-block", "lines-across-blocks"],
    )
    def test_both_sides_of_the_hand_off(self, tmp_path, shape, high, array):
        rng = np.random.default_rng(21)
        counts = rng.integers(high // 10, high, size=shape)
        if high == 1:
            counts[rng.integers(shape[0]), rng.integers(shape[1])] = 10**18 - 1
        path = tmp_path / "matrix.txt"
        save_matrix(FrequencyMatrix(counts), path)
        assert (read_counts(path) is not None) == array
        assert load_matrix(path) == load_matrix_loadtxt(path) == FrequencyMatrix(counts)

    @pytest.mark.parametrize(
        "cols, edit, loads",
        [
            (7, lambda body: body.replace("\n", "\r\n"), True),
            (7, lambda body: body.replace(" ", "\t"), True),
            (7, lambda body: body.replace(" ", "  "), True),
            (7, lambda body: " " + body, True),
            (7, lambda body: body.replace(" ", " +"), True),
            (7, lambda body: "# counts\n" + body.replace("\n", "\n# a line\n", 1), True),
            (7, lambda body: body.replace("\n", "\n\n"), True),
            (7, lambda body: body[:-1], True),
            (7, lambda body: body.replace("\n", " ", 1).replace(" ", "\n", 1), False),
            (7, lambda body: body[body.index(" "):], False),
            (7, lambda body: body[:body.rindex("\n", 0, -1) + 1], False),
            (7, lambda body: body + body[body.rindex("\n", 0, -1) + 1:], False),
            (7, lambda body: body.replace("1", "a", 1), False),
            (7, lambda body: "9" * 19 + body[body.index(" "):], False),
            (1, lambda body: body + "5", False),
        ],
        ids=[
            "crlf", "tabs", "runs-of-spaces", "leading-space", "signs", "comments", "blank-lines", "no-final-newline",
            "count-moved-between-lines", "count-left-out", "line-missing", "line-extra", "letter",
            "count-past-int64", "line-extra-without-newline",
        ],
    )
    def test_other_layouts_go_through_loadtxt(self, tmp_path, cols, edit, loads):
        matrix = FrequencyMatrix(np.random.default_rng(22).integers(0, 30, size=(9, cols)))
        path = tmp_path / "matrix.txt"
        save_matrix(matrix, path)
        header, body = path.read_text().split("\n", 1)
        path.write_bytes(f"{header}\n{edit(body)}".encode())
        assert read_counts(path) is None
        assert outcome(load_matrix, path) == outcome(load_matrix_loadtxt, path)
        assert (outcome(load_matrix, path) == matrix) == loads

    def test_header_larger_than_its_body_allocates_nothing(self, tmp_path):
        path = tmp_path / "matrix.txt"
        path.write_text("1000000 1000000 1\n1\n")  # 8 TB of counts
        assert read_counts(path) is None
        assert outcome(load_matrix, path) == outcome(load_matrix_loadtxt, path)
