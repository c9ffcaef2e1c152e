from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dphist import cli, histogram, kernels
from dphist.grid import FrequencyMatrix, generate_gaussian
from dphist.histogram import CoverageError, PrivateHistogram
from dphist.htf import HtfParams, release
from dphist.privacy import NoiseSource
from dphist.queries import (
    EvalReport,
    Workload,
    WorkloadSpec,
    answer_workload,
    evaluate,
    generate_workload,
    load_workload,
    relative_error,
    save_workload,
)

from oracles import generate_workload_loop, naive_region_sum

FIG_GRID = np.array([[0, 0, 4], [3, 3, 1], [3, 3, 1]])


def fig_histogram(n1=0.0, n2=0.0, n3=0.0, n4=0.0):
    # the four worked-example partitions with injectable noise values
    bounds = [(0, 1, 0, 2), (1, 3, 0, 2), (0, 1, 2, 3), (1, 3, 2, 3)]
    ncounts = [0 + n1, 12 + n2, 4 + n3, 2 + n4]
    return PrivateHistogram(shape=(3, 3), bounds=bounds, ncounts=ncounts, eps_total=1.0)


def cell_expansion_oracle(hist, query):
    """Spread each leaf count uniformly over its cells, then sum the query."""
    density = np.zeros(hist.shape)
    for (r0, r1, c0, c1), ncount in zip(hist.bounds, hist.ncounts):
        density[r0:r1, c0:c1] = ncount / ((r1 - r0) * (c1 - c0))
    r0, r1, c0, c1 = query
    return density[r0:r1, c0:c1].sum()


class TestAnswerQuery:
    def test_worked_example_formula(self):
        n2, n4 = 0.75, -1.25
        hist = fig_histogram(n2=n2, n4=n4)
        # dashed query: bottom row, right two columns
        got = answer_workload(hist, Workload([(2, 3, 1, 3)]))[0]
        assert got == pytest.approx((12 + n2) / 4 + (2 + n4) / 2)

    def test_whole_domain_sums_all_leaves(self):
        hist = fig_histogram(n1=0.5, n2=1.5, n3=-2.0, n4=0.25)
        got = answer_workload(hist, Workload([(0, 3, 0, 3)]))[0]
        assert got == pytest.approx(hist.ncounts.sum())

    def test_matches_cell_expansion_oracle(self):
        rng = np.random.default_rng(23)
        matrix = FrequencyMatrix(rng.integers(0, 30, size=(32, 32)))
        hist = release(matrix, HtfParams(eps_total=0.4, height_override=4), NoiseSource(4))
        for _ in range(500):
            r0, c0 = rng.integers(0, 32, size=2)
            query = (int(r0), int(rng.integers(r0 + 1, 33)), int(c0), int(rng.integers(c0 + 1, 33)))
            assert answer_workload(hist, Workload([query]))[0] == pytest.approx(
                cell_expansion_oracle(hist, query), abs=1e-9
            )

    def test_out_of_bounds_query(self):
        with pytest.raises(ValueError):
            answer_workload(fig_histogram(), Workload([(0, 4, 0, 3)]))[0]

    def test_linear_in_counts(self):
        hist = fig_histogram(n1=0.3, n2=-0.7, n3=2.0, n4=0.1)
        query = (1, 3, 0, 3)
        scaled = PrivateHistogram(
            shape=hist.shape, bounds=hist.bounds, ncounts=3.0 * hist.ncounts, eps_total=1.0
        )
        one = Workload([query])
        assert answer_workload(scaled, one)[0] == pytest.approx(3.0 * answer_workload(hist, one)[0])

    def test_disjoint_cover_sums_to_total(self):
        hist = fig_histogram(n1=1.0, n2=2.0, n3=3.0, n4=4.0)
        parts = [(0, 3, 0, 1), (0, 3, 1, 2), (0, 3, 2, 3)]
        total = sum(answer_workload(hist, Workload([p]))[0] for p in parts)
        assert total == pytest.approx(hist.ncounts.sum())


class TestTrueCount:
    def test_empty_matrix(self):
        assert FrequencyMatrix.zeros(4, 4).region_sums([(0, 4, 0, 4)])[0] == 0

    def test_worked_example_query(self):
        matrix = FrequencyMatrix(FIG_GRID)
        assert matrix.region_sums([(2, 3, 1, 3)])[0] == 4

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(31)
        counts = rng.integers(0, 10, size=(20, 20))
        matrix = FrequencyMatrix(counts)
        for _ in range(100):
            r0, c0 = rng.integers(0, 20, size=2)
            r1, c1 = rng.integers(r0 + 1, 21), rng.integers(c0 + 1, 21)
            region = (int(r0), int(r1), int(c0), int(c1))
            assert matrix.region_sums([region])[0] == naive_region_sum(counts, r0, r1, c0, c1)


class TestRelativeError:
    def test_basic(self):
        assert relative_error(100, 110, 20) == pytest.approx(10.0)

    def test_smoothing_floor(self):
        assert relative_error(0, 5, 20) == pytest.approx(25.0)

    def test_exact_answer(self):
        assert relative_error(123, 123.0, 20) == 0.0

    def test_smoothing_must_be_positive(self):
        with pytest.raises(ValueError):
            relative_error(1, 1, 0)

    @pytest.mark.parametrize("smoothing", [-1.0, float("nan"), float("inf")])
    def test_smoothing_must_be_finite_too(self, smoothing):
        with pytest.raises(ValueError, match="smoothing must be positive and finite"):
            relative_error(1, 1, smoothing)


class TestGenerateWorkload:
    def test_full_domain_squares(self):
        wl = generate_workload(WorkloadSpec(20, "square", 1.0, seed=0), 64, 64)
        assert all(tuple(q) == (0, 64, 0, 64) for q in wl.queries)

    def test_seed_reproducibility(self):
        a = generate_workload(WorkloadSpec(100, "random", "random", seed=9), 128, 128)
        b = generate_workload(WorkloadSpec(100, "random", "random", seed=9), 128, 128)
        assert np.array_equal(a.queries, b.queries)

    def test_two_percent_side_length(self):
        wl = generate_workload(WorkloadSpec(50, "square", 0.02, seed=1), 1024, 1024)
        sides_r = wl.queries[:, 1] - wl.queries[:, 0]
        sides_c = wl.queries[:, 3] - wl.queries[:, 2]
        assert (sides_r == 145).all() and (sides_c == 145).all()

    def test_queries_in_bounds(self):
        wl = generate_workload(WorkloadSpec(500, "random", "random", seed=3), 37, 53)
        q = wl.queries
        assert (q[:, 0] >= 0).all() and (q[:, 1] <= 37).all()
        assert (q[:, 2] >= 0).all() and (q[:, 3] <= 53).all()
        assert (q[:, 1] > q[:, 0]).all() and (q[:, 3] > q[:, 2]).all()

    # grid sides where Lemire's test rejects few words, and sides of 2^31 and above, where it rejects up to half
    SIDES = st.one_of(
        st.sampled_from([1, 2, 3, 5, 37, 64, 1024, 2**31 - 1, 2**31, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32]),
        st.integers(1, 2**32),
    )

    @settings(max_examples=300, deadline=None)
    @given(
        count=st.integers(0, 300),
        rows=SIDES,
        cols=SIDES,
        size=st.none() | st.floats(1e-6, 1.0),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_matches_the_per_query_loop(self, count, rows, cols, size, seed):
        spec = WorkloadSpec(count, seed=seed) if size is None else WorkloadSpec(count, "square", size, seed=seed)
        got = generate_workload(spec, rows, cols)
        assert got.queries.dtype == np.int64 and got.spec == spec
        assert np.array_equal(got.queries, generate_workload_loop(spec, rows, cols).queries)

    @pytest.mark.parametrize(
        "spec, rows, cols",
        [
            (WorkloadSpec(2000, seed=1), 1024, 1024),
            (WorkloadSpec(500, seed=3), 1, 5),
            (WorkloadSpec(500, seed=3), 2, 2),
            (WorkloadSpec(50, seed=3), 1, 1),
            # a quarter to a half of the words drawn over these ranges are rejected, so the words first read run out
            (WorkloadSpec(300, seed=4), 3 * 2**30, 5),
            (WorkloadSpec(300, seed=5), 7, 2**31 + 1),
            (WorkloadSpec(300, "square", 0.1, seed=6), 3 * 2**30, 7),
            (WorkloadSpec(300, "square", 1.0, seed=6), 1, 9),
            # sides that round to 0, so every query is one cell
            (WorkloadSpec(50, "square", 1e-6, seed=7), 1, 1),
            (WorkloadSpec(50, "square", 1e-6, seed=7), 3, 3),
        ],
    )
    def test_matches_the_per_query_loop_at_the_edges(self, spec, rows, cols):
        assert np.array_equal(generate_workload(spec, rows, cols).queries, generate_workload_loop(spec, rows, cols).queries)

    @pytest.mark.parametrize("count", [0, 3])
    @pytest.mark.parametrize("shape, size", [("random", "random"), ("square", 0.5)])
    @pytest.mark.parametrize("rows, cols", [(0, 5), (5, 0), (-3, 5), (5, -1), (2**32 + 1, 5), (5, 2**32 + 1)])
    def test_grid_outside_one_to_2_32_raises_naming_it(self, rows, cols, shape, size, count):
        with pytest.raises(ValueError, match=f"grid of 1 to 2\\^32 rows and columns, got {rows}x{cols}"):
            generate_workload(WorkloadSpec(count, shape, size, seed=1), rows, cols)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            WorkloadSpec(10, "square", "random")
        with pytest.raises(ValueError):
            WorkloadSpec(10, "random", 0.02)
        with pytest.raises(ValueError):
            WorkloadSpec(10, "hexagon", "random")


class TestEvaluate:
    def test_zero_noise_leaf_aligned_queries(self):
        rng = np.random.default_rng(6)
        matrix = FrequencyMatrix(rng.integers(0, 50, size=(32, 32)))
        hist = release(
            matrix,
            HtfParams(eps_total=0.5, height_override=4, stop_count=25.0),
            NoiseSource(0, zero_noise=True),
        )
        workload = Workload(queries=hist.bounds.copy())
        report = evaluate(hist, matrix, workload)
        assert report.mre == 0.0

    def test_mre_is_mean_of_rows(self):
        matrix = FrequencyMatrix(FIG_GRID)
        hist = fig_histogram(n1=2.0, n2=-1.0, n3=0.5, n4=1.0)
        wl = generate_workload(WorkloadSpec(64, "random", "random", seed=2), 3, 3)
        report = evaluate(hist, matrix, wl)
        assert report.mre == pytest.approx(report.rel_errors.mean())

    def test_order_invariance(self):
        matrix = FrequencyMatrix(FIG_GRID)
        hist = fig_histogram(n2=3.0)
        wl = generate_workload(WorkloadSpec(32, "random", "random", seed=4), 3, 3)
        shuffled = Workload(queries=wl.queries[::-1].copy())
        assert evaluate(hist, matrix, wl).mre == pytest.approx(evaluate(hist, matrix, shuffled).mre)

    def test_report_file(self, tmp_path):
        matrix = FrequencyMatrix(FIG_GRID)
        hist = fig_histogram(n2=1.0)
        wl = generate_workload(WorkloadSpec(10, "random", "random", seed=5), 3, 3)
        report = evaluate(hist, matrix, wl)
        path = tmp_path / "report.csv"
        report.save(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "query_id,true,answer,rel_err"
        assert len(lines) == 12  # header + 10 rows + summary footer
        assert lines[-1].startswith("# summary mre=")

    @pytest.mark.parametrize(
        "values",
        [
            np.empty((0, 3)),
            np.array([[np.nan, np.inf, -np.inf], [-0.0, 0.0, 1e300], [5e-324, 1 / 3, -123456789.123456789]]),
            np.random.default_rng(13).normal(0.0, 1e4, size=(40_000, 3)),
        ],
        ids=["empty", "edge-values", "more-than-one-chunk"],
    )
    def test_report_matches_per_line_format(self, tmp_path, values):
        true, answers, rel = values.T
        report = EvalReport(true=true, answers=answers, rel_errors=rel, mre=float(np.mean(rel)) if len(rel) else 0.0, smoothing=20.0)
        path = tmp_path / "report.csv"
        report.save(path)
        # one line at a time, as the format is specified
        expected = "query_id,true,answer,rel_err\n" + "".join(
            f"{i},{t:.12g},{a:.12g},{e:.12g}\n" for i, (t, a, e) in enumerate(zip(true, answers, rel))
        ) + f"# summary mre={report.mre:.12g} queries={len(true)} smoothing=20\n"
        assert path.read_text() == expected

    def test_rejects_a_workload_of_no_queries(self):
        # a mean over no queries is undefined, not a perfect score
        with pytest.raises(ValueError, match="holds no queries"):
            evaluate(fig_histogram(), FrequencyMatrix(FIG_GRID), Workload(queries=np.empty((0, 4))))

    def test_rejects_bad_queries_naming_the_first(self):
        matrix = FrequencyMatrix(FIG_GRID)
        hist = fig_histogram()
        for bad in [(0, 4, 0, 3), (1, 1, 0, 3), (0, 3, 2, 1), (-1, 2, 0, 3)]:
            workload = Workload(queries=[(0, 3, 0, 3), bad, (0, 4, 0, 4)])
            with pytest.raises(ValueError, match=rf"query 1 \({bad[0]}, {bad[1]}, {bad[2]}, {bad[3]}\)"):
                evaluate(hist, matrix, workload)

    def test_true_counts_match_naive_loop(self):
        rng = np.random.default_rng(17)
        counts = rng.integers(0, 10, size=(9, 13))
        matrix = FrequencyMatrix(counts)
        hist = PrivateHistogram(shape=(9, 13), bounds=[(0, 9, 0, 13)], ncounts=[0.0], eps_total=1.0)
        wl = generate_workload(WorkloadSpec(200, "random", "random", seed=6), 9, 13)
        report = evaluate(hist, matrix, wl)
        assert report.true.tolist() == [naive_region_sum(counts, *q) for q in wl.queries.tolist()]


METHODS = ("htf", "ug", "ag", "quadtree", "kdtree", "singular", "uniform")


def cli_release(method, matrix, seed):
    """What ``dphist release --method <method> --eps-total 0.5 --seed <seed>`` releases for ``matrix``."""
    args = cli.build_parser().parse_args(
        ["release", "--matrix", "-", "--method", method, "--eps-total", "0.5", "--seed", str(seed), "--out", "-"]
    )
    return cli.build_release(matrix, args, NoiseSource(seed))


@pytest.fixture
def paints(monkeypatch):
    """The grid shape of each ``kernels.leaf_owner`` call, under both names the package calls it by."""
    calls = []
    original = kernels.leaf_owner

    def counted(bounds, shape):
        calls.append(shape)
        return original(bounds, shape)

    monkeypatch.setattr(kernels, "leaf_owner", counted)
    monkeypatch.setattr(histogram, "leaf_owner", counted)
    return calls


class TestKeptPaint:
    @pytest.mark.parametrize("method", METHODS)
    def test_release_and_evaluate_paint_once(self, paints, method):
        matrix = generate_gaussian(20_000, 8.0, 64, 64, seed=1)
        workload = generate_workload(WorkloadSpec(100, seed=1), 64, 64)
        hist = cli_release(method, matrix, 1)
        evaluate(hist, matrix, workload)
        assert paints == [(64, 64)]
        assert hist.take_owner() is None  # the first answer took the paint

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n", [64, 256])
    def test_kept_paint_answers_as_a_fresh_one(self, paints, n, seed):
        matrix = generate_gaussian(20_000, n / 8, n, n, seed=seed)
        workload = generate_workload(WorkloadSpec(300, seed=seed), n, n)
        for method in METHODS:
            hist = cli_release(method, matrix, seed)
            fresh = kernels.answer_workload(hist.bounds, hist.ncounts, workload.queries, hist.shape)
            del paints[:]
            assert answer_workload(hist, workload).tobytes() == fresh.tobytes(), method
            assert paints == [], method

    @pytest.mark.parametrize("method", METHODS)
    def test_copies_loads_and_second_answers_paint_again(self, paints, tmp_path, method):
        matrix = generate_gaussian(20_000, 8.0, 64, 64, seed=2)
        workload = generate_workload(WorkloadSpec(200, seed=2), 64, 64)
        hist = cli_release(method, matrix, 2)
        hist.save(tmp_path / "h.hist")
        # all three are made while the release still holds its paint
        replaced, clamped, loaded = replace(hist), hist.clamp_nonnegative(), PrivateHistogram.load(tmp_path / "h.hist")
        first = answer_workload(hist, workload)
        del paints[:]
        again = [answer_workload(h, workload).tobytes() for h in (hist, replaced, loaded)]
        assert again == [first.tobytes()] * 3
        clamped_answers = answer_workload(clamped, workload)
        assert paints == [(64, 64)] * 4
        fresh = kernels.answer_workload(clamped.bounds, clamped.ncounts, workload.queries, clamped.shape)
        assert clamped_answers.tobytes() == fresh.tobytes()

    def test_validate_cover_returns_the_paint(self):
        hist = fig_histogram()
        paint, fresh = hist.validate_cover(), kernels.leaf_owner(hist.bounds, (3, 3))
        assert [part.tolist() for part in paint] == [part.tolist() for part in fresh]
        assert paint.row_edges.tolist() == [0, 1, 3] and paint.col_edges.tolist() == [0, 2, 3]
        assert paint.owner.shape == (3, 3)  # blocks of the leaves' own edges, not (4, 4) cells
        assert hist.take_owner() is None  # only ``audited`` keeps a paint

    @pytest.mark.parametrize("bounds", [[(0, 2, 0, 2), (0, 1, 0, 1)], [(0, 1, 0, 2), (0, 1, 0, 2)]])
    def test_hand_built_overlap_raises_when_answered(self, bounds):
        hist = PrivateHistogram(shape=(2, 2), bounds=bounds, ncounts=[1.0, 2.0], eps_total=1.0)
        with pytest.raises(CoverageError):
            answer_workload(hist, Workload(queries=[(0, 1, 0, 1)]))


class TestWorkloadShape:
    @pytest.mark.parametrize(
        "queries",
        [np.arange(12).reshape(4, 3), np.arange(8), np.arange(3), np.zeros((2, 4, 1)), np.empty((0, 3)), 5],
        ids=["4x3", "8", "3", "2x4x1", "0x3", "scalar"],
    )
    def test_anything_but_rectangles_raises(self, queries):
        with pytest.raises(ValueError, match="queries must be a \\(Q, 4\\) array"):
            Workload(queries)

    @pytest.mark.parametrize(
        "queries, rows",
        [([], 0), (np.empty((0, 4)), 0), ((0, 1, 0, 2), 1), ([(0, 1, 0, 2), (1, 3, 0, 1)], 2)],
        ids=["empty", "0x4", "one", "two"],
    )
    def test_rectangles_kept_as_rows(self, queries, rows):
        got = Workload(queries).queries
        assert got.shape == (rows, 4) and got.dtype == np.int64
        assert np.array_equal(got.ravel(), np.ravel(queries))


class TestWorkloadFiles:
    def test_round_trip(self, tmp_path):
        wl = generate_workload(WorkloadSpec(25, "random", "random", seed=8), 16, 16)
        path = tmp_path / "wl.txt"
        save_workload(wl, path)
        loaded = load_workload(path)
        assert np.array_equal(loaded.queries, wl.queries)
        assert path.read_text() == "".join(f"{a} {b} {c} {d}\n" for a, b, c, d in wl.queries.tolist())

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "wl.txt"
        path.write_text("# queries\n0 4 0 4\n\n   \n# more\n1 32 1 32\n")
        assert load_workload(path).queries.tolist() == [[0, 4, 0, 4], [1, 32, 1, 32]]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "wl.txt"
        path.write_text("# no queries\n")
        assert load_workload(path).queries.shape == (0, 4)

    @pytest.mark.parametrize("line", ["0 4 0", "0 4 0 4 7", "0 4.5 0 4", "a b c d", "0 4 0 4\n1 2 3"])
    def test_malformed_line_rejected(self, tmp_path, line):
        path = tmp_path / "wl.txt"
        path.write_text(f"{line}\n")
        with pytest.raises(ValueError):
            load_workload(path)
