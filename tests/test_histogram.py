import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dphist import baselines
from dphist.grid import generate_gaussian
from dphist.histogram import PrivateHistogram
from dphist.htf import HtfParams, release
from dphist.privacy import NoiseSource


def reference_text(hist):
    """The file format written one formatted line at a time, every float as its ``repr``."""
    lines = [f"{hist.shape[0]} {hist.shape[1]} {float(hist.eps_total)!r} {len(hist)}\n"]
    for (r0, r1, c0, c1), ncount in zip(hist.bounds.tolist(), hist.ncounts.tolist()):
        lines.append(f"{r0} {r1} {c0} {c1} {ncount!r}\n")
    return "".join(lines)


@st.composite
def histograms(draw):
    rows = draw(st.integers(1, 40))
    cols = draw(st.integers(1, 40))
    # vertical strips tile the grid
    cuts = sorted(draw(st.sets(st.integers(1, cols - 1), max_size=min(cols - 1, 30)))) if cols > 1 else []
    edges = [0, *cuts, cols]
    bounds = [(0, rows, lo, hi) for lo, hi in zip(edges, edges[1:])]
    special = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, -1.5, 1 / 3])
    finite = st.floats(allow_nan=False, allow_infinity=False)
    ncounts = draw(st.lists(st.one_of(special, finite), min_size=len(bounds), max_size=len(bounds)))
    eps = draw(st.floats(1e-6, 10.0))
    return PrivateHistogram(shape=(rows, cols), bounds=bounds, ncounts=ncounts, eps_total=eps)


class TestHistFiles:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(histograms())
    def test_save_load_save_is_byte_identical(self, tmp_path, hist):
        first, second = tmp_path / "a.hist", tmp_path / "b.hist"
        hist.save(first)
        assert first.read_text() == reference_text(hist)
        loaded = PrivateHistogram.load(first)
        loaded.save(second)
        assert second.read_bytes() == first.read_bytes()
        assert loaded.shape == hist.shape
        assert loaded.bounds.tolist() == hist.bounds.tolist()
        assert np.signbit(loaded.ncounts).tolist() == np.signbit(hist.ncounts).tolist()

    def test_empty_histogram_round_trip(self, tmp_path):
        path = tmp_path / "h.hist"
        PrivateHistogram(shape=(3, 4), bounds=np.empty((0, 4)), ncounts=[], eps_total=0.1).save(path)
        assert path.read_text() == "3 4 0.1 0\n"
        assert len(PrivateHistogram.load(path)) == 0

    @pytest.mark.parametrize(
        "body, line",
        [
            ("0 1 0 2 3\n0 1 0 2\n", 2),  # too few values
            ("0 1 0 2 3\n0 1 0 2 3 4\n", 2),  # too many values
            ("0 1.5 0 2 3\n0 1 0 2 3\n", 1),  # a fractional bound
            ("0 1 0 2 x\n0 1 0 2 3\n", 1),  # a count that is not a number
            ("0 1 0 2 3\n\n0 1 0 2 3\n", 2),  # a blank line inside the leaves
            ("0 1 0 2 3\n", 2),  # fewer leaves than declared
            ("0 1 0 2 3", 2),
            ("0 1 0 2 3\n0 1 0 2 3 # note\n", 2),
        ],
    )
    def test_malformed_leaf_line_is_named(self, tmp_path, body, line):
        path = tmp_path / "h.hist"
        path.write_text("2 2 0.1 2\n" + body)
        with pytest.raises(ValueError, match=f"malformed leaf line {line}$"):
            PrivateHistogram.load(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "h.hist"
        for header in ("2 2 0.1\n", "2 2 0.1 -1\n"):
            path.write_text(header)
            with pytest.raises(ValueError, match="malformed histogram header"):
                PrivateHistogram.load(path)

    def test_last_leaf_without_newline(self, tmp_path):
        path = tmp_path / "h.hist"
        path.write_text("2 2 0.1 2\n0 1 0 2 3\n1 2 0 2 -4")
        hist = PrivateHistogram.load(path)
        assert hist.ncounts.tolist() == [3.0, -4.0]

    def test_content_after_leaves_and_non_finite_count(self, tmp_path):
        path = tmp_path / "h.hist"
        path.write_text("2 2 0.1 1\n0 2 0 2 3\n\n0 1 0 1 1\n")
        with pytest.raises(ValueError, match="content after the 1 leaves"):
            PrivateHistogram.load(path)
        path.write_text("2 2 0.1 2\n0 1 0 2 3\n1 2 0 2 nan\n")
        with pytest.raises(ValueError, match="leaf line 2 has a non-finite count"):
            PrivateHistogram.load(path)


RELEASES = {
    "htf": lambda m, ns: release(m, HtfParams(eps_total=0.37, stop_count=20.0), ns),
    "ug": lambda m, ns: baselines.build_uniform_grid(m, 0.37, ns),
    "ag": lambda m, ns: baselines.build_adaptive_grid(m, 0.37, ns),
    "quadtree": lambda m, ns: baselines.build_quadtree(m, 0.37, 5, ns),
    "kdtree": lambda m, ns: baselines.build_kdtree(m, 0.37, 8, ns),
    "singular": lambda m, ns: baselines.build_singular(m, 0.37, ns),
    "uniform": lambda m, ns: baselines.build_flat_uniform(m, 0.37, ns),
}


@pytest.mark.parametrize("method", RELEASES)
def test_release_files_restore_every_bit(tmp_path, method):
    hist = RELEASES[method](generate_gaussian(20_000, 8.0, 64, 64, seed=2), NoiseSource(6))
    hist.save(tmp_path / "r.hist")
    hist.ledger.save(tmp_path / "r.ledger.csv")
    loaded = PrivateHistogram.load(tmp_path / "r.hist")
    assert [c.hex() for c in loaded.ncounts.tolist()] == [c.hex() for c in hist.ncounts.tolist()]
    assert float(loaded.eps_total).hex() == float(hist.eps_total).hex()
    rows = (tmp_path / "r.ledger.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [float(row.split(",")[3]).hex() for row in rows] == [float(e[3]).hex() for e in hist.ledger.entries]
