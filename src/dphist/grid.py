"""Gridded representation of a 2D point dataset.

A dataset is discretized onto an N x M grid of non-negative cell counts
(the frequency matrix). The matrix is immutable after construction and
carries a 2D prefix-sum table so any rectangular sub-grid total is an
O(1) lookup; a rectangle is the half-open integer bounds ``(row_lo,
row_hi, col_lo, col_hi)``, one tuple or a ``(K, 4)`` array of them. Also
provides the seeded Gaussian-cluster generator used for synthetic
experiments and the plain-text file formats consumed by the CLI.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .privacy import require_positive

__all__ = [
    "FrequencyMatrix",
    "discretize",
    "require_inside",
    "sample_gaussian_points",
    "generate_gaussian",
    "save_points",
    "load_points",
    "save_matrix",
    "load_matrix",
]


def require_inside(rects: np.ndarray, rows: int, cols: int, what: str, error=ValueError) -> None:
    """Raise ``error`` at the first ``(K, 4)`` half-open rectangle that is empty or leaves a rows x cols grid.

    The message starts with ``what``, in which ``{}`` stands for the
    rectangle's index, then gives its bounds.
    """
    r0, r1, c0, c1 = rects.T
    ok = (0 <= r0) & (r0 < r1) & (r1 <= rows) & (0 <= c0) & (c0 < c1) & (c1 <= cols)
    if not ok.all():
        bad = int(ok.argmin())
        raise error(f"{what.format(bad)} {tuple(rects[bad].tolist())} is empty or outside the {rows}x{cols} grid")


class FrequencyMatrix:
    """Immutable N x M grid of cell counts with O(1) rectangle sums."""

    def __init__(self, counts):
        arr = np.asarray(counts)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("counts must be a non-empty 2D array")
        if np.any(arr < 0):
            raise ValueError("cell counts must be non-negative")
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        arr.setflags(write=False)
        self._counts = arr
        # padded prefix table: _prefix[i, j] = sum of counts[:i, :j]
        prefix = np.zeros((arr.shape[0] + 1, arr.shape[1] + 1), dtype=np.int64)
        np.cumsum(np.cumsum(arr, axis=0), axis=1, out=prefix[1:, 1:])
        prefix.setflags(write=False)
        self._prefix = prefix

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "FrequencyMatrix":
        if rows < 1 or cols < 1:
            raise ValueError("grid dimensions must be positive")
        return cls(np.zeros((rows, cols), dtype=np.int64))

    @property
    def counts(self) -> np.ndarray:
        return self._counts

    @property
    def rows(self) -> int:
        return self._counts.shape[0]

    @property
    def cols(self) -> int:
        return self._counts.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._counts.shape

    @property
    def total(self) -> int:
        return int(self._prefix[-1, -1])

    def region_sum(self, bounds) -> int:
        """``region_sums`` of one rectangle, without the array set-up that would dominate a tree's child counts."""
        r0, r1, c0, c1 = bounds
        if not (0 <= r0 < r1 <= self.rows and 0 <= c0 < c1 <= self.cols):
            raise ValueError(f"region {(r0, r1, c0, c1)} is empty or outside the {self.rows}x{self.cols} grid")
        p = self._prefix
        return int(p[r1, c1] - p[r0, c1] - p[r1, c0] + p[r0, c0])

    def region_sums(self, rects) -> np.ndarray:
        """Totals inside the ``(K, 4)`` half-open rectangles ``rects``, four prefix lookups each."""
        rects = np.asarray(rects, dtype=np.int64).reshape(-1, 4)
        require_inside(rects, self.rows, self.cols, "region {}")
        r0, r1, c0, c1 = rects.T
        p = self._prefix
        return p[r1, c1] - p[r0, c1] - p[r1, c0] + p[r0, c0]

    def __eq__(self, other) -> bool:
        return isinstance(other, FrequencyMatrix) and np.array_equal(self._counts, other._counts)


def discretize(points, bounds, rows: int, cols: int) -> tuple[FrequencyMatrix, int]:
    """Bin (x, y) points onto a rows x cols grid.

    ``bounds`` is ``(x_min, x_max, y_min, y_max)`` and maps half-open:
    x covers the row axis, y the column axis. Points outside the bounds
    are excluded and tallied; returns ``(matrix, n_rejected)`` so that
    ``matrix.total + n_rejected`` equals the number of input points.
    """
    x_min, x_max, y_min, y_max = (float(b) for b in bounds)
    if not (math.isfinite(x_min) and math.isfinite(x_max) and math.isfinite(y_min) and math.isfinite(y_max)):
        raise ValueError("bounds must be finite")
    if x_max <= x_min or y_max <= y_min:
        raise ValueError("degenerate bounds")
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")

    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return FrequencyMatrix.zeros(rows, cols), 0
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array of x,y pairs")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point coordinates must be finite")

    x = pts[:, 0]
    y = pts[:, 1]
    inside = (x >= x_min) & (x < x_max) & (y >= y_min) & (y < y_max)
    xi = x[inside]
    yi = y[inside]
    r = np.minimum((xi - x_min) * (rows / (x_max - x_min)), rows - 1).astype(np.int64)
    c = np.minimum((yi - y_min) * (cols / (y_max - y_min)), cols - 1).astype(np.int64)
    flat = np.bincount(r * cols + c, minlength=rows * cols)
    matrix = FrequencyMatrix(flat.reshape(rows, cols))
    return matrix, int(pts.shape[0] - xi.shape[0])


def sample_gaussian_points(n: int, sigma: float, rows: int, cols: int, rng) -> np.ndarray:
    """Draw ``n`` points from one Gaussian cluster inside [0, rows) x [0, cols).

    The cluster center is chosen uniformly at random; out-of-domain draws
    are resampled up to 100 times and any stragglers are clamped to the
    nearest boundary cell, so the output always has exactly ``n`` points.
    Each round redraws, in row order, only the rows still outside, and
    checks only those again. Coordinates are in cell units.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    require_positive("sigma", sigma)
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    center = rng.uniform(0.0, [rows, cols])
    pts = center + rng.normal(0.0, sigma, size=(n, 2))
    hi = np.array([rows, cols], dtype=np.float64)
    bad = np.flatnonzero(np.any((pts < 0.0) | (pts >= hi), axis=1))
    for _ in range(100):
        if not len(bad):
            break
        redrawn = center + rng.normal(0.0, sigma, size=(len(bad), 2))
        pts[bad] = redrawn
        bad = bad[np.any((redrawn < 0.0) | (redrawn >= hi), axis=1)]
    # inside the far edge also as ``save_points`` prints it, to ten significant digits
    np.clip(pts, 0.0, hi * (1.0 - 1e-9), out=pts)
    return pts


def generate_gaussian(n: int, sigma: float, rows: int, cols: int, seed: int) -> FrequencyMatrix:
    """Synthetic Gaussian-cluster frequency matrix, bit-reproducible per seed."""
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    pts = sample_gaussian_points(n, sigma, rows, cols, rng)
    matrix, rejected = discretize(pts, (0.0, rows, 0.0, cols), rows, cols)
    assert rejected == 0
    return matrix


# ---------------------------------------------------------------------------
# file formats

# values formatted per write: bounds the temporary strings to a few MB
_WRITE_CHUNK = 1 << 17


def write_rows(fh, values: np.ndarray, row_format: str) -> None:
    """Write each row of the 2D ``values`` through ``row_format``, one ``%`` per chunk."""
    step = max(1, _WRITE_CHUNK // values.shape[1])
    for start in range(0, values.shape[0], step):
        chunk = values[start:start + step]
        fh.write((row_format * chunk.shape[0]) % tuple(chunk.ravel().tolist()))


def save_points(points, path) -> None:
    """Write points as one ``x,y`` pair per line."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# x,y\n")
        write_rows(fh, pts, "%.10g,%.10g\n")


def loadtxt(source, dtype, delimiter=None, comments="#", ndmin=2) -> np.ndarray:
    """``np.loadtxt``, by default of a 2D table with ``#`` comments; a source with no rows is an empty table, not a warning."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="loadtxt: input contained no data", category=UserWarning)
        return np.loadtxt(source, dtype=dtype, delimiter=delimiter, comments=comments, ndmin=ndmin)


def read_rows(path, dtype, width: int, delimiter=None) -> np.ndarray:
    """Read a ``(K, width)`` table of numbers; ``#`` comments and blank lines are ignored.

    Raises ValueError on a line that is not ``width`` numbers of ``dtype``.
    """
    values = loadtxt(path, dtype, delimiter)
    if values.size == 0:
        return np.empty((0, width), dtype=dtype)
    if values.shape[1] != width:
        raise ValueError(f"{path}: expected {width} values per line, got {values.shape[1]}")
    return values


def load_points(path) -> np.ndarray:
    """Read a point file; ``#`` comment lines and blank lines are ignored.

    Raises ValueError on a line that is not one ``x,y`` pair of numbers.
    """
    return read_rows(path, np.float64, 2, delimiter=",")


def save_matrix(matrix: FrequencyMatrix, path) -> None:
    """Snapshot export: header ``N M total`` then N rows of M integers."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{matrix.rows} {matrix.cols} {matrix.total}\n")
        write_rows(fh, matrix.counts, " ".join(["%d"] * matrix.cols) + "\n")


def load_matrix(path) -> FrequencyMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError(f"{path}: malformed matrix header")
        rows, cols, total = (int(v) for v in header)
        counts = loadtxt(fh, np.int64)
    if counts.shape != (rows, cols):
        raise ValueError(f"{path}: expected {rows}x{cols} matrix, got {counts.shape}")
    matrix = FrequencyMatrix(counts)
    if matrix.total != total:
        raise ValueError(f"{path}: header total {total} != cell sum {matrix.total}")
    return matrix
