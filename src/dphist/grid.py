"""Gridded representation of a 2D point dataset.

A dataset is discretized onto an N x M grid of non-negative cell counts
(the frequency matrix). The matrix is immutable after construction and
carries a 2D prefix-sum table so any rectangular sub-grid total is an
O(1) lookup; ``region_sums`` takes a ``(K, 4)`` array of rectangles, each
the half-open integer bounds ``(row_lo, row_hi, col_lo, col_hi)``. Also
provides the seeded Gaussian-cluster generator used for synthetic
experiments and the plain-text file formats consumed by the CLI. Every
table of numbers is written by ``write_rows``: byte for byte as Python's
``%`` writes it, from numpy arrays where that is proven exact and through
``%`` itself, one value at a time, where it is not. ``load_matrix`` parses
``save_matrix``'s own layout as arrays, and any other through ``np.loadtxt``.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import re
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


def require_inside(rects, rows: int, cols: int, what: str, error=ValueError) -> np.ndarray:
    """Raise ``error`` at the first ``(K, 4)`` half-open rectangle that is empty or leaves a rows x cols grid.

    The message starts with ``what``, in which ``{}`` stands for the
    rectangle's index, then gives its bounds. Returns the ``(4, K)`` int64
    transpose of ``rects``, one row per bound, contiguous when ``rects`` is column-major.
    """
    columns = np.asarray(rects, dtype=np.int64).reshape(-1, 4).T  # not copied: that raises a loaded .hist's peak
    r0, r1, c0, c1 = columns
    ok = (0 <= r0) & (r0 < r1) & (r1 <= rows) & (0 <= c0) & (c0 < c1) & (c1 <= cols)
    if not ok.all():
        bad = int(ok.argmin())
        raise error(f"{what.format(bad)} {tuple(columns[:, bad].tolist())} is empty or outside the {rows}x{cols} grid")
    return columns


class FrequencyMatrix:
    """Immutable N x M grid of whole, non-negative cell counts totalling below 2^63, with O(1) rectangle sums."""

    def __init__(self, counts):
        arr = np.asarray(counts)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("counts must be a non-empty 2D array")
        # a float count must equal its integer part, which NaN never does
        if arr.dtype.kind not in "biuf" or (arr.dtype.kind == "f" and not (arr == np.trunc(arr)).all()):
            raise ValueError(f"cell counts must be whole numbers below 2^63, got {arr.dtype} counts")
        if arr.min() < 0:
            raise ValueError("cell counts must be non-negative")
        top = arr.max().item()
        # the total is at most top·N·M: only a matrix that could reach 2^63 is summed exactly
        if top * arr.size >= 2**63 and (top >= 2**63 or arr.astype(np.int64).sum(dtype=object) >= 2**63):
            raise ValueError("cell counts must total below 2^63, the int64 bound of the matrix's prefix sums")
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        arr.setflags(write=False)
        self._counts = arr
        # padded prefix table: _prefix[i, j] = sum of counts[:i, :j]
        prefix = np.zeros((arr.shape[0] + 1, arr.shape[1] + 1), dtype=np.int64)
        np.cumsum(arr, axis=1, out=prefix[1:, 1:])
        np.cumsum(prefix, axis=0, out=prefix)  # in place: an int64 accumulate down rows into a new array is slower
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

    def region_sums(self, rects) -> np.ndarray:
        """Totals inside the ``(K, 4)`` half-open rectangles ``rects``, four prefix lookups each."""
        r0, r1, c0, c1 = require_inside(rects, self.rows, self.cols, "region {}")
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

    x, y = pts.T
    inside = (x >= x_min) & (x < x_max) & (y >= y_min) & (y < y_max)
    if not inside.all():
        if not np.isfinite(pts[~inside]).all():  # nan and inf are never inside
            raise ValueError("point coordinates must be finite")
        x, y = x[inside], y[inside]
    r = np.minimum((x - x_min) * (rows / (x_max - x_min)), rows - 1).astype(np.int64)
    c = np.minimum((y - y_min) * (cols / (y_max - y_min)), cols - 1).astype(np.int64)
    return FrequencyMatrix(np.bincount(r * cols + c, minlength=rows * cols).reshape(rows, cols)), len(pts) - len(x)


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
    pts = rng.standard_normal((n, 2))
    pts *= sigma  # then + center: center + rng.normal(0.0, sigma), bit for bit, a column at a time
    x, y = pts.T
    x += center[0]
    y += center[1]
    bad = np.flatnonzero(_outside(pts, rows, cols))
    for _ in range(100):
        if not len(bad):
            break
        pts[bad] = redrawn = rng.standard_normal((len(bad), 2)) * sigma + center
        bad = bad[_outside(redrawn, rows, cols)]
    # inside the far edge also as ``save_points`` prints it, to ten significant digits; only stragglers lie below 0
    np.minimum(x, rows * (1.0 - 1e-9), out=x)
    np.minimum(y, cols * (1.0 - 1e-9), out=y)
    pts[bad] = np.maximum(pts[bad], 0.0)
    return pts


def _outside(pts, rows: int, cols: int) -> np.ndarray:
    """Which of the ``(k, 2)`` points lie outside [0, rows) x [0, cols), tested a column at a time."""
    x, y = pts.T
    return (x < 0.0) | (x >= rows) | (y < 0.0) | (y >= cols)


def generate_gaussian(n: int, sigma: float, rows: int, cols: int, seed: int) -> FrequencyMatrix:
    """Synthetic Gaussian-cluster frequency matrix, bit-reproducible per seed."""
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    pts = sample_gaussian_points(n, sigma, rows, cols, rng)
    matrix, rejected = discretize(pts, (0.0, rows, 0.0, cols), rows, cols)
    assert rejected == 0
    return matrix


# ---------------------------------------------------------------------------
# file formats

# values formatted per write: bounds the temporary arrays and strings to a few MB
_WRITE_CHUNK = 1 << 17
_CONVERSION = re.compile(r"%(d|r|\.\d+g)")
_G_DIGITS = 12  # the widest %.<p>g the array path formats: its digits and point fit in 16 bytes
_POW10 = 10.0 ** np.arange(_G_DIGITS + 1)  # exact
_GROUP = 10_000  # digits are looked up four at a time


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each v < 10**4 as four ASCII digits in a little-endian uint32, the first in the lowest byte: zero-padded,
    and with leading zeros as NUL (0 is all NUL); and v's trailing zero digits (4 for 0)."""
    v = np.arange(_GROUP)
    digits = np.stack([v // 10 ** (3 - j) % 10 for j in range(4)], axis=1)
    text = (digits + ord("0")).astype(np.uint8)
    padded = text.view("<u4")[:, 0]
    unpadded = np.where(np.cumsum(digits, axis=1) == 0, 0, text).astype(np.uint8).view("<u4")[:, 0]
    trailing = np.cumprod(digits[:, ::-1] == 0, axis=1).sum(axis=1)
    for table in (padded, unpadded, trailing):
        table.flags.writeable = False
    return padded, unpadded, trailing


@functools.cache
def _point_masks() -> np.ndarray:
    """``(3, 256, 2)`` little-endian words of 16-byte masks, at ``16 * k + t`` for the point at byte k and the
    last nonzero digit at byte t: the bytes before k, the fraction's bytes (shifted one right) and the point."""
    masks = np.zeros((3, 16, 16, 16), np.uint8)
    for k in range(16):
        masks[0, k, :, :k] = 0xFF
        for t in range(k, 16):  # a nonzero fraction digit: keep the point and the digits up to t
            masks[1, k, t, k + 1:t + 2] = 0xFF
            masks[2, k, t, k] = ord(".")
    masks = masks.reshape(3, 256, 16).view("<u8")
    masks.flags.writeable = False
    return masks


def _digit_words(mag: np.ndarray, groups: int, width: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The ASCII digits of each ``mag < 10**(4 * groups)`` in the first ``groups`` of ``width`` little-endian
    uint32 words, right-aligned with leading zeros as NUL (0 as one ``0``); and its four-digit groups, most
    significant first."""
    padded, unpadded, _ = _digit_tables()
    parts = []
    for _ in range(groups - 1):
        rest = mag // _GROUP  # floor division by a constant is fast; % is not
        parts.append(mag - rest * _GROUP)
        mag = rest
    parts = [mag, *parts[::-1]]
    words = np.zeros((len(mag), width), "<u4")
    words[:, 0] = unpadded[parts[0]]
    leading = parts[0] == 0  # no nonzero digit yet
    for i, part in enumerate(parts[1:], 1):
        words[:, i] = np.where(leading, unpadded[part], padded[part]) if leading.any() else padded[part]
        leading &= part == 0
    words[leading, groups - 1] = ord("0") << 24
    return words, parts


def _d_field(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``%d`` of each value as NUL-padded ASCII rows, and which rows are right."""
    n = len(values)
    if np.can_cast(values.dtype, np.int64):
        ints, ok = values.astype(np.int64), np.ones(n, bool)
    elif values.dtype.kind == "f":
        ok = np.abs(values) < 2.0**63  # finite and inside int64; %d truncates toward zero, as the cast does
        ints = np.where(ok, values, 0.0).astype(np.int64)
    else:
        return np.zeros((n, 0), np.uint8), np.zeros(n, bool)
    negative = ints < 0
    mag = ints.view(np.uint64)
    mag = np.where(negative, -mag, mag)  # two's complement: exact for -2**63 too
    digits = len(str(int(mag.max())))
    groups = -(-digits // 4)
    words, _ = _digit_words(mag, groups, groups)
    text = words.view(np.uint8)[:, 4 * groups - digits:]  # leading bytes NUL in every row: each NUL costs the write
    if not negative.any():
        return text, ok
    return np.hstack([(negative * np.uint8(ord("-")))[:, None], text]), ok


def _g_field(x: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """``%.<p>g`` of each ``x`` in the fast domain as NUL-padded ASCII rows, and which rows are right (see
    ``write_rows``)."""
    n = len(x)
    if not 1 <= p <= _G_DIGITS:
        return np.zeros((n, 0), np.uint8), np.zeros(n, bool)
    # nan, inf, 0, negatives and huge values warn here, and fail the test below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        e = np.clip(np.log10(x).astype(np.intp), 0, p - 1)
        y = x * _POW10[p - 1 - e]
        mantissa = np.rint(y)
        ok = (y >= _POW10[p - 1]) & (mantissa < _POW10[p]) & (np.abs(y - np.floor(y) - 0.5) > np.spacing(_POW10[p]))
        mantissa = np.where(ok, mantissa, _POW10[p - 1]).astype(np.int64)
    groups = -(-p // 4)
    width = 4 * groups
    words, parts = _digit_words(mantissa, groups, 4)
    _, _, trailing = _digit_tables()
    zeros = trailing[parts[-1]]
    for i, part in enumerate(parts[-2::-1], 1):  # rows whose later groups are all zero count on
        rows = np.flatnonzero(zeros == 4 * i)
        zeros[rows] += trailing[part[rows]]
    # the point goes at byte k, after the integer digits; byte t holds the last nonzero digit
    code = 16 * (width - p + 1 + e) + (width - 1 - zeros)
    digits = words.view("<u8")
    shifted = digits << np.uint64(8)
    shifted[:, 1] |= digits[:, 0] >> np.uint64(56)
    keep, fraction, point = (m.take(code, axis=0) for m in _point_masks())
    keep &= digits
    fraction &= shifted
    keep |= fraction
    keep |= point
    return keep.astype("<u8", copy=False).view(np.uint8)[:, width - p:width + 1], ok


def _field(values: np.ndarray, conversion: str) -> np.ndarray:
    """Each value through ``%`` and ``conversion`` as a ``(n, w)`` uint8 array of ASCII, padded with NUL anywhere."""
    fmt = "%" + conversion
    if conversion == "d":
        field, ok = _d_field(values)
    elif conversion == "r":
        field, ok = np.zeros((len(values), 0), np.uint8), np.zeros(len(values), bool)
    else:
        field, ok = _g_field(np.asarray(values, dtype=np.float64), int(conversion[1:-1]))
    bad = np.flatnonzero(~ok)
    if len(bad):
        text = np.array([fmt % v for v in values[bad].tolist()], dtype=bytes)
        padded = np.zeros((len(values), max(field.shape[1], text.itemsize)), np.uint8)
        padded[:, :field.shape[1]] = field
        padded[bad] = 0
        padded[bad, :text.itemsize] = text.view(np.uint8).reshape(len(bad), text.itemsize)
        field = padded
    return field


def write_rows(fh, values: np.ndarray, row_format: str) -> None:
    """Write each row of the 2D ``values`` through ``row_format``, byte for byte as Python's ``%`` writes it.

    ``row_format`` holds one ``%d``, ``%r`` or ``%.<p>g`` per column between ASCII literals. Each chunk of rows
    becomes one uint8 array of fields and literals, each field padded with NUL, and is written once its NULs
    are removed. Columns in a run with one conversion, each followed by a literal of one length, are
    formatted as one array. ``%d`` and ``%.<p>g`` fields are made from a table of four-digit groups; a value
    the array path cannot format exactly takes Python's ``%``, that field only, as does every ``%r`` field.

    The ``%.<p>g`` array path, for ``p <= 12``, is exact. Let ``e`` be any guess in ``[0, p)`` of the
    decimal exponent (``log10``'s, clipped), ``y = fl(x * 10**(p-1-e))`` (the power of ten is exact) and
    ``M = rint(y)``. The value is formatted from ``M`` only when ``10**(p-1) <= y``, ``M < 10**p`` and
    ``y``'s fraction is more than ``ulp(10**p)`` from one half. Then ``y`` is within half an ulp of
    ``x * 10**(p-1-e)``, so ``M`` is that product correctly rounded, and ``e`` is the exponent ``%g`` picks
    after rounding: had the guess been one too high, ``y`` would round up to ``10**(p-1)`` and so would
    ``%g``. ``x`` is written in fixed notation as the digits of ``M`` with the point after ``e + 1`` of
    them, trailing fraction zeros and a bare point dropped. Every other value takes Python's ``%``: 0, -0.0,
    negatives, values below 1, values ``%g`` writes with an exponent, nan, inf, near-ties and mantissas that
    round up to ``10**p``.
    """
    parts = _CONVERSION.split(row_format)
    head, conversions, tails = parts[0], parts[1::2], parts[2::2]
    literals_ok = all("%" not in s and "\0" not in s and s.isascii() for s in parts[0::2])
    if len(conversions) != values.shape[1] or not literals_ok:
        raise ValueError(f"row format {row_format!r} is not {values.shape[1]} fields of %d, %r or %.<p>g")
    runs = []
    for (conversion, width), run in itertools.groupby(range(len(tails)), lambda j: (conversions[j], len(tails[j]))):
        run = list(run)
        literal = np.frombuffer("".join(tails[j] for j in run).encode("ascii"), np.uint8)
        runs.append((run[0], run[-1] + 1, conversion, literal.reshape(len(run), width)))
    head = np.frombuffer(head.encode("ascii"), np.uint8)
    step = max(1, _WRITE_CHUNK // values.shape[1])
    for start in range(0, values.shape[0], step):
        chunk = values[start:start + step]
        n = chunk.shape[0]
        pieces = [np.broadcast_to(head, (n, len(head)))]
        for lo, hi, conversion, literal in runs:
            field = _field(chunk[:, lo:hi].ravel(), conversion).reshape(n, hi - lo, -1)
            piece = np.empty((n, hi - lo, field.shape[2] + literal.shape[1]), np.uint8)
            piece[:, :, :field.shape[2]] = field
            piece[:, :, field.shape[2]:] = literal
            pieces.append(piece.reshape(n, -1))
        fh.write(np.hstack(pieces).tobytes().replace(b"\0", b"").decode("ascii"))


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


_READ_BLOCK = 1 << 18  # bytes of whole matrix lines parsed at a time
_MATRIX_HEADER = re.compile(rb"(\d+) (\d+) (\d+)\n")


def save_matrix(matrix: FrequencyMatrix, path) -> None:
    """Snapshot export: header ``N M total`` then N rows of M integers."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{matrix.rows} {matrix.cols} {matrix.total}\n")
        write_rows(fh, matrix.counts, " ".join(["%d"] * matrix.cols) + "\n")


def _read_counts(fh) -> tuple[np.ndarray, int] | None:
    """The counts and header total of a file in ``save_matrix``'s own layout, parsed as arrays; None for any other.

    That layout is the header ``N M total``, then N lines of M runs of 1-18 ASCII digits one space apart, each line
    ended by ``\n``: ``np.loadtxt`` reads the same integers there. Each block of whole lines is scanned once for its
    separators, and digit k is read from the tokens wider than k only. A block with more digits after each token's
    first than tokens is None too: ``np.loadtxt`` is faster there than a pass per digit.
    """
    head = _MATRIX_HEADER.fullmatch(fh.readline())
    if not head:
        return None
    rows, cols, total = (int(v) for v in head.groups())
    if not 0 < rows * cols <= (os.fstat(fh.fileno()).st_size - fh.tell()) // 2:  # each token is 2 bytes or more
        return None
    counts = np.empty(rows * cols, np.int64)
    done = 0
    while lines := fh.readlines(_READ_BLOCK):
        text = np.frombuffer(b"".join((b"\n", *lines)), np.uint8)  # a separator before the first token
        ends = np.flatnonzero(text < ord("0"))
        gaps, ends = np.diff(ends), ends[1:]  # each token's width plus one, and the separator after it
        n = len(ends)
        if not n or n % cols or done + n > len(counts) or ends[-1] != len(text) - 1 or len(text) > 3 * n + 1:
            return None
        separators = text.take(ends).reshape(-1, cols)
        if (gaps.min() < 2 or gaps.max() > 19 or text.max() > ord("9")  # 18 digits are below 2^63
                or (separators[:, -1] != ord("\n")).any() or (separators[:, :-1] != ord(" ")).any()):
            return None
        out = counts[done:done + n]
        np.subtract(text.take(ends - 1), ord("0"), out=out)
        wide = np.flatnonzero(gaps > 2)
        for k in range(1, gaps.max() - 1):
            out[wide] += np.multiply(text.take(ends[wide] - (k + 1)) - ord("0"), 10**k, dtype=np.int64)
            wide = wide[gaps[wide] > k + 2]
        done += n
    return (counts.reshape(rows, cols), total) if done == len(counts) else None


def load_matrix(path) -> FrequencyMatrix:
    """Read a matrix snapshot: ``save_matrix``'s own layout as arrays, any other through ``np.loadtxt``."""
    with open(path, "rb") as fh:
        read = _read_counts(fh)
    if read:
        counts, total = read
    else:
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
