"""Hot numeric kernels.

Two inner loops dominate runtime on large grids: evaluating the
homogeneity objective for candidate split indices while the tree is
built, and expanding released leaves against a query workload.

``answer_workload`` costs O(N·M + L + Q) for L leaves and Q queries on
an N x M grid. ``leaf_owner`` paints each cell with the index of the
leaf that holds it (an integer corner-difference array and two
cumulative sums, which also proves that the leaves tile the grid); each
cell then takes its leaf's density ``ncount / cells``, and each query is
four lookups in a 2D prefix sum of those densities.

A plain float64 prefix sum loses small answers: its entries carry the
mass of the whole release, so the four-corner difference of a query over
near-empty cells keeps rounding error of that mass's order. The
densities are therefore split error-free, as ``ExtractScalar`` does in
Rump, Ogita and Oishi, "Accurate floating-point summation part I", SIAM
J. Sci. Comput. 2008. With ``S = sum |ncount|`` and
``k = 50 - ceil(log2(S + 1))``, ``hi`` is each density rounded to a
multiple of 2^-k and ``lo = density - hi`` (exact, |lo| <= 2^-(k+1)).
Any sum of ``hi`` over a set of cells is a multiple of 2^-k below
2^(50-k) + N·M·2^-(k+1) in magnitude, and a four-corner difference
passes through at most twice that; both stay under 2^(53-k) for any
grid of fewer than 2^51 cells, so every ``hi`` prefix sum and difference
is exact in float64. Only the ``lo`` table rounds, on values that small.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import require_inside

__all__ = [
    "CoverageError",
    "objective_at",
    "leaf_owner",
    "answer_workload",
]


class CoverageError(RuntimeError):
    """Released leaves fail to tile the domain exactly."""


def _objective_at_rows(counts, r0, r1, c0, c1, k):
    u = r1 - r0
    v = c1 - c0
    top = counts[r0:r0 + k, c0:c1]
    mu1 = top.sum() / (k * v)
    dev = np.abs(top - mu1).sum()
    if k < u:
        bot = counts[r0 + k:r1, c0:c1]
        mu2 = bot.sum() / ((u - k) * v)
        dev += np.abs(bot - mu2).sum()
    return float(dev)


def objective_at(counts, r0, r1, c0, c1, k, row_split):
    """Homogeneity objective for one candidate split of a sub-grid.

    The sub-grid ``counts[r0:r1, c0:c1]`` is cut into a first cluster of
    ``k`` rows (columns when ``row_split`` is false) and the remainder;
    the value is the summed absolute deviation of each cluster's cells
    from the cluster mean. ``k`` equal to the full extent scores the
    undivided block.
    """
    if row_split:
        return _objective_at_rows(counts, r0, r1, c0, c1, k)
    return _objective_at_rows(counts.T, c0, c1, r0, r1, k)


def leaf_owner(bounds, shape) -> np.ndarray:
    """Paint ``index + 1`` of the leaf holding each cell; raise CoverageError unless the leaves tile.

    ``bounds`` is an ``(L, 4)`` array of half-open leaf rectangles
    ``row_lo, row_hi, col_lo, col_hi`` on a grid of ``shape`` ``(N, M)``.
    Returns an ``(N + 1, M + 1)`` integer array whose last row and column
    are 0. The leaves tile the grid exactly when each lies inside it and
    is non-empty, their cells add up to N·M, and every cell is painted.
    """
    rows, cols = shape
    r0, r1, c0, c1 = require_inside(bounds, rows, cols, "leaf", CoverageError)
    cells = int(((r1 - r0) * (c1 - c0)).sum())
    if cells != rows * cols:
        raise CoverageError(f"leaves hold {cells} cells of the {rows}x{cols} grid")
    # index sums wrap in int32 only where leaves overlap, and an uncovered cell still reads 0
    dtype = np.int32 if len(r0) < 2**31 else np.int64
    ids = np.arange(1, len(r0) + 1, dtype=dtype)
    owner = np.zeros((rows + 1, cols + 1), dtype=dtype)
    flat = owner.reshape(-1)  # a view: flat indices make add.at several times faster
    r0, r1 = r0 * (cols + 1), r1 * (cols + 1)
    np.add.at(flat, r0 + c0, ids)
    np.subtract.at(flat, r0 + c1, ids)
    np.subtract.at(flat, r1 + c0, ids)
    np.add.at(flat, r1 + c1, ids)
    np.cumsum(owner, axis=0, dtype=dtype, out=owner)
    np.cumsum(owner, axis=1, dtype=dtype, out=owner)
    if not owner[:rows, :cols].all():
        raise CoverageError(f"leaves overlap and leave cells of the {rows}x{cols} grid uncovered")
    return owner


def answer_workload(bounds, ncounts, queries, shape):
    """Uniform-density expansion of released leaves over query rectangles.

    ``bounds`` is an ``(L, 4)`` array of half-open leaf rectangles
    ``row_lo, row_hi, col_lo, col_hi`` that must tile the ``shape`` grid
    (CoverageError otherwise); each query, which must lie inside the
    grid, picks up ``ncount * overlap_cells / leaf_cells`` from every
    leaf it touches. Raises ValueError on a non-finite count.
    """
    ncounts = np.asarray(ncounts, dtype=np.float64).reshape(-1)
    mass = float(np.abs(ncounts).sum())
    if not math.isfinite(mass):
        raise ValueError("leaf counts must be finite")
    owner = leaf_owner(bounds, shape)
    bounds = np.asarray(bounds, dtype=np.int64).reshape(-1, 4)
    density = ncounts / ((bounds[:, 1] - bounds[:, 0]) * (bounds[:, 3] - bounds[:, 2]))
    k = 50 - math.ceil(math.log2(mass + 1.0))
    hi = np.ldexp(np.rint(np.ldexp(density, k)), -k)
    r0, r1, c0, c1 = np.asarray(queries, dtype=np.int64).reshape(-1, 4).T
    out = np.zeros(r0.shape[0], dtype=np.float64)
    table = np.empty(owner.shape, dtype=np.float64)
    for part in (hi, density - hi):
        # owner 0 (the last row and column) reads 0, so the table is a prefix sum
        # taken from the far corner: table[r, c] = sum of cells [r:, c:]. Every owner
        # is a valid index; "clip" only spares take() buffering its output.
        np.take(np.concatenate(([0.0], part)), owner, out=table, mode="clip")
        backward = table[::-1, ::-1]
        np.cumsum(backward, axis=0, out=backward)
        np.cumsum(backward, axis=1, out=backward)
        out += table[r0, c0] - table[r1, c0] - table[r0, c1] + table[r1, c1]
    return out
