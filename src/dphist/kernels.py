"""Hot numeric kernels.

Two inner loops dominate runtime on large grids: evaluating the
homogeneity objective for candidate split indices while the tree is
built, and expanding released leaves against a query workload.

Answering works on the leaves' own edges: 0, N (M) and every leaf's row
(column) bounds cut the grid into R x C blocks, each leaf a union of them.
``leaf_owner`` paints each block with its leaf's index (an integer
corner-difference array and two cumulative sums, which also proves that
the leaves tile the grid). With (e, f) the first edges at or above a query
corner (r, c), a = e - r and b = f - c, the cells [r:, c:] hold
G + a·RS + b·CS + a·b·d: G the mass of [e:, f:], RS (CS) the mass per row
(column) of [r:e, f:] ([e:, c:f]), d the density of the block holding
(r, c). ``answer_workload`` costs O(L + N + M + R·C + Q) for L leaves and
Q queries. A release's cover audit paints it once; its first answer takes
that paint as ``owner`` (``PrivateHistogram.audited``), others paint again.

A plain float64 prefix sum loses small answers: its entries carry the
mass of the whole release, so the four-corner difference of a query over
near-empty cells keeps rounding error of that mass's order. The
densities are therefore split error-free, as ``ExtractScalar`` does in
Rump, Ogita and Oishi, "Accurate floating-point summation part I", SIAM
J. Sci. Comput. 2008. With ``S = sum |ncount|`` and
``k = 50 - ceil(log2(S + 1))``, ``hi`` is each density rounded to a
multiple of 2^-k and ``lo = density - hi`` (exact, |lo| <= 2^-(k+1)).
Any sum of ``hi`` over a set of cells is a multiple of 2^-k below
2^(50-k) + N·M·2^-(k+1) in magnitude, as is every table entry, each of
the four terms (over disjoint sets) and each partial sum building them;
a four-corner difference passes through at most twice that. Both stay
under 2^(53-k) for any grid of fewer than 2^51 cells, so all ``hi``
arithmetic is exact in float64; only ``lo`` rounds, on values that small.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .grid import require_inside

__all__ = [
    "CoverageError",
    "objective_at",
    "LeafPaint",
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


LeafPaint = namedtuple("LeafPaint", "owner row_edges col_edges")


def leaf_owner(bounds, shape) -> LeafPaint:
    """Paint ``index + 1`` of the leaf holding each block; raise CoverageError unless the leaves tile.

    ``bounds`` is an ``(L, 4)`` array of half-open leaf rectangles ``row_lo, row_hi, col_lo, col_hi``
    on an ``(N, M)`` grid. ``owner[i, j]`` of the ``LeafPaint`` holds rows ``row_edges[i]:row_edges[i + 1]``
    by the like columns; its last row and column lie past the grid and are 0. The leaves tile the grid
    exactly when each lies inside it and is non-empty, their cells add up to N·M, each ends on an edge
    (0, N or a ``row_lo``; 0, M or a ``col_lo``: in a tiling one leaf starts where another ends), and
    every block is painted.
    """
    rows, cols = shape
    r0, r1, c0, c1 = require_inside(bounds, rows, cols, "leaf", CoverageError)
    cells = int(((r1 - r0) * (c1 - c0)).sum())
    if cells != rows * cols:
        raise CoverageError(f"leaves hold {cells} cells of the {rows}x{cols} grid")
    # index sums wrap in int32 only where leaves overlap, and an uncovered block still reads 0
    dtype = np.int32 if (rows + 1) * (cols + 1) < 2**31 else np.int64
    edges, index, step = [], [], 1
    for n, lo, hi in ((cols, c0, c1), (rows, r0, r1)):  # columns first: a row offset steps by their count
        at = np.full(n + 1, -1, dtype=dtype)
        at[[0, n]] = at[lo] = 0
        edges.insert(0, np.flatnonzero(at == 0))
        at[edges[0]] = np.arange(0, len(edges[0]) * step, step, dtype=dtype)  # flat block offsets; -1 off the edges
        index += [at.take(lo), at.take(hi)]
        step = len(edges[0])
    j0, j1, i0, i1 = index
    owner = np.zeros((len(edges[0]), len(edges[1])), dtype=dtype)
    flat = owner.reshape(-1)  # a view: flat indices make add.at several times faster
    ids = np.arange(1, len(r0) + 1, dtype=dtype)
    np.add.at(flat, i0 + j0, ids)
    np.subtract.at(flat, i0 + j1, ids)
    np.subtract.at(flat, i1 + j0, ids)
    np.add.at(flat, i1 + j1, ids)
    np.cumsum(owner, axis=0, dtype=dtype, out=owner)
    np.cumsum(owner, axis=1, dtype=dtype, out=owner)
    if min(i1.min(initial=0), j1.min(initial=0)) < 0 or not owner[:-1, :-1].all():
        raise CoverageError(f"leaves overlap and leave cells of the {rows}x{cols} grid uncovered")
    return LeafPaint(owner, *edges)


def answer_workload(bounds, ncounts, queries, shape, owner=None):
    """Uniform-density expansion of released leaves over query rectangles.

    ``bounds`` is an ``(L, 4)`` array of half-open leaf rectangles
    ``row_lo, row_hi, col_lo, col_hi`` that must tile the ``shape`` grid;
    each query, which must lie inside the grid, picks up
    ``ncount * overlap_cells / leaf_cells`` from every leaf it touches.
    ``owner`` is the ``LeafPaint`` of ``leaf_owner(bounds, shape)``, which
    already proves the tiling; without it the kernel paints the leaves
    itself and raises CoverageError unless they tile. Raises ValueError on
    a non-finite count or a paint whose edges do not fit the grid.
    """
    ncounts = np.asarray(ncounts, dtype=np.float64).reshape(-1)
    mass = float(np.abs(ncounts).sum())
    if not math.isfinite(mass):
        raise ValueError("leaf counts must be finite")
    paint, row_edges, col_edges = leaf_owner(bounds, shape) if owner is None else owner
    spans = all(len(e) and e[0] == 0 and e[-1] == n and (np.diff(e) > 0).all() for n, e in zip(shape, (row_edges, col_edges)))
    if not spans or paint.shape != (len(row_edges), len(col_edges)):
        raise ValueError(f"leaf paint of shape {paint.shape} on edges that do not tile the {shape[0]}x{shape[1]} grid")
    bounds = np.asarray(bounds, dtype=np.int64).reshape(-1, 4)
    density = ncounts / ((bounds[:, 1] - bounds[:, 0]) * (bounds[:, 3] - bounds[:, 2]))
    k = 50 - math.ceil(math.log2(mass + 1.0))
    hi = np.ldexp(np.rint(np.ldexp(density, k)), -k)
    # corners (r0, r1) down the first axis and (c0, c1) across the second; at is the flat index of block (e, f)
    queries = np.asarray(queries, dtype=np.int64).reshape(-1, 4).T
    i, j = np.searchsorted(row_edges, queries[:2]), np.searchsorted(col_edges, queries[2:])
    a, b = (row_edges[i] - queries[:2])[:, None], (col_edges[j] - queries[2:])[None, :]
    at = (i * paint.shape[1])[:, None] + j[None, :]
    h, w = np.diff(row_edges, append=shape[0])[:, None], np.diff(col_edges, append=shape[1])  # 0 past the grid
    table, out = np.empty(paint.shape, dtype=np.float64), np.zeros(queries.shape[1], dtype=np.float64)
    backward = table[::-1, ::-1]
    for part in (hi, density - hi):
        # owner 0 (past the grid) reads 0; every owner is a valid index, and "clip" only
        # spares take() buffering its output. A block index of -1 wraps to that zero row or column.
        np.take(np.concatenate(([0.0], part)), paint, out=table, mode="clip")
        corner, row_strip = (a * b) * table.take(at - len(w) - 1), 0.0
        if a.any():
            strips = table * w
            np.cumsum(strips[:, ::-1], axis=1, out=strips[:, ::-1])
            row_strip = a * strips.take(at - len(w))
        if len(h) <= shape[0]:  # unless every row is an edge, and h is 1 on the grid
            table *= h
        np.cumsum(backward, axis=0, out=backward)
        col_strip = b * table.take(at - 1)
        if len(w) <= shape[1]:
            table *= w
        np.cumsum(backward, axis=1, out=backward)
        f = table.take(at) + row_strip + col_strip + corner
        out += f[0, 0] - f[1, 0] - f[0, 1] + f[1, 1]
    return out
