"""Hot numeric kernels.

Two inner loops dominate runtime on large grids: evaluating the
homogeneity objective for candidate split indices while the tree is
built, and expanding released leaves against a query workload.

The objective of a split is the summed absolute deviation of each of its
two clusters from the cluster mean. For n cells of sum S that is
``2·(S·n_< - n·S_<) / n``, n_< and S_< the count and sum of the cells at or
below ``(S - 1) // n``: the cells below the mean S/n, whose deviations
sum to those above it. The numerator is exact in int64 while
``(total + 1)·N·M <= 2^63``, which ``LevelObjective`` checks, so a value
does not depend on the order of any sum: it is the exact rational
rounded once per cluster, and the two clusters added. ``LevelObjective``
scores a whole tree level at once: it sorts every line across the split
axis of every block in one buffer, and then each evaluation of the level
costs one ``searchsorted`` per line and a few passes over the lines, not
a pass over every cell. ``objective_at`` is its call on one split of one
block.

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

from .grid import FrequencyMatrix, require_inside

__all__ = [
    "CoverageError",
    "objective_at",
    "LevelObjective",
    "LeafPaint",
    "leaf_owner",
    "answer_workload",
]


class CoverageError(RuntimeError):
    """Released leaves fail to tile the domain exactly."""


def _deviation(total, cells, below, below_sum):
    """``2·(total·below - cells·below_sum) / cells``: a cluster's summed deviation from its mean; 0 when empty."""
    return 2.0 * (total * below - cells * below_sum) / np.maximum(cells, 1)


def objective_at(counts, r0, r1, c0, c1, k, row_split):
    """``LevelObjective`` of the one block ``counts[r0:r1, c0:c1]`` cut after ``k`` rows (columns unless ``row_split``).

    The summed absolute deviation of each cluster's cells from its mean; ``k`` equal to the extent scores the block whole.
    """
    return float(LevelObjective(FrequencyMatrix(counts), [(r0, r1, c0, c1)], row_split)([[k]])[0, 0])


class LevelObjective:
    """``objective_at`` of every block of a tree level, at a split index per block and evaluation.

    ``bounds`` is a ``(K, 4)`` array of disjoint blocks of ``matrix`` and
    ``row_split`` says, per block, whether its split index counts rows (else
    columns): its lines. Each block is copied once, its lines as contiguous
    rows (a column split copies the transposed block), and each line is
    sorted. Line ``i`` of the level then adds ``i·(max + 1)`` to its cells,
    so that the whole level is one sorted key array, with one cumulative
    sum of the sorted cells. A cluster's cells at or below a threshold are
    then one ``searchsorted`` per line, whatever the width of the line.
    """

    def __init__(self, matrix, bounds, row_split):
        counts, total = matrix.counts, matrix.total
        rows, cols = counts.shape
        if (total + 1) * rows * cols > 2**63:
            raise ValueError(
                f"a total of {total} on a {rows}x{cols} grid is past the exact split objective's "
                f"int64 range: (total + 1)·N·M must not exceed 2^63"
            )
        r0, r1, c0, c1 = require_inside(bounds, rows, cols, "block {}")
        row_split = np.broadcast_to(np.asarray(row_split, dtype=bool), r0.shape)
        self.extent = np.where(row_split, r1 - r0, c1 - c0)
        self.width = np.where(row_split, c1 - c0, r1 - r0)
        self.start = np.concatenate(([0], np.cumsum(self.extent * self.width)))  # cells before block i
        self.first = np.concatenate(([0], np.cumsum(self.extent)))  # lines before block i
        widths = np.repeat(self.width, self.extent)
        self.line_start = np.concatenate(([0], np.cumsum(widths)))  # cells before line i
        # every cell and partial sum is at most the total
        dtype = np.int32 if total < 2**31 else np.int64
        cells = np.empty(int(self.start[-1]), dtype=dtype)
        for i, (a, b, c, d, by_rows) in enumerate(zip(*(x.tolist() for x in (r0, r1, c0, c1, row_split)))):
            block = cells[self.start[i]:self.start[i + 1]].reshape((b - a, d - c) if by_rows else (d - c, b - a))
            if by_rows:
                block[...] = counts[a:b, c:d]
            else:  # a transposed view sorts several times slower than a contiguous copy, made 64 rows at a time
                for j in range(a, b, 64):
                    block[:, j - a:j - a + 64] = counts[j:min(j + 64, b), c:d].T
            block.sort(axis=1)
        self.prefix = np.zeros(len(cells) + 1, dtype=dtype)
        np.cumsum(cells, out=self.prefix[1:])
        self.line_prefix = self.prefix[self.line_start[:-1]].astype(np.int64)
        stride = int(cells.take(self.line_start[1:] - 1).max(initial=0)) + 1  # a sorted line ends on its max
        keys = np.int32 if dtype == np.int32 and len(widths) * stride <= 2**31 else np.int64
        self.base = (np.arange(len(widths)) * stride).astype(keys)  # below line i's keys, above line i-1's
        self.keys = cells.astype(keys, copy=False)
        self.keys += np.repeat(self.base, widths)

    def __call__(self, k) -> np.ndarray:
        """The ``(K, E)`` objective values of block i split at ``k[i, e]``, each in ``[1, extent]``."""
        k = np.asarray(k, dtype=np.int64).reshape(len(self.extent), -1)
        if ((k < 1) | (k > self.extent[:, None])).any():
            raise ValueError("split index outside [1, extent]")
        evals, lines = k.shape[1], len(self.base)
        # per block, evaluation and cluster (last axis): lines, cells, total, threshold
        span = np.stack([k, self.extent[:, None] - k], axis=2)
        n = span * self.width[:, None, None]
        ends = np.concatenate([np.zeros_like(n[..., :1]), np.cumsum(n, axis=2)], axis=2)
        total = np.diff(self.prefix.take(self.start[:-1, None, None] + ends).astype(np.int64), axis=2)
        # a count c lies below its cluster's mean S/n exactly when c <= (S - 1) // n
        threshold = (total - 1) // np.maximum(n, 1)
        order = (1, 0, 2)  # evaluation-major: each evaluation's thresholds cover the level's lines in order
        query = np.repeat(threshold.transpose(order).astype(self.keys.dtype).ravel(), span.transpose(order).ravel())
        query = query.reshape(evals, lines)
        query += self.base
        pos = self.keys.searchsorted(query, side="right")
        # per evaluation, the cumulative count and sum of the cells below each line's threshold
        below = np.zeros((2, evals, lines + 1), dtype=np.int64)
        np.subtract(pos, self.line_start[:-1], out=below[0, :, 1:])
        np.subtract(self.prefix.take(pos), self.line_prefix, out=below[1, :, 1:])
        np.cumsum(below, axis=2, out=below)
        edges = np.concatenate([np.zeros_like(span[..., :1]), np.cumsum(span, axis=2)], axis=2)
        edges += self.first[:-1, None, None] + (np.arange(evals) * (lines + 1))[None, :, None]
        count, mass = np.diff(below.reshape(2, -1)[:, edges], axis=3)
        value = _deviation(total, n, count, mass)
        return value[..., 0] + value[..., 1]


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
    # the first edge at or above r is edge number (edges below r): an edge count, summed, then a take
    i, j = (
        np.bincount(edges[:-1] + 1, minlength=n + 1).cumsum().take(corners)
        for edges, n, corners in ((row_edges, shape[0], queries[:2]), (col_edges, shape[1], queries[2:]))
    )
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
