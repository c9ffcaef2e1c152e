"""Hot numeric kernels.

Two inner loops dominate runtime on large grids: evaluating the
homogeneity objective for candidate split indices while the tree is
built, and expanding released leaves against a query workload.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "objective_at",
    "objective_scan",
    "answer_workload",
]


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


def _objective_scan_rows(counts, r0, r1, c0, c1):
    block = counts[r0:r1, c0:c1].astype(np.float64)
    u, v = block.shape
    row_tot = block.sum(axis=1)
    prefix = np.cumsum(row_tot)
    total = prefix[-1]
    out = np.empty(u, dtype=np.float64)
    for k in range(1, u + 1):
        mu1 = prefix[k - 1] / (k * v)
        dev = np.abs(block[:k] - mu1).sum()
        if k < u:
            mu2 = (total - prefix[k - 1]) / ((u - k) * v)
            dev += np.abs(block[k:] - mu2).sum()
        out[k - 1] = dev
    return out


def objective_scan(counts, r0, r1, c0, c1, row_split):
    """Objective values for every candidate split ``k = 1 .. extent``."""
    if row_split:
        return _objective_scan_rows(counts, r0, r1, c0, c1)
    return _objective_scan_rows(counts.T, c0, c1, r0, r1)


def answer_workload(bounds, ncounts, queries):
    """Uniform-density expansion of released leaves over query rectangles.

    ``bounds`` is an ``(L, 4)`` array of half-open leaf rectangles
    ``row_lo, row_hi, col_lo, col_hi``; each query picks up
    ``ncount * overlap_cells / leaf_cells`` from every leaf it touches.
    """
    cells = ((bounds[:, 1] - bounds[:, 0]) * (bounds[:, 3] - bounds[:, 2])).astype(np.float64)
    out = np.empty(queries.shape[0], dtype=np.float64)
    for q in range(queries.shape[0]):
        r_lo = np.maximum(bounds[:, 0], queries[q, 0])
        r_hi = np.minimum(bounds[:, 1], queries[q, 1])
        c_lo = np.maximum(bounds[:, 2], queries[q, 2])
        c_hi = np.minimum(bounds[:, 3], queries[q, 3])
        overlap = np.maximum(r_hi - r_lo, 0) * np.maximum(c_hi - c_lo, 0)
        out[q] = float(np.sum(ncounts * overlap / cells))
    return out
