"""Independent brute-force oracles shared across test modules.

The objective oracles deliberately avoid the package's kernels: plain
python loops and naive summations only, so they stay independent of the
code paths they check. The split selectors at the end (the full
objective scan, its exact argmin and the exhaustive noisy argmin) are
the references the private quartering search is measured against; no
release calls them.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from dphist.grid import FrequencyMatrix
from dphist.htf import OBJECTIVE_SENSITIVITY, SPLIT, UnsplittableAxisError
from dphist.privacy import SPLIT as SPLIT_SITE
from dphist.privacy import BudgetLedger, NoiseSource, laplace_sample, path_code


def cluster_deviation(cells) -> float:
    if not cells:
        return 0.0
    mu = sum(cells) / len(cells)
    return sum(abs(c - mu) for c in cells)


def objective_value(block, k, row_split=True) -> float:
    """Summed absolute deviation of the two clusters split at index k."""
    rows = [list(r) for r in block]
    if not row_split:
        rows = [list(col) for col in zip(*rows)]
    first = [c for row in rows[:k] for c in row]
    second = [c for row in rows[k:] for c in row]
    return cluster_deviation(first) + cluster_deviation(second)


def objective_value_exact(block, k, row_split=True) -> Fraction:
    """Objective in exact rational arithmetic (no float rounding)."""
    rows = [list(r) for r in block]
    if not row_split:
        rows = [list(col) for col in zip(*rows)]

    def dev(cells):
        if not cells:
            return Fraction(0)
        mu = Fraction(sum(cells), len(cells))
        return sum((abs(Fraction(c) - mu) for c in cells), Fraction(0))

    first = [c for row in rows[:k] for c in row]
    second = [c for row in rows[k:] for c in row]
    return dev(first) + dev(second)


def objective_argmins_exact(block, row_split=True) -> list[int]:
    """All exact minimizers over real splits, ascending."""
    rows = block if row_split else list(zip(*block))
    values = [objective_value_exact(block, k, row_split) for k in range(1, len(rows))]
    best = min(values)
    return [k + 1 for k, v in enumerate(values) if v == best]


def naive_region_sum(counts, row_lo, row_hi, col_lo, col_hi) -> int:
    total = 0
    for i in range(row_lo, row_hi):
        for j in range(col_lo, col_hi):
            total += int(counts[i][j])
    return total


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
    """Objective values for every candidate split ``k = 1 .. extent`` of ``counts[r0:r1, c0:c1]``."""
    if row_split:
        return _objective_scan_rows(counts, r0, r1, c0, c1)
    return _objective_scan_rows(counts.T, c0, c1, r0, r1)


def _scan(matrix, axis: str) -> np.ndarray:
    counts = matrix.counts if isinstance(matrix, FrequencyMatrix) else np.ascontiguousarray(matrix, dtype=np.int64)
    extent = counts.shape[0] if axis == "y" else counts.shape[1]
    if extent < 2:
        raise UnsplittableAxisError(f"cannot split axis {axis} of extent {extent}")
    return objective_scan(counts, 0, counts.shape[0], 0, counts.shape[1], axis == "y")[: extent - 1]


def optimal_split_exact(matrix, axis: str) -> int:
    """Non-private argmin of the objective over k in 1..extent-1; ties break toward the smallest index."""
    return int(np.argmin(_scan(matrix, axis))) + 1


def noisy_split_baseline(
    matrix,
    axis: str,
    eps_partition_level: float,
    noise: NoiseSource,
    *,
    ledger: BudgetLedger | None = None,
    path: tuple[int, ...] = (),
    level: int = 0,
) -> int:
    """Exhaustive private selection: perturb every candidate, take the argmin.

    All ``extent - 1`` real splits are evaluated, each with independent
    Laplace(2 / eps_eval) noise where ``eps_eval`` divides the per-level
    budget evenly, so the whole level budget is consumed in one call.
    """
    if eps_partition_level <= 0:
        raise ValueError("eps_partition_level must be positive")
    scan = _scan(matrix, axis)
    eps_eval = eps_partition_level / len(scan)
    src = noise.substream("baseline-split")
    code = path_code(path)
    noisy = np.empty_like(scan)
    for i in range(len(scan)):
        draw = laplace_sample(OBJECTIVE_SENSITIVITY, eps_eval, src, SPLIT_SITE, code, i, 0)
        noisy[i] = scan[i] + draw
        if ledger is not None:
            ledger.charge(SPLIT, eps_eval, path=path, level=level)
    return int(np.argmin(noisy)) + 1
