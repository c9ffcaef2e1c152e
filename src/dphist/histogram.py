"""Released private histogram: disjoint noisy-count leaves tiling the grid."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Region
from .kernels import CoverageError, leaf_owner
from .privacy import BudgetLedger, BudgetSplit

__all__ = ["CoverageError", "PrivateHistogram"]


@dataclass
class PrivateHistogram:
    """Leaf rectangles with noisy counts covering an N x M grid.

    ``bounds`` is an ``(L, 4)`` int64 array of half-open rectangles
    ``row_lo, row_hi, col_lo, col_hi`` and ``ncounts`` the matching
    noisy totals (may be negative; see ``clamp_nonnegative``).
    """

    shape: tuple[int, int]
    bounds: np.ndarray
    ncounts: np.ndarray
    eps_total: float
    method: str = ""
    split: BudgetSplit | None = None
    ledger: BudgetLedger | None = field(default=None, repr=False)

    def __post_init__(self):
        self.bounds = np.asarray(self.bounds, dtype=np.int64).reshape(-1, 4)
        self.ncounts = np.asarray(self.ncounts, dtype=np.float64).reshape(-1)
        if self.bounds.shape[0] != self.ncounts.shape[0]:
            raise ValueError("bounds and ncounts length mismatch")

    def __len__(self) -> int:
        return self.bounds.shape[0]

    @property
    def regions(self) -> list[Region]:
        return [Region(*row) for row in self.bounds.tolist()]

    def validate_cover(self) -> None:
        """Check the leaves are pairwise disjoint and tile the full grid."""
        leaf_owner(self.bounds, self.shape)

    def clamp_nonnegative(self) -> "PrivateHistogram":
        """Post-processed copy with negative counts raised to zero."""
        return PrivateHistogram(
            shape=self.shape,
            bounds=self.bounds.copy(),
            ncounts=np.maximum(self.ncounts, 0.0),
            eps_total=self.eps_total,
            method=self.method,
            split=self.split,
            ledger=self.ledger,
        )

    def save(self, path) -> None:
        """Header ``N M eps_total leaf_count``, then one leaf per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{self.shape[0]} {self.shape[1]} {self.eps_total:.12g} {len(self)}\n")
            for (r_lo, r_hi, c_lo, c_hi), ncount in zip(self.bounds, self.ncounts):
                fh.write(f"{r_lo} {r_hi} {c_lo} {c_hi} {ncount:.12g}\n")

    @classmethod
    def load(cls, path) -> "PrivateHistogram":
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().split()
            if len(header) != 4:
                raise ValueError(f"{path}: malformed histogram header")
            rows, cols = int(header[0]), int(header[1])
            eps_total = float(header[2])
            leaf_count = int(header[3])
            bounds = np.empty((leaf_count, 4), dtype=np.int64)
            ncounts = np.empty(leaf_count, dtype=np.float64)
            for i in range(leaf_count):
                parts = fh.readline().split()
                if len(parts) != 5:
                    raise ValueError(f"{path}: malformed leaf line {i + 1}")
                bounds[i] = [int(v) for v in parts[:4]]
                ncounts[i] = float(parts[4])
            if fh.read().strip():
                raise ValueError(f"{path}: content after the {leaf_count} leaves the header declares")
        finite = np.isfinite(ncounts)
        if not finite.all():
            raise ValueError(f"{path}: leaf line {int(finite.argmin()) + 1} has a non-finite count")
        return cls(shape=(rows, cols), bounds=bounds, ncounts=ncounts, eps_total=eps_total)
