"""Released private histogram: disjoint noisy-count leaves tiling the grid."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .grid import loadtxt, write_rows
from .kernels import CoverageError, leaf_owner
from .privacy import BudgetLedger, require_positive

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
    ledger: BudgetLedger | None = field(default=None, repr=False)
    _owner = None  # the paint ``audited`` keeps for the first answer; a class default, not a field

    def __post_init__(self):
        self.bounds = np.asarray(self.bounds, dtype=np.int64).reshape(-1, 4)
        self.ncounts = np.asarray(self.ncounts, dtype=np.float64).reshape(-1)
        if self.bounds.shape[0] != self.ncounts.shape[0]:
            raise ValueError("bounds and ncounts length mismatch")

    @classmethod
    def audited(cls, shape, bounds, ncounts, eps_total, ledger) -> "PrivateHistogram":
        """A new release, once its leaves tile the grid and no ledger path spends more than ``eps_total``.

        It keeps its audit's leaf paint for ``take_owner``; copies and loaded releases start without one.
        """
        hist = cls(shape, bounds, ncounts, eps_total, ledger)
        hist._owner = hist.validate_cover()
        ledger.assert_valid(eps_total)
        return hist

    def __len__(self) -> int:
        return self.bounds.shape[0]

    def validate_cover(self) -> np.ndarray:
        """The ``(N + 1, M + 1)`` leaf paint of ``kernels.leaf_owner``; CoverageError unless the leaves tile the grid."""
        return leaf_owner(self.bounds, self.shape)

    def take_owner(self) -> np.ndarray | None:
        """The leaf paint ``audited`` kept, once: the paint is dropped, so later calls return None."""
        owner, self._owner = self._owner, None
        return owner

    def clamp_nonnegative(self) -> "PrivateHistogram":
        """Post-processed copy with negative counts raised to zero."""
        return replace(self, bounds=self.bounds.copy(), ncounts=np.maximum(self.ncounts, 0.0))

    def save(self, path) -> None:
        """Header ``N M eps_total leaf_count``, then one leaf per line; floats written as ``repr`` load back bit for bit."""
        rows = np.empty((len(self), 5), dtype=np.float64)  # grid coordinates are exact in float64
        rows[:, :4] = self.bounds
        rows[:, 4] = self.ncounts
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{self.shape[0]} {self.shape[1]} {float(self.eps_total)!r} {len(self)}\n")
            write_rows(fh, rows, "%d %d %d %d %r\n")

    @classmethod
    def load(cls, path) -> "PrivateHistogram":
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().split()
            if len(header) != 4:
                raise ValueError(f"{path}: malformed histogram header")
            rows, cols = int(header[0]), int(header[1])
            eps_total = float(header[2])
            require_positive(f"{path}: header eps_total", eps_total)
            leaf_count = int(header[3])
            if leaf_count < 0:
                raise ValueError(f"{path}: malformed histogram header")
            leaves = _parse_leaves(islice(fh, leaf_count), leaf_count)
            if leaves is None:
                raise ValueError(f"{path}: malformed leaf line {_first_malformed(path, leaf_count)}")
            if fh.read().strip():
                raise ValueError(f"{path}: content after the {leaf_count} leaves the header declares")
        finite = np.isfinite(leaves["ncount"])
        if not finite.all():
            raise ValueError(f"{path}: leaf line {int(finite.argmin()) + 1} has a non-finite count")
        return cls(shape=(rows, cols), bounds=leaves["bounds"], ncounts=leaves["ncount"], eps_total=eps_total)


_LEAF = np.dtype([("bounds", np.int64, (4,)), ("ncount", np.float64)])


def _parse_leaves(lines, count: int) -> np.ndarray | None:
    """The leaf table of ``lines``, four integers and a float each; None unless they are ``count`` leaves."""
    if count == 0:
        return np.empty(0, dtype=_LEAF)
    try:
        leaves = loadtxt(lines, _LEAF, comments=None, ndmin=1)
    except ValueError:
        return None
    return leaves if len(leaves) == count else None  # loadtxt skips blank lines


def _first_malformed(path, leaf_count: int) -> int:
    """1-based number of the first of the declared leaf lines that is not a leaf, or that is missing."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")[1:leaf_count + 1]
    lo, hi = 0, len(lines)
    if _parse_leaves(lines, hi) is not None:
        return hi + 1
    while hi - lo > 1:  # lines[:lo] parse, and lines[lo:hi] hold a malformed one
        mid = (lo + hi) // 2
        if _parse_leaves(lines[lo:mid], mid - lo) is None:
            hi = mid
        else:
            lo = mid
    return lo + 1
