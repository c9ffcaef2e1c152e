"""Range-count queries over released histograms and MRE evaluation.

Queries are cell-aligned rectangles, held as a ``(Q, 4)`` array in a
``Workload`` and answered all at once (``answer_workload``); one query
is a one-row workload. A released leaf that partially overlaps a query
contributes its noisy count scaled by the overlap fraction (uniform
density within the leaf). Exact counts come from
``FrequencyMatrix.region_sums``. Accuracy is reported as mean relative
error with a smoothing floor in the denominator so zero-count queries
stay defined. Generated queries are those of scalar ``Generator.integers``
calls, bit for bit, replayed on the generator's raw words in arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .grid import FrequencyMatrix, read_rows, require_inside, write_rows
from .histogram import PrivateHistogram
from .privacy import require_positive

__all__ = [
    "WorkloadSpec",
    "Workload",
    "EvalReport",
    "answer_workload",
    "relative_error",
    "generate_workload",
    "evaluate",
    "save_workload",
    "load_workload",
]

DEFAULT_SMOOTHING = 20.0


@dataclass(frozen=True)
class WorkloadSpec:
    """Reproducible workload recipe.

    ``shape`` is "random" (independent uniform width and height) or
    "square"; square workloads need a fractional ``size`` (e.g. 0.02
    covers 2% of the grid area) while random ones use ``size="random"``.
    """

    count: int
    shape: str = "random"
    size: float | str = "random"
    seed: int = 0

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be non-negative")
        if self.shape not in ("random", "square"):
            raise ValueError(f"shape must be 'random' or 'square', got {self.shape!r}")
        if self.shape == "square":
            if not isinstance(self.size, (int, float)) or not (0 < float(self.size) <= 1):
                raise ValueError("square workloads need size in (0, 1]")
        elif self.size != "random":
            raise ValueError("random-shape workloads use size='random'")


@dataclass
class Workload:
    queries: np.ndarray  # (Q, 4) int64, half-open rectangles
    spec: WorkloadSpec | None = None

    def __post_init__(self):
        queries = np.asarray(self.queries, dtype=np.int64)
        self.queries = queries.reshape(-1, 4) if queries.shape in ((0,), (4,)) else queries  # no query, or one
        if self.queries.ndim != 2 or self.queries.shape[1] != 4:
            raise ValueError(f"queries must be a (Q, 4) array of rectangles, got shape {queries.shape}")

    def __len__(self) -> int:
        return self.queries.shape[0]


@dataclass
class EvalReport:
    true: np.ndarray
    answers: np.ndarray
    rel_errors: np.ndarray
    mre: float
    smoothing: float

    def save(self, path) -> None:
        """Per-query rows plus a summary footer line."""
        rows = np.column_stack([np.arange(len(self.true)), self.true, self.answers, self.rel_errors])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("query_id,true,answer,rel_err\n")
            write_rows(fh, rows, "%d,%.12g,%.12g,%.12g\n")
            fh.write(f"# summary mre={self.mre:.12g} queries={len(self.true)} smoothing={self.smoothing:.12g}\n")


def answer_workload(hist: PrivateHistogram, workload: Workload) -> np.ndarray:
    """Answers to every query; ValueError names the first empty or out-of-grid query."""
    require_inside(workload.queries, *hist.shape, "query {}")
    return kernels.answer_workload(hist.bounds, hist.ncounts, workload.queries, hist.shape, owner=hist.take_owner())


def relative_error(count, answer, smoothing: float = DEFAULT_SMOOTHING):
    """Percent relative error with a smoothing floor on the denominator, elementwise on arrays."""
    require_positive("smoothing", smoothing)
    return np.abs(count - answer) / np.maximum(count, smoothing) * 100.0


def generate_workload(spec: WorkloadSpec, rows: int, cols: int) -> Workload:
    """Deterministic workload for a grid of 1 to 2^32 rows and columns: the query that would start at each
    word the generator hands out is decoded, then the chain of next words is followed from the first."""
    if not (1 <= rows <= 2**32 and 1 <= cols <= 2**32):
        raise ValueError(f"a workload needs a grid of 1 to 2^32 rows and columns, got {rows}x{cols}")
    rows, cols = int(rows), int(cols)
    square = spec.shape == "square"
    side = int(round(math.sqrt(float(spec.size) * rows * cols))) if square else 0
    side_r, side_c = max(1, min(side, rows)), max(1, min(side, cols))
    rng = np.random.default_rng(np.random.SeedSequence(int(spec.seed)))
    draws = 2 if square else 4
    raw = rng.bit_generator.random_raw(draws * spec.count // 2 + 8)
    while True:
        end = 2 * len(raw)
        words = np.full(end + draws, 0xFFFFFFFF, np.uint64)  # past the end, words that every draw accepts
        words[0:end:2], words[1:end:2] = raw & 0xFFFFFFFF, raw >> 32  # PCG64 hands out the low half first
        at = np.arange(end + 1)
        if square:
            r_center, at = _draw(words, at, rows)
            c_center, at = _draw(words, at, cols)
            r_lo = np.clip(r_center.astype(np.int64) - side_r // 2, 0, rows - side_r)
            c_lo = np.clip(c_center.astype(np.int64) - side_c // 2, 0, cols - side_c)
            columns = (r_lo, r_lo + side_r, c_lo, c_lo + side_c)
        else:
            h, at = _draw(words, at, rows)  # height - 1
            w, at = _draw(words, at, cols)
            r_lo, at = _draw(words, at, rows - h)
            c_lo, at = _draw(words, at, cols - w)
            columns = (r_lo, r_lo + h + 1, c_lo, c_lo + w + 1)
        after = np.append(np.minimum(at, end + 1), end + 1)  # a query past the words leads to end + 1, and stays
        starts, jump = np.zeros(1, np.intp), after
        while len(starts) < spec.count:  # the starts of queries [0, k) give those of [k, 2k)
            starts = np.concatenate([starts, jump[starts]])
            jump = jump[jump]
        starts = starts[: spec.count]
        if (after[starts] <= end).all():
            queries = np.stack([column[starts] for column in columns], axis=1)
            return Workload(queries=queries.astype(np.int64, copy=False), spec=spec)
        raw = np.concatenate([raw, rng.bit_generator.random_raw(len(raw))])


def _draw(words, at, n):
    """``integers(0, n)`` from the word at each offset ``at`` on, by Lemire's multiply and reject, as numpy draws
    for n <= 2^32: the values, and the offset after each draw. A range of one value reads no word."""
    m = words[at] * n
    floor = (2**32 - n) % n
    bad = np.flatnonzero((m & 0xFFFFFFFF) < floor)
    while len(bad):  # a rejected word passes the draw to the next
        at[bad] += 1
        n_bad, floor_bad = (n[bad], floor[bad]) if np.ndim(n) else (n, floor)
        m[bad] = words[at[bad]] * n_bad
        bad = bad[(m[bad] & 0xFFFFFFFF) < floor_bad]
    return m >> 32, at + (n > 1)


def evaluate(
    hist: PrivateHistogram,
    matrix: FrequencyMatrix,
    workload: Workload,
    smoothing: float = DEFAULT_SMOOTHING,
) -> EvalReport:
    """Answer every query, compare to the exact counts, report the MRE; a workload of no queries has none."""
    if hist.shape != matrix.shape:
        raise ValueError(f"histogram shape {hist.shape} != matrix shape {matrix.shape}")
    if not len(workload):
        raise ValueError("the workload holds no queries: its mean relative error is undefined")
    answers = answer_workload(hist, workload)
    true = matrix.region_sums(workload.queries).astype(np.float64)
    rel = relative_error(true, answers, smoothing)
    return EvalReport(
        true=true,
        answers=answers,
        rel_errors=rel,
        mre=float(rel.mean()),
        smoothing=smoothing,
    )


def save_workload(workload: Workload, path) -> None:
    """One query per line: ``row_lo row_hi col_lo col_hi``."""
    with open(path, "w", encoding="utf-8") as fh:
        write_rows(fh, workload.queries, "%d %d %d %d\n")


def load_workload(path) -> Workload:
    """Read a query file; ``#`` comments and blank lines are ignored.

    Raises ValueError on a line that is not 4 integers.
    """
    return Workload(queries=read_rows(path, np.int64, 4))
