"""Range-count queries over released histograms and MRE evaluation.

Queries are cell-aligned rectangles, held as a ``(Q, 4)`` array in a
``Workload`` and answered all at once (``answer_workload``); one query
is a one-row workload. A released leaf that partially overlaps a query
contributes its noisy count scaled by the overlap fraction (uniform
density within the leaf). Exact counts come from
``FrequencyMatrix.region_sums``. Accuracy is reported as mean relative
error with a smoothing floor in the denominator so zero-count queries
stay defined.
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
        self.queries = np.asarray(self.queries, dtype=np.int64).reshape(-1, 4)

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
    """Deterministic workload for a rows x cols grid."""
    rng = np.random.default_rng(np.random.SeedSequence(int(spec.seed)))
    queries = np.empty((spec.count, 4), dtype=np.int64)
    if spec.shape == "square":
        side = int(round(math.sqrt(float(spec.size) * rows * cols)))
        side_r = max(1, min(side, rows))
        side_c = max(1, min(side, cols))
        for i in range(spec.count):
            r_center = int(rng.integers(0, rows))
            c_center = int(rng.integers(0, cols))
            r_lo = min(max(r_center - side_r // 2, 0), rows - side_r)
            c_lo = min(max(c_center - side_c // 2, 0), cols - side_c)
            queries[i] = (r_lo, r_lo + side_r, c_lo, c_lo + side_c)
    else:
        for i in range(spec.count):
            h = int(rng.integers(1, rows + 1))
            w = int(rng.integers(1, cols + 1))
            r_lo = int(rng.integers(0, rows - h + 1))
            c_lo = int(rng.integers(0, cols - w + 1))
            queries[i] = (r_lo, r_lo + h, c_lo, c_lo + w)
    return Workload(queries=queries, spec=spec)


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
