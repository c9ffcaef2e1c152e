"""Correctness gate: audit what a pass wrote, independently of the program's kernels.

The first pass of a run goes through these checks; every later pass must
write the same bytes. Every release is read back from its files and
audited with ``validate_cover`` and ``BudgetLedger.assert_valid``. A fixed
sample of each evaluation's queries is answered again by brute force over
a per-cell density raster painted from the reloaded release, and the exact
counts by a per-cell sum of the matrix. Point and matrix files from the
CLI are re-read and re-binned with plain numpy. Any miss raises
``GateError``.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from dphist.histogram import CoverageError, PrivateHistogram
from dphist.privacy import BudgetLedger, BudgetOverflowError

# queries per evaluation that are answered again by brute force
SAMPLE_QUERIES = 25
# the oracle tests' absolute tolerance (1e-9), scaled by the absolute leaf
# mass a query covers, because summation order differs at large counts
ANSWER_TOL = 1e-9


class GateError(Exception):
    """An output failed a correctness check."""


def digest(*parts) -> str:
    """sha256 over files (``Path``) and byte strings, in order."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.read_bytes() if isinstance(part, Path) else part)
    return h.hexdigest()


def load_ledger(path) -> BudgetLedger:
    """Parse a ledger file written by ``BudgetLedger.save``."""
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline().strip() != "label,level,path,eps,sites":
            raise GateError(f"{path}: bad ledger header")
        for lineno, line in enumerate(fh, 2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != 5:
                raise GateError(f"{path}:{lineno}: expected 5 fields")
            label, level, loc, eps, sites = parts
            node_path = None if loc == "*" else tuple(int(v) for v in loc.split("/") if v)
            entries.append((label, int(level), node_path, float(eps), int(sites)))
    if not entries:
        raise GateError(f"{path}: empty ledger")
    return BudgetLedger(entries=entries)


def audit_release(hist_path, ledger_path, eps_total: float, shape) -> tuple[PrivateHistogram, int]:
    """Reload a release and its ledger; check the cover and every path's budget.

    Returns the reloaded histogram and the number of ledger entries.
    """
    try:
        hist = PrivateHistogram.load(hist_path)
    except (ValueError, OSError) as exc:
        raise GateError(f"release does not load: {exc}") from exc
    if tuple(hist.shape) != tuple(shape):
        raise GateError(f"release shape {hist.shape} != {tuple(shape)}")
    if not math.isclose(hist.eps_total, eps_total, rel_tol=1e-9):
        raise GateError(f"release eps_total {hist.eps_total} != {eps_total}")
    if not np.all(np.isfinite(hist.ncounts)):
        raise GateError("release has non-finite counts")
    try:
        hist.validate_cover()
    except CoverageError as exc:
        raise GateError(f"release cover: {exc}") from exc
    ledger = load_ledger(ledger_path)
    try:
        ledger.assert_valid(eps_total)
    except BudgetOverflowError as exc:
        raise GateError(f"ledger: {exc}") from exc
    return hist, len(ledger)


def density_raster(hist: PrivateHistogram) -> np.ndarray:
    """Per-cell density ``ncount / cells`` of the leaf holding each cell."""
    dens = np.full(hist.shape, np.nan)
    for (r0, r1, c0, c1), ncount in zip(hist.bounds.tolist(), hist.ncounts.tolist()):
        dens[r0:r1, c0:c1] = ncount / ((r1 - r0) * (c1 - c0))
    return dens


def check_answers(hist, counts, queries, true, answers, mre, smoothing, mre_rel_tol=1e-9) -> None:
    """Check an evaluation's answers, exact counts and MRE against brute force.

    ``counts`` is the exact cell-count array the evaluation ran against and
    ``hist`` the release read back from its file.
    """
    queries = np.asarray(queries)
    true = np.asarray(true, dtype=np.float64)
    answers = np.asarray(answers, dtype=np.float64)
    if not (len(queries) == len(true) == len(answers)) or len(queries) == 0:
        raise GateError(f"{len(answers)} answers for {len(queries)} queries")
    rel = np.abs(true - answers) / np.maximum(true, smoothing) * 100.0
    if not math.isclose(float(rel.mean()), mre, rel_tol=mre_rel_tol):
        raise GateError(f"reported mre {mre!r} != recomputed {float(rel.mean())!r}")
    dens = density_raster(hist)
    for i in np.unique(np.linspace(0, len(queries) - 1, SAMPLE_QUERIES).astype(np.int64)):
        r0, r1, c0, c1 = (int(v) for v in queries[i])
        exact = int(counts[r0:r1, c0:c1].sum())
        if true[i] != exact:
            raise GateError(f"query {i}: true count {true[i]!r} != {exact}")
        block = dens[r0:r1, c0:c1]
        brute = float(block.sum())
        if not math.isfinite(brute):
            raise GateError(f"query {i}: covers cells no leaf holds")
        if abs(answers[i] - brute) > ANSWER_TOL * max(1.0, float(np.abs(block).sum())):
            raise GateError(f"query {i}: answer {answers[i]!r} != brute force {brute!r}")


def check_points(path, rows: int, cols: int, n: int) -> np.ndarray:
    """Re-read a point file: exactly ``n`` finite points inside the grid."""
    pts = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    if pts.shape != (n, 2):
        raise GateError(f"point file holds {pts.shape}, expected ({n}, 2)")
    if not (np.all(np.isfinite(pts)) and np.all(pts >= 0) and np.all(pts < [rows, cols])):
        raise GateError("points outside the grid")
    return pts


def check_matrix(path, points: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Re-read a matrix file and compare it with a plain re-binning of ``points``."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        counts = np.loadtxt(fh, dtype=np.int64, ndmin=2)
    cells = np.floor(points).astype(np.int64)
    expected = np.bincount(cells[:, 0] * cols + cells[:, 1], minlength=rows * cols).reshape(rows, cols)
    if header != [str(rows), str(cols), str(len(points))]:
        raise GateError(f"matrix header {header}")
    if counts.shape != expected.shape or not np.array_equal(counts, expected):
        raise GateError("matrix differs from the binned points")
    return counts


def read_report(path) -> tuple[np.ndarray, np.ndarray, float, float]:
    """``(true, answers, mre, smoothing)`` from an ``evaluate`` report file."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "query_id,true,answer,rel_err" or not lines[-1].startswith("# summary "):
        raise GateError(f"{path}: malformed report")
    summary = dict(item.split("=", 1) for item in lines[-1][len("# summary "):].split())
    rows = np.array([line.split(",") for line in lines[1:-1]], dtype=np.float64).reshape(-1, 4)
    return rows[:, 1], rows[:, 2], float(summary["mre"]), float(summary["smoothing"])


def read_sweep(path) -> list[dict[str, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",") if lines else []
    if header[-2:] != ["mre", "status"]:
        raise GateError(f"{path}: malformed sweep table")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]
