"""The benchmark's workloads: inputs made from the seed, one timed pass, and its gate.

Each workload has ``setup()``, which makes the inputs before timing starts,
and ``run_pass()``, which drives the program through its public API or
``dphist.cli.main`` in-process, times the stages, and then hands every
output to the correctness gate (untimed). An operation is one CLI
subcommand, release, evaluate or sweep row; a failed gate check marks the
operation it checked as failed.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gate
from tracing import patched
from dphist import baselines, cli, grid, queries
from dphist.privacy import NoiseSource

clock = time.perf_counter


@dataclass
class Op:
    name: str
    error: str | None = None
    digest: str = ""  # sha256 of the operation's output, compared across passes


def _files(**counts) -> dict[str, int]:
    out = dict.fromkeys(
        ("points_bytes", "matrix_bytes", "release_bytes", "ledger_bytes", "ledger_entries", "sweep_rows"), 0
    )
    out.update(counts)
    return out


@dataclass
class PassResult:
    wall_s: float
    stages: dict[str, float]  # seconds per stage of the pass: release_s, evaluate_s, and more where timed
    ops: list[Op]
    files: dict[str, int] = field(default_factory=_files)  # sizes and rows of the pass's output files
    accuracy: list[dict] = field(default_factory=list)  # {"method", "sigma", "mre"} per evaluation
    layers: dict[str, float] | None = None  # per-layer metrics of a traced pass


def _run_cli(argv: list[str]) -> str | None:
    """Run one CLI subcommand in-process; None on success, else the error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
            return f"{argv[0]} raised {exc!r}"
    return None if rc == 0 else f"{argv[0]} exit {rc}: {err.getvalue().strip()[-200:]}"


def _checked(op: Op, check, *args):
    """Run a gate check; a miss marks ``op`` failed and returns None."""
    try:
        return check(*args)
    except (gate.GateError, OSError, ValueError) as exc:
        if op.error is None:
            op.error = f"gate: {exc}"
        return None


def _rows(path: Path) -> int:
    """Data rows of a file with one header line."""
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def _save(op: Op, hist, directory: Path, files: dict[str, int]) -> tuple[Path, Path]:
    """Write a release and its ledger; count their size and digest them into ``op``."""
    hist_path = directory / f"{op.name.replace('/', '-')}.hist"
    ledger_path = hist_path.with_suffix(".ledger.csv")
    hist.save(hist_path)
    hist.ledger.save(ledger_path)
    files["release_bytes"] += hist_path.stat().st_size
    files["ledger_bytes"] += ledger_path.stat().st_size
    files["ledger_entries"] += _rows(ledger_path)
    op.digest = gate.digest(hist_path, ledger_path)
    return hist_path, ledger_path


def _check_release_and_answers(rel: Op, ev: Op, paths, eps_total, shape, counts, queries_, evaluated, mre_rel_tol=1e-9):
    """Audit a written release (``rel``), then check the answers given from it (``ev``) by brute force.

    ``evaluated`` is ``(true, answers, mre, smoothing)`` of the evaluation.
    """
    audited = _checked(rel, gate.audit_release, *paths, eps_total, shape)
    if audited is None:
        ev.error = ev.error or "gate: its release failed the audit"
    else:
        _checked(ev, gate.check_answers, audited[0], counts, queries_, *evaluated, mre_rel_tol)


def _evaluated(report) -> tuple:
    return report.true, report.answers, report.mre, report.smoothing


def _digest_answers(op: Op, report) -> None:
    op.digest = gate.digest(op.digest.encode(), report.answers.tobytes(), report.true.tobytes())


# runs of the CLI's evaluate subcommand per pass of cli-htf-1m
EVALUATE_RUNS = 10


class CliHtf:
    """generate -> ingest -> release --method htf -> evaluate, through ``cli.main``.

    The one workload where file I/O and a deep htf tree dominate.
    """

    name = "cli-htf-1m"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.grid, self.n, self.queries = (64, 20_000, 100) if smoke else (1024, 1_000_000, 2000)
        self.sigma, self.eps = (10.0 if smoke else 50.0), 0.1

    def setup(self, workdir: Path):
        spec = queries.WorkloadSpec(count=self.queries, seed=self.seed)
        workload = queries.generate_workload(spec, self.grid, self.grid)
        path = workdir / "queries.txt"
        queries.save_workload(workload, path)
        return {"workload_path": path, "queries": workload.queries}

    def run_pass(self, inputs, d: Path, tracer, check: bool) -> PassResult:
        pts, matrix, hist, report = d / "points.txt", d / "matrix.txt", d / "hist.txt", d / "report.csv"
        ledger = Path(str(hist) + ".ledger.csv")
        seed, g = str(self.seed), str(self.grid)

        def evaluate(out):
            return ["evaluate", "--matrix", matrix, "--hist", hist, "--workload", inputs["workload_path"], "--out", out]

        commands = [
            ["generate", "--out", pts, "--n", self.n, "--sigma", self.sigma, "--grid", g, "--seed", seed],
            ["ingest", "--points", pts, "--grid", g, "--out", matrix],
            ["release", "--matrix", matrix, "--method", "htf", "--eps-total", self.eps, "--seed", seed, "--out", hist],
            evaluate(report),
        ]
        ops, stages = [], {}
        with tracer.installed() if tracer else contextlib.nullcontext():
            start = clock()
            for argv in commands:
                t0 = clock()
                error = _run_cli([str(a) for a in argv])
                stages[f"{argv[0]}_s"] = clock() - t0
                ops.append(Op(argv[0], error))
            wall = clock() - start
        result = PassResult(wall, stages, ops)
        if any(op.error for op in ops):
            return result
        gen, ing, rel, ev = ops
        # evaluate is about 1% of a pass: one sample of it per pass reads whatever speed the machine
        # has in that fraction of a second, so it runs again (untraced, outside wall_s) and
        # evaluate_s is the mean over all its runs; every repeat must write the same report
        evaluate_s = [stages["evaluate_s"]]
        for i in range(1, EVALUATE_RUNS):
            again = d / f"report-{i}.csv"
            t0 = clock()
            ev.error = _run_cli([str(a) for a in evaluate(again)])
            evaluate_s.append(clock() - t0)
            if ev.error is None and again.read_bytes() != report.read_bytes():
                ev.error = "a repeat of evaluate wrote a different report"
            if ev.error:
                return result
        stages["evaluate_s"] = statistics.fmean(evaluate_s)
        for op, paths in ((gen, [pts]), (ing, [matrix]), (rel, [hist, ledger]), (ev, [report])):
            op.digest = gate.digest(*paths)
        result.files = _files(
            points_bytes=pts.stat().st_size, matrix_bytes=matrix.stat().st_size, release_bytes=hist.stat().st_size,
            ledger_bytes=ledger.stat().st_size, ledger_entries=_rows(ledger),
        )
        if check:
            points = _checked(gen, gate.check_points, pts, self.grid, self.grid, self.n)
            counts = _checked(ing, gate.check_matrix, matrix, points, self.grid, self.grid) if points is not None else None
            evaluated = _checked(ev, gate.read_report, report)
            if counts is None or evaluated is None:
                ev.error = ev.error or "gate: inputs of evaluate failed their checks"
                return result
            _check_release_and_answers(
                rel, ev, (hist, ledger), self.eps, (self.grid, self.grid), counts, inputs["queries"], evaluated, 1e-8
            )
            result.accuracy.append({"method": "htf", "sigma": self.sigma, "mre": evaluated[2]})
        return result


class AnswerFine:
    """ug, ag, singular and flat-uniform releases at 512², each answering the same queries.

    Query answering (queries x leaves) dominates; the htf tree is not used.
    Points, the matrix and the queries are made in set-up.
    """

    name = "answer-fine"
    methods = (("ug", "build_uniform_grid"), ("ag", "build_adaptive_grid"),
               ("singular", "build_singular"), ("uniform", "build_flat_uniform"))

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.grid, self.n, self.queries = (32, 10_000, 50) if smoke else (512, 1_000_000, 1000)
        self.sigma, self.eps = (5.0 if smoke else 50.0), 0.1

    def setup(self, workdir: Path):
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        pts = grid.sample_gaussian_points(self.n, self.sigma, self.grid, self.grid, rng)
        matrix, _ = grid.discretize(pts, (0, self.grid, 0, self.grid), self.grid, self.grid)
        spec = queries.WorkloadSpec(count=self.queries, seed=self.seed)
        workload = queries.generate_workload(spec, self.grid, self.grid)
        return {"matrix": matrix, "workload": workload}

    def run_pass(self, inputs, d: Path, tracer, check: bool) -> PassResult:
        matrix, workload = inputs["matrix"], inputs["workload"]
        done, ops = [], []
        stages = {"release_s": 0.0, "evaluate_s": 0.0}
        with tracer.installed() if tracer else contextlib.nullcontext():
            start = clock()
            for method, function in self.methods:
                rel, ev = Op(f"release/{method}"), Op(f"evaluate/{method}")
                ops += [rel, ev]
                t0 = clock()
                try:
                    hist = getattr(baselines, function)(matrix, self.eps, NoiseSource(self.seed))
                    t1 = clock()
                    report = queries.evaluate(hist, matrix, workload)
                except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
                    rel.error = ev.error = f"{function} raised {exc!r}"
                    continue
                t2 = clock()
                stages["release_s"] += t1 - t0
                stages["evaluate_s"] += t2 - t1
                done.append((method, rel, ev, hist, report))
            wall = clock() - start
        result = PassResult(wall, stages, ops)
        for method, rel, ev, hist, report in done:
            paths = _save(rel, hist, d, result.files)
            _digest_answers(ev, report)
            if check:
                _check_release_and_answers(
                    rel, ev, paths, self.eps, hist.shape, matrix.counts, workload.queries, _evaluated(report)
                )
                result.accuracy.append({"method": method, "sigma": self.sigma, "mre": report.mre})
        return result


class Sweep:
    """``dphist sweep``: every method x sigma {20, 50, 100} x eps 0.1 on 256², one job.

    Many small releases, as researchers run them. The benchmark times the
    sweep's stages by wrapping ``build_release`` and ``queries.evaluate``
    (21 calls each), and keeps what they return for the gate.

    The htf height is fixed at the value the estimate gives for the true
    count, floor(log2(n * eps / 10)) = 9. Estimated, it is 9 or 10 by the
    seed (height noise of scale 1e4 against a threshold 2400 away; 6 of
    seeds 1-10 give 10), and height 10 doubles the partition work, so the
    release time would split into two modes across seeds. The sweep's
    quadtree and kd-tree keep their default heights, 6 and 8.
    """

    name = "sweep-256"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.grid, self.n, self.queries = (32, 5_000, 50) if smoke else (256, 100_000, 2000)
        self.sigmas = (5.0, 10.0) if smoke else (20.0, 50.0, 100.0)
        self.eps = 0.1
        self.htf_height = int(math.floor(math.log2(self.n * self.eps / 10.0)))

    def setup(self, workdir: Path):
        config = workdir / "sweep.cfg"
        config.write_text(
            f"methods={','.join(cli.METHODS)}\neps={self.eps}\nsizes=random\nseeds={self.seed}\n"
            f"sigmas={','.join(f'{s:g}' for s in self.sigmas)}\nn={self.n}\ngrid={self.grid}\n"
            f"queries={self.queries}\nheight={self.htf_height}\nquadtree_height=6\nkdtree_height=8\n",
            encoding="utf-8",
        )
        # the datasets and queries the sweep documents for this seed, to check it used them
        matrices = {}
        for sigma in self.sigmas:
            rng = NoiseSource(self.seed).substream("data", str(sigma)).generator
            pts = grid.sample_gaussian_points(self.n, sigma, self.grid, self.grid, rng)
            matrices[sigma] = grid.discretize(pts, (0, self.grid, 0, self.grid), self.grid, self.grid)[0].counts
        spec = queries.WorkloadSpec(count=self.queries, seed=self.seed)
        workload = queries.generate_workload(spec, self.grid, self.grid)
        return {"config": config, "matrices": matrices, "queries": workload.queries}

    def run_pass(self, inputs, d: Path, tracer, check: bool) -> PassResult:
        table = d / "sweep.csv"
        stages = {"release_s": 0.0, "evaluate_s": 0.0}
        records: list[dict] = []

        def timed(stage, keep):
            def wrap(fn):
                def run(*args, **kwargs):
                    t0 = clock()
                    result = fn(*args, **kwargs)
                    stages[stage] += clock() - t0
                    keep(args, result)
                    return result
                return run
            return wrap

        def keep_release(args, hist):
            records.append({"method": args[1].method, "matrix": args[0], "hist": hist})

        def keep_report(args, report):
            if records and records[-1]["hist"] is args[0]:
                records[-1].update(workload=args[2], report=report)

        with contextlib.ExitStack() as stack:
            stack.enter_context(patched(cli, "build_release", timed("release_s", keep_release)))
            stack.enter_context(patched(queries, "evaluate", timed("evaluate_s", keep_report)))
            if tracer:
                stack.enter_context(tracer.installed())
            start = clock()
            error = _run_cli(["sweep", "--config", str(inputs["config"]), "--out", str(table), "--jobs", "1"])
            wall = clock() - start
        return self._check(inputs, d, table, error, records, PassResult(wall, stages, []), check)

    def _check(self, inputs, d, table, error, records, result: PassResult, check: bool) -> PassResult:
        expected = [(m, s) for s in self.sigmas for m in cli.METHODS]
        result.ops = [Op(f"{m}/sigma={s:g}", error) for m, s in expected]
        rows = _checked(result.ops[0], gate.read_sweep, table) if error is None else None
        result.files = _files(sweep_rows=len(rows or []))
        if rows is None or len(rows) != len(expected) or len(records) != len(expected):
            for op in result.ops:
                op.error = op.error or f"gate: {len(rows or [])} rows and {len(records)} releases for {len(expected)} cells"
            return result
        for op, row, rec, (method, sigma) in zip(result.ops, rows, records, expected):
            if row["status"] != "ok" or row["method"] != method or float(row["sigma"]) != sigma:
                op.error = f"row {row}"
                continue
            if rec["method"] != method or "report" not in rec:
                op.error = "gate: release and evaluation do not line up with the rows"
                continue
            if not np.array_equal(rec["matrix"].counts, inputs["matrices"][sigma]):
                op.error = "gate: the sweep did not release the configured dataset"
            elif not np.array_equal(rec["workload"].queries, inputs["queries"]):
                op.error = "gate: the sweep did not answer the configured queries"
            elif abs(float(row["mre"]) - rec["report"].mre) > 1e-6:  # the table prints 6 decimals
                op.error = f"gate: table mre {row['mre']} != evaluated {rec['report'].mre!r}"
            paths = _save(op, rec["hist"], d, result.files)
            _digest_answers(op, rec["report"])
            if check:
                _check_release_and_answers(
                    op, op, paths, self.eps, rec["hist"].shape, rec["matrix"].counts, inputs["queries"],
                    _evaluated(rec["report"]),
                )
                result.accuracy.append({"method": method, "sigma": sigma, "mre": rec["report"].mre})
        return result


WORKLOADS = {w.name: w for w in (CliHtf, AnswerFine, Sweep)}
