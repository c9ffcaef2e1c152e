"""dphist benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cli-htf-1m --seed 1 --seconds 30 --trace 0

The inputs are made from ``--seed`` in set-up, which runs once at the start
and again before every pass (median reported as ``setup_s``). Whole passes
of the workload run until ``--seconds`` is used up, at least two. The first
pass goes through the full correctness gate; every later pass must write
byte-identical outputs, which also proves it passes the same gate. With ``--trace 0`` the passes are
untraced and the end-to-end times are means over them. With ``--trace 1``
untraced and traced passes alternate; per-layer times are means over the
traced passes, work counts must agree between them, and
``trace.overhead_s`` is the mean traced minus the mean untraced wall time.

Prints a table of the metrics, a JSON line of run context and accuracy
(per-method MRE, not a metric: it depends on the seed's dataset), and as
the last line the result ``{"correct", "attempted", "failed", "metrics"}``.
Exits 1 when an operation or a gate check failed, 2 when the program
cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 2
# stop starting passes once the run would pass this age; a run must end within 180 s
DEADLINE_S = 150.0

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "evaluate_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name == "htf.split_yield":
        return "ratio"
    if name == "htf.height":
        return "levels"
    return "count"


def import_program():
    """Import dphist from this checkout's ``src``; None if it is not there."""
    if not (SRC / "dphist" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    try:
        import dphist
    except ImportError:
        return None
    return dphist if Path(dphist.__file__).resolve().is_relative_to(SRC) else None


def run_context() -> dict:
    import numpy as np
    from dphist import kernels

    head = "unknown"
    git = ROOT / ".git"
    if (git / "HEAD").is_file():
        ref = (git / "HEAD").read_text().strip()
        head = ref
        if ref.startswith("ref: ") and (git / ref[5:]).is_file():
            head = (git / ref[5:]).read_text().strip()
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "dphist").rglob("*.py"))
    backend = getattr(kernels, "backend", lambda: "numpy")()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernels_backend": backend,
        "git_head": head,
        "src_dphist_lines": lines,
    }


def accuracy_summary(rows: list[dict]) -> dict:
    """The MRE table and each method's geometric-mean MRE over its rows."""
    by_method: dict[str, list[float]] = {}
    for row in rows:
        by_method.setdefault(row["method"], []).append(row["mre"])
    geo = {m: math.exp(statistics.fmean(math.log(max(v, 1e-12)) for v in vals)) for m, vals in by_method.items()}
    return {"mre": {f"mre.{m}": v for m, v in geo.items()}, "table": rows}


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool, workdir: Path) -> dict:
    """Set up, run passes, check them; return the result and its metadata."""
    from tracing import COUNT_METRICS, Tracer, layer_metrics
    from workloads import WORKLOADS

    born = time.perf_counter()
    workload = WORKLOADS[name](seed, smoke)
    workdir.mkdir(parents=True, exist_ok=True)
    setup_s = []

    def setup():
        t0 = time.perf_counter()
        inputs = workload.setup(workdir)
        setup_s.append(time.perf_counter() - t0)
        return inputs

    # set-up runs once more before every pass, so its samples spread over the run
    setup()
    passes = []
    started = time.perf_counter()
    while True:
        inputs = setup()
        # traced and untraced passes alternate, so drift in machine speed hits both alike
        tracer = Tracer() if trace and len(passes) % 2 == 1 else None
        pass_dir = workdir / f"pass-{len(passes)}"
        pass_dir.mkdir()
        t0 = time.perf_counter()
        # the first pass is checked in full; later ones must write the same bytes
        result = workload.run_pass(inputs, pass_dir, tracer, check=not passes)
        shutil.rmtree(pass_dir)
        if tracer:
            result.layers = layer_metrics(tracer, result.files)
        passes.append(result)
        last = time.perf_counter() - t0
        now = time.perf_counter()
        measured = [p for p in passes if (p.layers is not None) == trace]
        if len(measured) >= MIN_PASSES and now - started + last > seconds:
            break
        if now - born + last > DEADLINE_S:
            break

    # a repeat of the same seed must write the same bytes and do the same work
    first = passes[0]
    for p in passes[1:]:
        for op, ref in zip(p.ops, first.ops):
            if op.digest != ref.digest and op.error is None:
                op.error = "output differs from the first pass"
    traced = [p for p in passes if p.layers is not None]
    for p in traced[1:]:
        differs = [k for k in COUNT_METRICS if p.layers[k] != traced[0].layers[k]]
        if differs:
            for op in p.ops:
                op.error = op.error or f"work counts differ from the first traced pass: {differs}"

    ops = [op for p in passes for op in p.ops]
    failures = [f"pass {i} {op.name}: {op.error}" for i, p in enumerate(passes) for op in p.ops if op.error]
    if trace:
        metrics = {
            k: statistics.fmean(p.layers[k] for p in traced) if k not in COUNT_METRICS else traced[0].layers[k]
            for k in traced[0].layers
        }
        untraced = [p.wall_s for p in passes if p.layers is None]
        metrics["trace.overhead_s"] = statistics.fmean(p.wall_s for p in traced) - statistics.fmean(untraced)
        units = {k: layer_unit(k) for k in metrics}
    else:
        # times per pass are means over the run's passes: the machine's speed swings on a scale of
        # seconds, and a mean over more passes averages those swings where a median picks one
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.fmean(p.wall_s for p in passes),
            "evaluate_s": statistics.fmean(p.stages["evaluate_s"] for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.error),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    meta = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "passes": len(passes),
        "setup_runs_s": setup_s,
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_stages_s": [p.stages for p in passes],
        "accuracy": accuracy_summary(first.accuracy),
        "context": run_context(),
        "failures": failures[:20],
    }
    return {"result": result, "meta": meta}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("cli-htf-1m", "answer-fine", "sweep-256"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs: every workload path in seconds")
    parser.add_argument("--workdir", type=Path, default=None, help="scratch directory (default: .bench_work/ here)")
    args = parser.parse_args(argv)

    if import_program() is None:
        print(f"error: dphist sources not found under {SRC}", file=sys.stderr)
        return 2
    workdir = args.workdir or ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = record["result"]
    print(f"{args.workload} seed={args.seed} passes={record['meta']['passes']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for key, metric in result["metrics"].items():
        print(f"  {key:40s} {metric['value']:>16.6f} {metric['unit']}")
    for failure in record["meta"]["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps(record["meta"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
