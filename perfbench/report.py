"""Run the benchmark over several seeds and report each metric's median and spread.

Usage (from the root of a checkout):

    python3 perfbench/report.py --seeds 1-10 [--workloads cli-htf-1m,sweep-256] [--trace 0] [--out FILE]

Runs ``perfbench/run.py`` once per workload and seed, one at a time, each
in its own process, for ``run_seconds`` from ``BENCHMARK.json``. For every
metric it prints the median, the quartiles and the spread (the distance
between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them) next to the metric's
bound; ``!`` marks a spread above a third of the bound. Exits 1 if any run
failed or reported ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    out = {"returncode": proc.returncode, "elapsed_s": time.perf_counter() - started}
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return {**out, "error": proc.stderr.strip()[-500:]}
    return {**out, "meta": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="write every run's output as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs, ok = {}, True
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in parse_seeds(args.seeds):
            run = run_one(workload, seed, bench["run_seconds"], args.trace)
            runs[workload].append(run)
            if run["returncode"] != 0 or not run.get("result", {}).get("correct"):
                ok = False
                print(f"{workload} seed={seed}: FAILED rc={run['returncode']} {run.get('error', '')}"
                      f"{run.get('meta', {}).get('failures', '')}", flush=True)
        good = [r for r in runs[workload] if "result" in r]
        if len(good) < 2:
            continue
        elapsed = [r["elapsed_s"] for r in runs[workload]]
        print(f"{workload}: {len(good)} runs, {statistics.fmean(elapsed):.1f} s per run (max {max(elapsed):.1f})", flush=True)
        for name, metric in good[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in good]
            med, q1, q3, rel = spread(values)
            bound = bounds.get(name)
            flag = "!" if bound and rel > bound / 3 else " "
            bound_text = f"bound {bound:.2f}" if bound else ""
            print(f" {flag} {name:40s} median {med:14.6f} {metric['unit']:6s} q1 {q1:14.6f} q3 {q3:14.6f} "
                  f"spread {rel:7.4f} {bound_text}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
