"""Command-line front end.

Subcommands: generate | ingest | release | evaluate | sweep. Every
subcommand accepts ``--config FILE`` with flat ``key=value`` lines
(CLI flags override config values). Exit codes: 0 success, 2
configuration error, 3 I/O error, 4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import baselines, grid, htf, queries
from .histogram import CoverageError, PrivateHistogram
from .privacy import BudgetOverflowError, NoiseSource

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

METHODS = ("htf", "ug", "ag", "quadtree", "kdtree", "singular", "uniform")


def load_config(path) -> dict[str, str]:
    """Flat key=value file; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _parse_bounds(text: str) -> tuple[float, float, float, float]:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 4:
        raise ValueError("bounds must be x_min,x_max,y_min,y_max")
    return tuple(parts)  # type: ignore[return-value]


def _noise_source(args) -> NoiseSource:
    return NoiseSource(args.seed, zero_noise=getattr(args, "zero_noise", False))


# ---------------------------------------------------------------------------
# subcommands

def cmd_generate(args) -> int:
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    cols = args.grid_cols or args.grid
    pts = grid.sample_gaussian_points(args.n, args.sigma, args.grid, cols, rng)
    grid.save_points(pts, args.out)
    print(f"wrote {len(pts)} points to {args.out}")
    return 0


def cmd_ingest(args) -> int:
    pts = grid.load_points(args.points)
    cols = args.grid_cols or args.grid
    bounds = _parse_bounds(args.bounds) if args.bounds else (0.0, args.grid, 0.0, cols)
    matrix, rejected = grid.discretize(pts, bounds, args.grid, cols)
    grid.save_matrix(matrix, args.out)
    print(f"wrote {matrix.rows}x{matrix.cols} matrix (total={matrix.total}, rejected={rejected}) to {args.out}")
    return 0


# quadtree and kd-tree height when none is given
TREE_HEIGHTS = {"quadtree": 6, "kdtree": 8}


def _tree_height(method: str, height: int | None) -> int:
    return TREE_HEIGHTS[method] if height is None else height


def build_release(matrix, args, noise) -> PrivateHistogram:
    method = args.method
    if method == "htf":
        if args.eps_partition is not None:
            part = {"eps_partition": args.eps_partition, "eps_partition_level": None}
        else:
            part = {"eps_partition": None, "eps_partition_level": args.eps_partition_level}
        params = htf.HtfParams(
            eps_total=args.eps_total,
            eps_height=args.eps_height,
            search_iters=args.search_iters,
            stop_count=args.stop_count,
            stop_cells=args.stop_cells,
            height_override=args.height,
            height_constant=args.c0,
            **part,
        )
        return htf.release(matrix, params, noise)
    if method == "ug":
        return baselines.build_uniform_grid(matrix, args.eps_total, noise, c0=args.c0)
    if method == "ag":
        return baselines.build_adaptive_grid(matrix, args.eps_total, noise, c0=args.c0, alpha=args.ag_alpha)
    if method == "quadtree":
        return baselines.build_quadtree(
            matrix, args.eps_total, _tree_height(method, args.height), noise, alloc=args.alloc, smooth=args.smooth
        )
    if method == "kdtree":
        return baselines.build_kdtree(
            matrix,
            args.eps_total,
            _tree_height(method, args.height),
            noise,
            structure_fraction=args.structure_fraction,
            alloc=args.alloc,
            smooth=args.smooth,
        )
    if method == "singular":
        return baselines.build_singular(matrix, args.eps_total, noise)
    if method == "uniform":
        return baselines.build_flat_uniform(matrix, args.eps_total, noise)
    raise ValueError(f"unknown method {method!r}")


def cmd_release(args) -> int:
    matrix = grid.load_matrix(args.matrix)
    hist = build_release(matrix, args, _noise_source(args))
    if args.clamp_nonnegative:
        hist = hist.clamp_nonnegative()
    hist.save(args.out)
    ledger_path = args.ledger_out or (args.out + ".ledger.csv")
    hist.ledger.save(ledger_path)
    print(f"released {len(hist)} leaves ({args.method}, eps_total={args.eps_total}) to {args.out}")
    print(f"ledger: {ledger_path}")
    return 0


def _workload_for(args, rows, cols) -> queries.Workload:
    if args.workload:
        return queries.load_workload(args.workload)
    size = "random" if args.qshape == "random" else args.qsize
    spec = queries.WorkloadSpec(count=args.queries, shape=args.qshape, size=size, seed=args.seed)
    return queries.generate_workload(spec, rows, cols)


def cmd_evaluate(args) -> int:
    matrix = grid.load_matrix(args.matrix)
    hist = PrivateHistogram.load(args.hist)
    workload = _workload_for(args, *matrix.shape)
    try:
        report = queries.evaluate(hist, matrix, workload, smoothing=args.smoothing)
    except CoverageError as exc:
        # the leaves came from a file: a bad tiling is bad input, not a broken release
        raise ValueError(f"{args.hist}: {exc}") from exc
    report.save(args.out)
    print(f"evaluated {len(workload)} queries: mre={report.mre:.4f} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# sweep

def _parse_list(text: str, cast):
    return [cast(part) for part in text.split(",") if part.strip()]


def _sweep_row(task: dict) -> dict:
    """One (method, eps, size, sigma, seed) cell; runs in a worker."""
    row = {k: task[k] for k in ("method", "sigma", "eps_total", "size", "seed")}
    try:
        top = NoiseSource(task["seed"])
        data_rng = top.substream("data", str(task["sigma"])).generator
        pts = grid.sample_gaussian_points(task["n"], task["sigma"], task["grid"], task["grid"], data_rng)
        matrix, _ = grid.discretize(pts, (0, task["grid"], 0, task["grid"]), task["grid"], task["grid"])
        size = task["size"]
        if size == "random":
            spec = queries.WorkloadSpec(count=task["queries"], shape="random", size="random", seed=task["seed"])
        else:
            spec = queries.WorkloadSpec(count=task["queries"], shape="square", size=float(size), seed=task["seed"])
        workload = queries.generate_workload(spec, *matrix.shape)
        noise = top.substream("release", task["method"], str(task["eps_total"]), str(size))
        ns = argparse.Namespace(**task["release_args"], method=task["method"], eps_total=task["eps_total"])
        hist = build_release(matrix, ns, noise)
        report = queries.evaluate(hist, matrix, workload, smoothing=task["smoothing"])
        row["mre"] = f"{report.mre:.6f}"
        row["status"] = "ok"
    except Exception as exc:  # noqa: BLE001 - sweep rows must not kill the run
        row["mre"] = "nan"
        row["status"] = f"error:{type(exc).__name__}"
    return row


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    methods = _parse_list(cfg.get("methods", "htf"), str)
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r} in sweep config")
    eps_values = _parse_list(cfg.get("eps", "0.1"), float)
    sizes = [s if s == "random" else float(s) for s in _parse_list(cfg.get("sizes", "random"), str)]
    seeds = _parse_list(cfg.get("seeds", "0"), int)
    sigmas = _parse_list(cfg.get("sigmas", "50"), float)
    release_args = {
        "eps_partition": None,
        "eps_partition_level": float(cfg.get("eps_partition_level", 5e-4)),
        "eps_height": float(cfg.get("eps_height", 1e-4)),
        "search_iters": int(cfg.get("search_iters", 3)),
        "stop_count": float(cfg.get("stop_count", 100)),
        "stop_cells": int(cfg.get("stop_cells", 5)),
        "height": int(cfg["height"]) if "height" in cfg else None,
        "c0": float(cfg.get("c0", 10.0)),
        "ag_alpha": float(cfg.get("ag_alpha", 0.5)),
        "alloc": cfg.get("alloc", "uniform"),
        "smooth": cfg.get("smooth", "1") not in ("0", "false", "no"),
        "structure_fraction": float(cfg.get("structure_fraction", 0.15)),
    }
    tasks = []
    for sigma in sigmas:
        for eps in eps_values:
            for size in sizes:
                for seed in seeds:
                    for method in methods:
                        task_args = dict(release_args)
                        if method in TREE_HEIGHTS:
                            height = _tree_height(method, task_args["height"])
                            task_args["height"] = int(cfg.get(f"{method}_height", height))
                        tasks.append(
                            {
                                "method": method,
                                "sigma": sigma,
                                "eps_total": eps,
                                "size": size,
                                "seed": seed,
                                "n": int(cfg.get("n", 100000)),
                                "grid": int(cfg.get("grid", 256)),
                                "queries": int(cfg.get("queries", 2000)),
                                "smoothing": float(cfg.get("smoothing", 20.0)),
                                "release_args": task_args,
                            }
                        )
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_row, tasks))
    else:
        rows = [_sweep_row(t) for t in tasks]
    out = args.out or cfg.get("out", "sweep.csv")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("method,sigma,eps_total,size,seed,mre,status\n")
        for row in rows:
            fh.write(
                f"{row['method']},{row['sigma']:g},{row['eps_total']:g},{row['size']},"
                f"{row['seed']},{row['mre']},{row['status']}\n"
            )
    failures = sum(1 for r in rows if r["status"] != "ok")
    print(f"sweep: {len(rows)} rows ({failures} failed) -> {out}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file; flags override")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dphist", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic Gaussian-cluster point file")
    _add_common(p)
    p.add_argument("--out", default="points.txt")
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--sigma", type=float, default=50.0)
    p.add_argument("--grid", type=int, default=1024, help="rows (and cols unless --grid-cols)")
    p.add_argument("--grid-cols", type=int, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("ingest", help="discretize a point file to a matrix snapshot")
    _add_common(p)
    p.add_argument("--points", required=True)
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--grid-cols", type=int, default=None)
    p.add_argument("--bounds", help="x_min,x_max,y_min,y_max (default: 0,rows,0,cols)")
    p.add_argument("--out", default="matrix.txt")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("release", help="build a private histogram from a matrix snapshot")
    _add_common(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--method", choices=METHODS, default="htf")
    p.add_argument("--out", default="hist.txt")
    p.add_argument("--ledger-out", default=None)
    p.add_argument("--eps-total", type=float, default=0.1)
    p.add_argument("--eps-height", type=float, default=1e-4)
    p.add_argument("--eps-partition", type=float, default=None, help="total structure budget (uniform per level)")
    p.add_argument("--eps-partition-level", type=float, default=5e-4, help="fixed per-level structure budget")
    p.add_argument("--search-iters", "--T", type=int, default=3, dest="search_iters")
    p.add_argument("--stop-count", type=float, default=100.0)
    p.add_argument("--stop-cells", type=int, default=5)
    p.add_argument("--height", type=int, default=None, help="tree height (htf: override the estimate)")
    p.add_argument("--c0", type=float, default=10.0, help="granularity/height constant")
    p.add_argument("--ag-alpha", type=float, default=0.5)
    p.add_argument("--alloc", choices=("uniform", "geometric"), default="uniform")
    p.add_argument("--smooth", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--structure-fraction", type=float, default=0.15)
    p.add_argument("--zero-noise", action="store_true", help="debug: suppress all noise (not private)")
    p.add_argument("--clamp-nonnegative", action="store_true")
    p.set_defaults(func=cmd_release)

    p = sub.add_parser("evaluate", help="answer a workload and report the MRE")
    _add_common(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--hist", required=True)
    p.add_argument("--out", default="report.csv")
    p.add_argument("--workload", default=None, help="query file; otherwise generate one")
    p.add_argument("--queries", type=int, default=2000)
    p.add_argument("--qshape", choices=("random", "square"), default="random")
    p.add_argument("--qsize", type=float, default=0.02, help="area fraction for square workloads")
    p.add_argument("--smoothing", type=float, default=20.0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="cartesian experiment sweep to a CSV table")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    return parser


_FALSY = ("0", "false", "no")
_TRUTHY = ("1", "true", "yes")


def _inject_config(argv: list[str], cfg: dict[str, str]) -> list[str]:
    """Turn config entries into flags unless the flag was given explicitly."""
    out = list(argv)
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        no_flag = "--no-" + key.replace("_", "-")
        if any(a == flag or a == no_flag or a.startswith(flag + "=") for a in argv):
            continue
        low = value.lower()
        if low in _TRUTHY and key in ("smooth", "zero_noise", "clamp_nonnegative"):
            out.append(flag)
        elif low in _FALSY and key in ("smooth", "zero_noise", "clamp_nonnegative"):
            if key == "smooth":
                out.append(no_flag)
        else:
            out += [flag, value]
    return out


def main(argv=None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    # pre-scan for --config so config values become flag defaults (sweep
    # interprets its config itself)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if known.config and (not argv or argv[0] != "sweep"):
        try:
            cfg = load_config(known.config)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        argv = _inject_config(argv, cfg)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (BudgetOverflowError, CoverageError, AssertionError) as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
