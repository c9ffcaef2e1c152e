"""Command-line front end.

Subcommands: generate | ingest | release | evaluate | sweep. Every
subcommand accepts ``--config FILE`` with flat ``key=value`` lines
(CLI flags, abbreviated or not, override config values). Exit codes: 0
success, 2 configuration error (a rejected flag or value included), 3
I/O error, 4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import baselines, grid, htf, queries
from .histogram import CoverageError, PrivateHistogram
from .privacy import BudgetOverflowError, NoiseSource, require_positive

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


# ---------------------------------------------------------------------------
# subcommands

def cmd_generate(args) -> int:
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    cols = args.grid if args.grid_cols is None else args.grid_cols
    pts = grid.sample_gaussian_points(args.n, args.sigma, args.grid, cols, rng)
    grid.save_points(pts, args.out)
    print(f"wrote {len(pts)} points to {args.out}")
    return 0


def cmd_ingest(args) -> int:
    pts = grid.load_points(args.points)
    cols = args.grid if args.grid_cols is None else args.grid_cols
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
    """What ``dphist release`` releases for the options in ``args``."""
    method = args.method
    if method == "htf":
        params = htf.HtfParams(
            eps_total=args.eps_total,
            eps_height=args.eps_height,
            eps_partition=args.eps_partition,
            eps_partition_level=args.eps_partition_level,
            search_iters=args.search_iters,
            stop_count=args.stop_count,
            stop_cells=args.stop_cells,
            height_override=args.height,
            height_constant=args.c0,
        )
        hist = htf.release(matrix, params, noise)
    elif method == "ug":
        hist = baselines.build_uniform_grid(matrix, args.eps_total, noise, c0=args.c0)
    elif method == "ag":
        hist = baselines.build_adaptive_grid(matrix, args.eps_total, noise, c0=args.c0, alpha=args.ag_alpha)
    elif method == "quadtree":
        hist = baselines.build_quadtree(
            matrix, args.eps_total, _tree_height(method, args.height), noise, alloc=args.alloc, smooth=args.smooth
        )
    elif method == "kdtree":
        hist = baselines.build_kdtree(
            matrix,
            args.eps_total,
            _tree_height(method, args.height),
            noise,
            structure_fraction=args.structure_fraction,
            alloc=args.alloc,
            smooth=args.smooth,
        )
    elif method == "singular":
        hist = baselines.build_singular(matrix, args.eps_total, noise)
    elif method == "uniform":
        hist = baselines.build_flat_uniform(matrix, args.eps_total, noise)
    else:
        raise ValueError(f"unknown method {method!r}")
    return hist.clamp_nonnegative() if args.clamp_nonnegative else hist


def cmd_release(args) -> int:
    matrix = grid.load_matrix(args.matrix)
    hist = build_release(matrix, args, NoiseSource(args.seed, zero_noise=args.zero_noise))
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

def _parse_list(sweep: dict[str, str], key: str, cast) -> list:
    values = [cast(part) for part in sweep[key].split(",") if part.strip()]
    if not values:
        raise ValueError(f"sweep config key {key!r} lists no value")
    return values


# a sweep config's own keys and their defaults: the axes, the dataset, the
# workload and the output; every other key is a ``dphist release`` setting
SWEEP_KEYS = {
    "methods": "htf",
    "eps": "0.1",
    "sizes": "random",
    "seeds": "0",
    "sigmas": "50",
    "n": "100000",
    "grid": "256",
    "queries": "2000",
    "smoothing": str(queries.DEFAULT_SMOOTHING),
    "out": "sweep.csv",
}
# release options that each row sets itself, from its axes and its generated matrix
ROW_OPTIONS = ("matrix", "method", "eps_total", "seed", "ledger_out", "config")


def _sweep_dataset(seed: int, sigma: float, n: int, grid_size: int) -> grid.FrequencyMatrix:
    rng = NoiseSource(seed).substream("data", str(sigma)).generator
    pts = grid.sample_gaussian_points(n, sigma, grid_size, grid_size, rng)
    return grid.discretize(pts, (0, grid_size, 0, grid_size), grid_size, grid_size)[0]


def _sweep_workload(seed: int, size, count: int, grid_size: int) -> queries.Workload:
    shape = "random" if size == "random" else "square"
    spec = queries.WorkloadSpec(count=count, shape=shape, size=size, seed=seed)
    return queries.generate_workload(spec, grid_size, grid_size)


def _attempt(build, *args):
    """``build(*args)``, or the exception it raised: a dataset or workload that fails fails only its rows."""
    try:
        return build(*args)
    except Exception as exc:  # noqa: BLE001
        return exc


def _sweep_row(task) -> tuple[str, str]:
    """The MRE and status of one row; runs in a worker with ``--jobs`` above 1."""
    matrix, workload, settings, noise, smoothing = task
    try:
        for given in (matrix, workload):
            if isinstance(given, Exception):
                raise given
        hist = build_release(matrix, settings, noise)
        report = queries.evaluate(hist, matrix, workload, smoothing=smoothing)
    except Exception as exc:  # noqa: BLE001 - sweep rows must not kill the run
        # one line of seven fields: no comma and no line break in the message
        message = " ".join(str(exc).splitlines()).replace(",", ";")
        return "nan", f"error:{type(exc).__name__}: {message}"
    return f"{report.mre:.6f}", "ok"


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    sweep = {key: cfg.pop(key, default) for key, default in SWEEP_KEYS.items()}
    heights = {m: {"height": cfg.pop(f"{m}_height")} for m in TREE_HEIGHTS if f"{m}_height" in cfg}
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    methods = _parse_list(sweep, "methods", str)
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r} in sweep config")
    eps_values = _parse_list(sweep, "eps", float)
    sizes = [s if s == "random" else float(s) for s in _parse_list(sweep, "sizes", str)]
    seeds = _parse_list(sweep, "seeds", int)
    sigmas = _parse_list(sweep, "sigmas", float)
    n, grid_size, count = int(sweep["n"]), int(sweep["grid"]), int(sweep["queries"])
    smoothing = float(sweep["smoothing"])
    # settings every row shares fail the sweep, not each of its rows
    for key, value, least in (("n", n, 0), ("grid", grid_size, 1), ("queries", count, 1)):
        if value < least:
            raise ValueError(f"sweep config key {key!r} must be at least {least}, got {value}")
    require_positive("sweep config key 'smoothing'", smoothing)
    for key in cfg:
        if key.replace("-", "_") in ROW_OPTIONS:
            raise ValueError(f"sweep config key {key!r}: each row sets it")
    # every release setting is parsed by the release parser, as for `release --config`;
    # the placeholder stands for the matrix each row generates
    release = _subparsers(build_parser())["release"]
    settings = {}
    for m, eps in itertools.product(methods, eps_values):
        entries = {**cfg, "method": m, "eps_total": repr(eps), **heights.get(m, {})}
        settings[m, eps] = release.parse_args([*_config_flags(entries, release), "--matrix", "-"])

    cells = list(itertools.product(sigmas, eps_values, sizes, seeds, methods))  # config order
    by_dataset: dict[tuple, list[int]] = {}
    for i, (sigma, _, _, seed, _) in enumerate(cells):
        by_dataset.setdefault((sigma, seed), []).append(i)
    order = [i for indices in by_dataset.values() for i in indices]

    def tasks():  # the rows of one dataset after another, each matrix and workload built once
        workloads = {}
        for (sigma, seed), indices in by_dataset.items():
            matrix = _attempt(_sweep_dataset, seed, sigma, n, grid_size)
            for i in indices:
                _, eps, size, _, method = cells[i]
                if (size, seed) not in workloads:
                    workloads[size, seed] = _attempt(_sweep_workload, seed, size, count, grid_size)
                row_settings = settings[method, eps]
                noise = NoiseSource(seed, zero_noise=row_settings.zero_noise)
                noise = noise.substream("release", method, str(eps), str(size))
                yield matrix, workloads[size, seed], row_settings, noise, smoothing

    with ProcessPoolExecutor(args.jobs) if args.jobs > 1 else contextlib.nullcontext() as pool:
        rows = dict(zip(order, (pool.map if pool else map)(_sweep_row, tasks())))
    out = args.out or sweep["out"]
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("method,sigma,eps_total,size,seed,mre,status\n")
        for i, (sigma, eps, size, seed, method) in enumerate(cells):
            mre, status = rows[i]
            fh.write(f"{method},{sigma:g},{eps:g},{size},{seed},{mre},{status}\n")
    failures = sum(1 for _, status in rows.values() if status != "ok")
    print(f"sweep: {len(rows)} rows ({failures} failed) -> {out}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

class _Parser(argparse.ArgumentParser):
    """Raises ValueError where argparse would exit, so ``main`` returns 2 for a rejected argument."""

    def error(self, message):
        raise ValueError(message)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file; flags override")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dphist", description=__doc__)
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
    p.add_argument("--eps-partition-level", type=float, help="fixed per-level structure budget (default 5e-4)")
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


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """The parser of each subcommand of ``build_parser()``, by name."""
    return next(action for action in parser._actions if action.dest == "command").choices


def _config_flags(cfg: dict[str, str], parser: argparse.ArgumentParser) -> list[str]:
    """The flags of ``parser`` that the config entries ``cfg`` stand for.

    They go before the command line's own flags, so argparse's
    last-one-wins rule lets an explicit flag, abbreviated or not,
    override the config. A key is an option name with ``_`` or ``-``. A
    flag that takes no value reads 1/true/yes as on and 0/false/no as
    off; anything else, or a key that names no option, raises ValueError.
    """
    options = {flag: action for action in parser._actions for flag in action.option_strings}
    out = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        action = options.get(flag)
        if action is None:
            raise ValueError(f"unknown config key {key!r}")
        if action.nargs != 0:
            out += [flag, value]
        elif value.lower() in _TRUTHY:
            out.append(flag)
        elif value.lower() not in _FALSY:
            raise ValueError(f"config key {key!r} is a switch: expected 1/true/yes or 0/false/no, got {value!r}")
        elif "--no-" + flag[2:] in action.option_strings:
            out.append("--no-" + flag[2:])
    return out


def _config_path(parser: argparse.ArgumentParser, argv: list[str]) -> str | None:
    """The ``--config`` file ``argv`` names, with abbreviations resolved as the command's ``parser`` resolves them."""
    required = [action for action in parser._actions if action.required]
    try:
        for action in required:
            action.required = False  # a required flag may come from the config
        return parser.parse_known_args(argv)[0].config
    finally:
        for action in required:
            action.required = True


def main(argv=None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    parser = build_parser()
    commands = _subparsers(parser)
    try:
        # config values become flags ahead of the command's own, so explicit flags win
        # (sweep reads its config itself)
        config = _config_path(commands[argv[0]], argv[1:]) if argv and argv[0] in commands and argv[0] != "sweep" else None
        if config:
            argv = [argv[0], *_config_flags(load_config(config), commands[argv[0]]), *argv[1:]]
        args = parser.parse_args(argv)
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
