"""Spans and work counts around the public functions of each dphist module.

The benchmark traces the program from its own files: ``Tracer.installed``
replaces module and class attributes of ``dphist`` with timing wrappers for
the length of a ``with`` block and puts the originals back afterwards. The
program looks these names up at call time, so its own calls go through the
wrappers. A span records calls, inclusive time and self time (its duration
minus the time its child spans cover). Counts are work done, computed from
arguments and results, so they repeat exactly for a fixed seed.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def _wrap_attribute(original, wrap):
    """Apply ``wrap`` to a plain function or to the function under a classmethod."""
    if isinstance(original, classmethod):
        return classmethod(wrap(original.__func__))
    return wrap(original)


@contextmanager
def patched(owner, attr, wrap):
    """Replace ``owner.attr`` by ``wrap(original)`` inside the block."""
    original = inspect.getattr_static(owner, attr)
    setattr(owner, attr, _wrap_attribute(original, wrap))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _tree_size(node) -> int:
    size, stack = 0, [node]
    while stack:
        current = stack.pop()
        size += 1
        stack.extend(c for c in (current.left, current.right) if c is not None)
    return size


class Tracer:
    """Collects spans and counts for one pass of a workload."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.counts: dict[str, int] = {}
        self._child_s: list[float] = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def span_s(self, name: str, field: str = "total_s") -> float:
        span = self.spans.get(name)
        return getattr(span, field) if span else 0.0

    def wrap(self, name, fn, after=None):
        span = self.spans.setdefault(name, Span())
        child_s = self._child_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_s.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child_s.pop()
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - inner
                if child_s:
                    child_s[-1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Trace every layer boundary listed in ``_boundaries`` inside the block."""
        with ExitStack() as stack:
            for name, owner, attr, after in _boundaries(self):
                stack.enter_context(patched(owner, attr, lambda fn, n=name, a=after: self.wrap(n, fn, a)))
            yield self


def _boundaries(tracer: Tracer):
    from dphist import baselines, cli, grid, htf, kernels, queries
    from dphist.histogram import PrivateHistogram
    from dphist.privacy import BudgetLedger, NoiseSource

    count = tracer.count

    def objective_cells(args, _result):
        _counts, r0, r1, c0, c1 = args[:5]
        count("kernels.objective_at.cells", (r1 - r0) * (c1 - c0))

    def answer_pairs(args, _result):
        bounds, _ncounts, queries_ = args[:3]
        count("kernels.answer_workload.pairs", len(bounds) * len(queries_))

    def built(args, root):
        tracer.counts["htf.height"] = max(tracer.counts.get("htf.height", 0), int(args[1]))
        count("htf.nodes_built", _tree_size(root))

    def kept(args, leaves):
        count("htf.nodes_kept", _tree_size(args[0]))
        count("htf.leaves", len(leaves))

    out = [
        ("kernels.objective_at", kernels, "objective_at", objective_cells),
        ("kernels.answer_workload", kernels, "answer_workload", answer_pairs),
        ("privacy.laplace", NoiseSource, "laplace", None),
        ("privacy.substream", NoiseSource, "substream", None),
        ("privacy.assert_valid", BudgetLedger, "assert_valid", None),
        ("htf.estimate_height", htf, "estimate_height", None),
        ("htf.build_partitioning", htf, "build_partitioning", built),
        ("htf.perturb_and_prune", htf, "perturb_and_prune", kept),
        ("histogram.validate_cover", PrivateHistogram, "validate_cover", None),
        ("histogram.save", PrivateHistogram, "save", None),
        ("histogram.load", PrivateHistogram, "load", None),
        ("queries.generate_workload", queries, "generate_workload", None),
        ("queries.answer_workload", queries, "answer_workload", None),
        ("queries.evaluate", queries, "evaluate", None),
        ("cli.build_release", cli, "build_release", None),
    ]
    out += [(f"baselines.{fn}", baselines, fn, None) for fn in BASELINE_FUNCTIONS]
    out += [(f"grid.{fn}", grid, fn, None) for fn in GRID_FUNCTIONS]
    out += [(f"cli.{cmd}", cli, f"cmd_{cmd}", None) for cmd in CLI_COMMANDS]
    return out


BASELINE_FUNCTIONS = (
    "build_uniform_grid",
    "build_adaptive_grid",
    "build_quadtree",
    "build_kdtree",
    "build_singular",
    "build_flat_uniform",
    "enforce_hierarchical_consistency",
)
GRID_FUNCTIONS = ("sample_gaussian_points", "discretize", "save_points", "load_points", "save_matrix", "load_matrix")
CLI_COMMANDS = ("generate", "ingest", "release", "evaluate", "sweep")

# counts the tracer itself records; two traced passes must agree on all of them
TRACER_COUNTS = (
    "kernels.objective_at.cells",
    "kernels.answer_workload.pairs",
    "htf.height",
    "htf.nodes_built",
    "htf.nodes_kept",
    "htf.leaves",
)


def layer_metrics(tracer: Tracer, files: dict[str, int]) -> dict[str, float]:
    """Per-layer times and counts of one traced pass, keyed as in ``BENCHMARK.json``.

    ``files`` holds the artifact sizes, ledger rows and sweep rows that the
    gate measured on the pass's output files.
    """
    s = tracer.span_s
    calls = {name: span.calls for name, span in tracer.spans.items()}
    out: dict[str, float] = {name: tracer.counts.get(name, 0) for name in TRACER_COUNTS}
    out.update(
        {
            "kernels.objective_at.calls": calls.get("kernels.objective_at", 0),
            "privacy.laplace.calls": calls.get("privacy.laplace", 0),
            "privacy.substream.calls": calls.get("privacy.substream", 0),
            "privacy.ledger.entries": files["ledger_entries"],
            "privacy.ledger.bytes": files["ledger_bytes"],
            "histogram.bytes": files["release_bytes"],
            "grid.points_bytes": files["points_bytes"],
            "grid.matrix_bytes": files["matrix_bytes"],
            "cli.sweep.rows": files["sweep_rows"],
        }
    )
    built = out["htf.nodes_built"]
    out["htf.split_yield"] = out["htf.nodes_kept"] / built if built else 0.0
    for name in TIMED_SPANS:
        out[name + ".s"] = s(name)
    out["queries.answer_workload.self_s"] = s("queries.answer_workload", "self_s")
    out["queries.evaluate.self_s"] = s("queries.evaluate", "self_s")
    rows = files["sweep_rows"]
    out["cli.sweep.row_s"] = s("cli.sweep") / rows if rows else 0.0
    return out


# spans reported by inclusive time as ``<span>.s``
TIMED_SPANS = (
    "kernels.objective_at",
    "kernels.answer_workload",
    "privacy.laplace",
    "privacy.substream",
    "privacy.assert_valid",
    "htf.estimate_height",
    "htf.build_partitioning",
    "htf.perturb_and_prune",
    "histogram.validate_cover",
    "histogram.save",
    "histogram.load",
    "queries.generate_workload",
    "cli.build_release",
    *(f"baselines.{fn}" for fn in BASELINE_FUNCTIONS),
    *(f"grid.{fn}" for fn in GRID_FUNCTIONS),
    *(f"cli.{cmd}" for cmd in CLI_COMMANDS if cmd != "sweep"),
)

# work counts: every traced pass of one run must report the same values
COUNT_METRICS = (
    *TRACER_COUNTS,
    "kernels.objective_at.calls",
    "privacy.laplace.calls",
    "privacy.substream.calls",
    "privacy.ledger.entries",
    "privacy.ledger.bytes",
    "histogram.bytes",
    "grid.points_bytes",
    "grid.matrix_bytes",
    "cli.sweep.rows",
    "htf.split_yield",
)
