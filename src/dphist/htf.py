"""Homogeneity-driven tree release (the HTF mechanism).

Builds a binary space-partitioning tree over the frequency matrix where
each split is chosen, under differential privacy, to minimize a
homogeneity objective: the summed absolute deviation of the two
candidate clusters from their means. Homogeneous leaves shrink the
uniformity error of partially overlapping range queries, so the tree
spends a small structure budget to find good split lines and the rest
on the released counts.

The release runs on a single total budget, in two passes:

1. height estimation: perturb the dataset size and derive the tree
   depth from ``noisy_total * eps_total / height_constant``;
2. partition and perturb-and-prune, in one top-down walk: node counts
   are perturbed under a geometric per-level allocation (leaves get the
   largest share), and a stop condition on the noisy count or cell
   extent prunes a subtree, re-perturbing the pruned node with the
   entire budget its path would have spent below. Only a node the stop
   condition keeps is split: per level, a fixed slice of the structure
   budget drives a quartering search over candidate split indices, each
   evaluation perturbed with sensitivity-2 Laplace noise. A pruned
   node's unspent structure budget is charged as reserved, so every
   path is charged the full total. Every draw is keyed by tree path, so
   the walk releases exactly what perturb-and-prune releases on the
   fully partitioned tree (``build_partitioning``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .grid import FrequencyMatrix, Region
from .histogram import PrivateHistogram
from .privacy import (
    BudgetLedger,
    BudgetSplit,
    NoiseSource,
    geometric_level_budget,
    laplace_sample,
)

__all__ = [
    "UnsplittableAxisError",
    "TreeNode",
    "HtfParams",
    "split_objective",
    "optimal_split_exact",
    "noisy_split_baseline",
    "get_split_point",
    "estimate_height",
    "build_partitioning",
    "perturb_and_prune",
    "release",
]

OBJECTIVE_SENSITIVITY = 2.0

# ledger labels
HEIGHT = "height"
SPLIT_EVAL = "split-eval"
PARTITION_RESERVED = "partition-reserved"
NODE_COUNT = "node-count"
PRUNE_TOPUP = "prune-topup"
WARN_NO_REMAIN = "warn-no-remaining-budget"


class UnsplittableAxisError(ValueError):
    """The requested axis has fewer than two cells to divide."""


@dataclass
class TreeNode:
    region: Region
    height: int
    count: int = 0
    ncount: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    path: tuple[int, ...] = ()

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None


@dataclass(frozen=True)
class HtfParams:
    """Release configuration.

    The structure budget is given either as ``eps_partition`` (a total,
    divided uniformly over the levels) or ``eps_partition_level`` (fixed
    per level); at most one of the two, with a 5e-4 per-level default
    when neither is set. ``search_iters`` bounds the quartering search:
    each split performs ``2 * search_iters + 1`` noisy objective
    evaluations.
    """

    eps_total: float
    eps_height: float = 1e-4
    eps_partition: float | None = None
    eps_partition_level: float | None = None
    search_iters: int = 3
    stop_count: float = 100.0
    stop_cells: int = 5
    height_override: int | None = None
    height_constant: float = 10.0

    def __post_init__(self):
        if self.eps_total <= 0 or self.eps_height <= 0:
            raise ValueError("eps_total and eps_height must be positive")
        if self.eps_partition is None and self.eps_partition_level is None:
            object.__setattr__(self, "eps_partition_level", 5e-4)
        if self.eps_partition is not None and self.eps_partition_level is not None:
            raise ValueError("set at most one of eps_partition / eps_partition_level")
        for name in ("eps_partition", "eps_partition_level"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive")
        if self.search_iters < 1:
            raise ValueError("search_iters must be at least 1")
        if self.stop_cells < 1:
            raise ValueError("stop_cells must be at least 1")
        if self.height_override is not None and self.height_override < 1:
            raise ValueError("height_override must be at least 1")
        if self.height_constant <= 0:
            raise ValueError("height_constant must be positive")


def _axis_extent(region: Region, axis: str) -> int:
    if axis == "y":
        return region.rows
    if axis == "x":
        return region.cols
    raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")


def _as_counts(matrix) -> tuple[np.ndarray, Region]:
    if isinstance(matrix, FrequencyMatrix):
        return matrix.counts, matrix.full_region()
    arr = np.ascontiguousarray(matrix, dtype=np.int64)
    if arr.ndim != 2:
        raise ValueError("expected a 2D count array")
    return arr, Region(0, arr.shape[0], 0, arr.shape[1])


def split_objective(matrix, k: int, axis: str) -> float:
    """Homogeneity objective for dividing the block at index ``k``.

    A "y" split groups the first ``k`` rows against the rest; "x" groups
    columns. ``k`` equal to the extent scores the undivided block (the
    empty second cluster contributes nothing).
    """
    counts, region = _as_counts(matrix)
    extent = _axis_extent(region, axis)
    if not (1 <= k <= extent):
        raise ValueError(f"split index {k} outside [1, {extent}]")
    return kernels.objective_at(counts, *region.as_tuple(), k, axis == "y")


def optimal_split_exact(matrix, axis: str) -> int:
    """Non-private argmin of the objective over k in 1..extent-1.

    Ties break toward the smallest index. Test oracle only; release
    paths never call this.
    """
    counts, region = _as_counts(matrix)
    extent = _axis_extent(region, axis)
    if extent < 2:
        raise UnsplittableAxisError(f"cannot split axis {axis} of extent {extent}")
    scan = kernels.objective_scan(counts, *region.as_tuple(), axis == "y")
    return int(np.argmin(scan[: extent - 1])) + 1


def noisy_split_baseline(
    matrix,
    axis: str,
    eps_partition_level: float,
    noise: NoiseSource,
    *,
    ledger: BudgetLedger | None = None,
    path: tuple[int, ...] = (),
    level: int = 0,
) -> int:
    """Exhaustive private selection: perturb every candidate, take the argmin.

    All ``extent - 1`` real splits are evaluated, each with independent
    Laplace(2 / eps_eval) noise where ``eps_eval`` divides the per-level
    budget evenly, so the whole level budget is consumed in one call.
    """
    if eps_partition_level <= 0:
        raise ValueError("eps_partition_level must be positive")
    counts, region = _as_counts(matrix)
    extent = _axis_extent(region, axis)
    if extent < 2:
        raise UnsplittableAxisError(f"cannot split axis {axis} of extent {extent}")
    eps_eval = eps_partition_level / (extent - 1)
    scan = kernels.objective_scan(counts, *region.as_tuple(), axis == "y")[: extent - 1]
    noisy = np.empty_like(scan)
    for i in range(extent - 1):
        draw = laplace_sample(OBJECTIVE_SENSITIVITY, eps_eval, noise.substream(*path, "baseline-split", i))
        noisy[i] = scan[i] + draw
        if ledger is not None:
            ledger.charge(SPLIT_EVAL, eps_eval, path=path, level=level)
    return int(np.argmin(noisy)) + 1


def get_split_point(
    matrix,
    axis: str,
    eps_partition_level: float,
    search_iters: int,
    noise: NoiseSource,
    *,
    ledger: BudgetLedger | None = None,
    path: tuple[int, ...] = (),
    level: int = 0,
    region: Region | None = None,
) -> int:
    """Quartering search for a near-optimal split index.

    Starts at the midpoint of the candidate range, then repeatedly
    evaluates the two inner quarter points and recenters on the noisy
    minimum, like a binary search over a unimodal objective. Exactly
    ``2 * search_iters + 1`` noisy evaluations are performed, each with
    budget ``eps_partition_level / (2 * search_iters + 1)`` and
    sensitivity-2 Laplace noise, so every split consumes one full level
    budget regardless of how early the interval collapses.
    """
    if eps_partition_level <= 0:
        raise ValueError("eps_partition_level must be positive")
    if search_iters < 1:
        raise ValueError("search_iters must be at least 1")
    if region is None:
        counts, region = _as_counts(matrix)
    else:
        counts = matrix.counts if isinstance(matrix, FrequencyMatrix) else np.asarray(matrix, dtype=np.int64)
    extent = _axis_extent(region, axis)
    if extent < 2:
        raise UnsplittableAxisError(f"cannot split axis {axis} of extent {extent}")

    eps_eval = eps_partition_level / (2 * search_iters + 1)
    row_split = axis == "y"
    eval_idx = 0

    def noisy_objective(k: int) -> float:
        nonlocal eval_idx
        value = kernels.objective_at(counts, *region.as_tuple(), k, row_split)
        draw = laplace_sample(OBJECTIVE_SENSITIVITY, eps_eval, noise.substream(*path, "split", eval_idx))
        eval_idx += 1
        if ledger is not None:
            ledger.charge(SPLIT_EVAL, eps_eval, path=path, level=level)
        return value + draw

    lo, hi = 1, extent
    k = lo + (hi - lo) // 2
    center = noisy_objective(k)
    remaining = search_iters
    while lo <= hi and remaining > 0:
        k1 = lo + (k - lo) // 2
        k2 = k + (hi - k) // 2
        y1 = noisy_objective(k1)
        y2 = noisy_objective(k2)
        best = min(center, y1, y2)
        if best == center:
            lo, hi = k1, k2
        elif best == y1:
            k, hi, center = k1, k, y1
        else:
            lo, k, center = k, k2, y2
        remaining -= 1
    return k


def estimate_height(
    matrix: FrequencyMatrix,
    eps_height: float,
    eps_total: float,
    noise: NoiseSource,
    *,
    ledger: BudgetLedger | None = None,
    height_constant: float = 10.0,
) -> int:
    """Tree height from the perturbed dataset size.

    ``floor(log2(noisy_total * eps_total / height_constant))``, clamped
    to [1, log2(N * M)]. More data offsets less budget: the estimate
    depends only on the product of the two.
    """
    if eps_height <= 0 or eps_total <= 0:
        raise ValueError("budgets must be positive")
    if height_constant <= 0:
        raise ValueError("height_constant must be positive")
    noisy_total = matrix.total + laplace_sample(1.0, eps_height, noise.substream("height"))
    if ledger is not None:
        ledger.charge(HEIGHT, eps_height, path=(), level=0)
    value = max(noisy_total, 1.0) * eps_total / height_constant
    height = int(math.floor(math.log2(value))) if value >= 1.0 else 0
    cap = max(1, int(math.floor(math.log2(matrix.rows * matrix.cols))) if matrix.rows * matrix.cols > 1 else 1)
    return min(max(height, 1), cap)


class _Splitter:
    """Private split search for single nodes of one release's tree.

    Holds what every split needs: the counts, the per-level structure
    budget, the search length, the noise and the ledger. ``split`` grows
    a node's two children in place; ``reserve`` charges the structure
    budget a pruned node's subtree will no longer spend.
    """

    def __init__(
        self,
        matrix: FrequencyMatrix,
        level_budget: float,
        search_iters: int,
        noise: NoiseSource,
        ledger: BudgetLedger,
    ):
        self.matrix = matrix
        self.level_budget = level_budget
        self.search_iters = search_iters
        self.noise = noise
        self.ledger = ledger

    def split(self, node: TreeNode) -> bool:
        """Give ``node`` two children; False if neither axis can be divided.

        The axis alternates with height (even heights divide rows, odd
        heights divide columns); a node whose preferred axis is a single
        cell wide tries the other axis. A node that cannot split at all
        has the structure budget of its remaining levels recorded as a
        reserved charge, so path accounting stays exact.
        """
        region, h = node.region, node.height
        preferred = "y" if h % 2 == 0 else "x"
        fallback = "x" if preferred == "y" else "y"
        axis = next((a for a in (preferred, fallback) if _axis_extent(region, a) >= 2), None)
        if axis is None:
            self.ledger.charge(PARTITION_RESERVED, self.level_budget * h, path=node.path, level=h)
            return False
        k = get_split_point(
            self.matrix,
            axis,
            self.level_budget,
            self.search_iters,
            self.noise,
            ledger=self.ledger,
            path=node.path,
            level=h,
            region=region,
        )
        if axis == "y":
            first = Region(region.row_lo, region.row_lo + k, region.col_lo, region.col_hi)
            second = Region(region.row_lo + k, region.row_hi, region.col_lo, region.col_hi)
        else:
            first = Region(region.row_lo, region.row_hi, region.col_lo, region.col_lo + k)
            second = Region(region.row_lo, region.row_hi, region.col_lo + k, region.col_hi)
        node.left = self.make_node(first, h - 1, node.path + (0,))
        node.right = self.make_node(second, h - 1, node.path + (1,))
        return True

    def reserve(self, node: TreeNode) -> None:
        """Charge the split levels below ``node`` that pruning leaves unspent."""
        levels = node.height if node.is_leaf else node.height - 1
        if levels > 0:
            self.ledger.charge(PARTITION_RESERVED, self.level_budget * levels, path=node.path, level=node.height)

    def make_node(self, region: Region, height: int, path: tuple[int, ...] = ()) -> TreeNode:
        return TreeNode(region=region, height=height, count=self.matrix.region_sum(region), path=path)


def build_partitioning(
    matrix: FrequencyMatrix,
    height: int,
    eps_partition_level: float,
    search_iters: int,
    noise: NoiseSource,
    ledger: BudgetLedger,
) -> TreeNode:
    """Recursive private partitioning from the full domain down to height 0.

    Splits every node of the full tree; ``release`` instead splits only
    the nodes that perturb-and-prune keeps, with the same draws.
    """
    if height < 1:
        raise ValueError("height must be at least 1")
    splitter = _Splitter(matrix, eps_partition_level, search_iters, noise, ledger)

    def build(node: TreeNode) -> None:
        if node.height > 0 and splitter.split(node):
            build(node.left)
            build(node.right)

    root = splitter.make_node(matrix.full_region(), height)
    build(root)
    del build  # see perturb_and_prune
    return root


def perturb_and_prune(
    root: TreeNode,
    eps_data: float,
    stop_count: float,
    stop_cells: int,
    height: int,
    noise: NoiseSource,
    ledger: BudgetLedger,
    splitter: _Splitter | None = None,
) -> list[tuple[Region, float]]:
    """Top-down count perturbation with stop-condition pruning.

    Every visited node is charged its geometric level budget and gets a
    noisy count. If that count is at most ``stop_count``, or the region
    holds fewer than ``stop_cells`` cells, or the node has no children,
    the subtree is dropped and the node re-perturbed with the entire
    budget remaining on its path; the first noisy count only serves the
    decision. Height-0 nodes are released with their geometric-budget
    count as-is.

    Without ``splitter`` the tree must be built already. With it, a kept
    node that has no children yet is split on the spot, and a pruned node
    charges the structure budget its subtree no longer spends, so every
    path still totals the full budget.
    """
    if eps_data <= 0:
        raise ValueError("eps_data must be positive")
    if root.is_leaf:
        # Degenerate single-node tree: one release with the full data budget.
        ledger.charge(NODE_COUNT, eps_data, path=root.path, level=0)
        root.ncount = root.count + laplace_sample(1.0, eps_data, noise.substream("count"))
        return [(root.region, root.ncount)]

    leaves: list[tuple[Region, float]] = []

    def visit(node: TreeNode, eps_used: float) -> None:
        level_eps = geometric_level_budget(node.height, height, eps_data)
        ledger.charge(NODE_COUNT, level_eps, path=node.path, level=node.height)
        node.ncount = node.count + laplace_sample(1.0, level_eps, noise.substream(*node.path, "count"))
        eps_used += level_eps
        if node.height == 0:
            leaves.append((node.region, node.ncount))
            return
        stop = node.ncount <= stop_count or node.region.cells < stop_cells
        if splitter is not None:
            if stop:
                splitter.reserve(node)
            elif node.is_leaf:
                splitter.split(node)
        if stop or node.is_leaf:
            eps_remain = eps_data - eps_used
            if eps_remain > 1e-12:
                ledger.charge(PRUNE_TOPUP, eps_remain, path=node.path, level=node.height)
                node.ncount = node.count + laplace_sample(1.0, eps_remain, noise.substream(*node.path, "prune"))
            else:
                ledger.note(WARN_NO_REMAIN, path=node.path, level=node.height)
            node.left = None
            node.right = None
            leaves.append((node.region, node.ncount))
            return
        visit(node.left, eps_used)
        visit(node.right, eps_used)

    visit(root, 0.0)
    # visit refers to itself through its closure; unlinking it frees the splitter
    # and its matrix now instead of at the next full garbage collection
    del visit
    return leaves


def release(
    matrix: FrequencyMatrix,
    params: HtfParams,
    noise: NoiseSource,
    *,
    audit: bool = True,
) -> PrivateHistogram:
    """Full pipeline: estimate height, then partition and perturb-and-prune.

    Returns the released histogram with its resolved budget split and
    the consumption ledger attached. With ``audit`` the leaf cover and
    ledger validity are checked before returning.
    """
    ledger = BudgetLedger()
    if params.height_override is not None:
        height = params.height_override
        # The height budget is committed by the configuration either way.
        ledger.charge(HEIGHT, params.eps_height, path=(), level=0)
    else:
        height = estimate_height(
            matrix,
            params.eps_height,
            params.eps_total,
            noise,
            ledger=ledger,
            height_constant=params.height_constant,
        )

    if params.eps_partition_level is not None:
        level_budget = params.eps_partition_level
        eps_partition = level_budget * height
    else:
        eps_partition = params.eps_partition
        level_budget = eps_partition / height
    eps_data = params.eps_total - eps_partition - params.eps_height
    if eps_data <= 0:
        raise ValueError(
            f"no data budget left: eps_total={params.eps_total}, structure takes "
            f"{eps_partition + params.eps_height} at height {height}"
        )
    split = BudgetSplit(
        eps_total=params.eps_total,
        eps_partition=eps_partition,
        eps_data=eps_data,
        eps_height=params.eps_height,
        eps_partition_level=params.eps_partition_level,
    )

    # The root is split before its stop test: an unsplittable root is the
    # degenerate single-node release, which takes the whole data budget.
    splitter = _Splitter(matrix, level_budget, params.search_iters, noise, ledger)
    root = splitter.make_node(matrix.full_region(), height)
    data_height = height if splitter.split(root) else 0
    leaves = perturb_and_prune(
        root, split.eps_data, params.stop_count, params.stop_cells, data_height, noise, ledger, splitter
    )

    hist = PrivateHistogram(
        shape=matrix.shape,
        bounds=np.array([r.as_tuple() for r, _ in leaves], dtype=np.int64),
        ncounts=np.array([n for _, n in leaves], dtype=np.float64),
        eps_total=params.eps_total,
        method="htf",
        split=split,
        ledger=ledger,
    )
    if audit:
        hist.validate_cover()
        ledger.assert_valid(params.eps_total)
    return hist
