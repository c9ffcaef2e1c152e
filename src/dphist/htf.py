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
2. partition and perturb-and-prune, in one top-down walk a level at a
   time (``perturb_and_prune``): node counts are perturbed under a geometric
   per-level allocation (leaves get the largest share), and a stop
   condition on the noisy count or cell extent prunes a node,
   re-perturbing it with the entire budget its path would have spent
   below and charging its unspent structure budget as
   ``partition-reserved`` (``tree.reserve``), so every path is charged
   the full total. Every node the walk keeps is split (``split_level``):
   per level, a fixed slice of the structure budget, charged once per
   split as ``split``, drives a quartering search over candidate split
   indices, each evaluation perturbed with sensitivity-2 Laplace noise.
   An unsplittable root (a 1x1 grid) enters the walk as a height-0 leaf.
   Draws are keyed by tree path, so pruning the full tree that
   ``build_partitioning`` grows releases the same leaves.

The objective is exact. A cluster of n cells with sum S deviates from its
mean by ``2·(S·n_< - n·S_<) / n`` in all, where n_< and S_< count and sum
its cells c with ``c <= (S - 1) // n`` (those below the mean). The
numerator is an int64 product, whatever the order of summation, for any
matrix with ``(total + 1)·N·M <= 2^63``; a larger total is rejected. The
nodes a level splits are disjoint, so their searches run together
(``_quartering_search`` over a ``kernels.LevelObjective``): one array round
for the centres and one for each of the ``search_iters`` pairs of quarter
points, not ``2 * search_iters + 1`` calls per node. ``split_level`` is the
one split search.

Draws are keyed by site, not by visiting order: ``(HEIGHT, 0, 0, 0)``
for the height (the one single draw, ``NoiseSource.laplace``),
``(COUNT, code, 0, 0)`` and ``(PRUNE, code, 0, 0)`` for a node's counts and
``(SPLIT, code, e, 0)`` for its split evaluation ``e``, where ``code`` is
its path's code (``Node.code``, which also keys its ledger rows); a
level's draws of each kind take one ``laplace_array`` call. A height above
``privacy.MAX_PATH_DEPTH`` (31) is rejected: no path code.

Every budget passes ``privacy.require_positive``, and ``release`` checks
that a data budget is left. The ledger is the one budget record: rows
``height``, ``split``/``partition-reserved`` and ``node-count``/``prune-topup``.

The tree itself (``tree.Node`` on integer bounds, the alternating split
axis, the binary split step ``bisect``, the level-wise ``grow`` and the
per-height budgets) is the core the kd-tree and quadtree baselines share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from . import kernels, privacy, tree
from .grid import FrequencyMatrix
from .histogram import PrivateHistogram
from .privacy import MAX_PATH_DEPTH, BudgetLedger, NoiseSource, require_positive, site_counters
from .tree import Node

__all__ = [
    "HtfParams",
    "estimate_height",
    "split_level",
    "build_partitioning",
    "perturb_and_prune",
    "release",
]

OBJECTIVE_SENSITIVITY = 2.0

# ledger labels
HEIGHT = "height"
SPLIT = "split"
NODE_COUNT = "node-count"
PRUNE_TOPUP = "prune-topup"


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
        if self.eps_partition is None and self.eps_partition_level is None:
            object.__setattr__(self, "eps_partition_level", 5e-4)
        if self.eps_partition is not None and self.eps_partition_level is not None:
            raise ValueError("set at most one of eps_partition / eps_partition_level")
        for name in ("eps_total", "eps_height", "eps_partition", "eps_partition_level", "height_constant"):
            if getattr(self, name) is not None:
                require_positive(name, getattr(self, name))
        if self.search_iters < 1:
            raise ValueError("search_iters must be at least 1")
        if self.stop_cells < 1:
            raise ValueError("stop_cells must be at least 1")
        if self.height_override is not None and not 1 <= self.height_override <= MAX_PATH_DEPTH:
            raise ValueError(f"height_override must be in [1, {MAX_PATH_DEPTH}], got {self.height_override!r}")
        if math.isnan(self.stop_count):
            raise ValueError("stop_count must not be NaN")


def _split_draws(noise: NoiseSource, codes, level_budget: float, search_iters: int) -> np.ndarray:
    """The ``(K, 2 * search_iters + 1)`` evaluation noise of the path ``codes``: e at ``(SPLIT, code, e, 0)``."""
    evals = 2 * search_iters + 1
    sites = site_counters(privacy.SPLIT, np.asarray(codes, dtype=np.uint64)[:, None], np.arange(evals))
    return noise.laplace_array(OBJECTIVE_SENSITIVITY / (level_budget / evals), sites).reshape(-1, evals)


def _quartering_search(objective: kernels.LevelObjective, draws: np.ndarray) -> np.ndarray:
    """The split index of every block of ``objective``, block i's evaluation e perturbed by ``draws[i, e]``.

    The searches of all blocks run together: one objective call for the
    centres, then one per round for both quarter points. A tie goes to
    the centre, then to the lower quarter.
    """
    lo, hi = np.ones_like(objective.extent), objective.extent
    k = lo + (hi - lo) // 2  # lo <= k <= hi throughout
    center = objective(k)[:, 0] + draws[:, 0]
    for e in range(1, draws.shape[1], 2):
        k1 = lo + (k - lo) // 2
        k2 = k + (hi - k) // 2
        y1, y2 = (objective(np.stack([k1, k2], axis=1)) + draws[:, e:e + 2]).T
        at = [(center <= y1) & (center <= y2), y1 <= y2]  # else the upper quarter
        lo, hi, k, center = (
            np.select(at, [k1, lo], k),
            np.select(at, [k2, k], hi),
            np.select(at, [k, k1], k2),
            np.select(at, [center, y1], y2),
        )
    return k


def estimate_height(
    matrix: FrequencyMatrix,
    eps_height: float,
    eps_total: float,
    noise: NoiseSource,
    *,
    ledger: BudgetLedger,
    height_constant: float = 10.0,
) -> int:
    """Tree height from the perturbed dataset size, its budget charged to ``ledger`` as ``height``.

    ``floor(log2(noisy_total * eps_total / height_constant))``, clamped
    to [1, log2(N * M)]. More data offsets less budget: the estimate
    depends only on the product of the two.
    """
    for name, value in (("eps_height", eps_height), ("eps_total", eps_total), ("height_constant", height_constant)):
        require_positive(name, value)
    noisy_total = matrix.total + noise.laplace(1.0 / eps_height, privacy.HEIGHT, 0, 0, 0)
    ledger.charge(HEIGHT, eps_height)
    value = max(noisy_total, 1.0) * eps_total / height_constant
    height = int(math.floor(math.log2(value))) if value >= 1.0 else 0
    return min(max(height, 1), tree.binary_height_cap(matrix.rows, matrix.cols))


def split_level(nodes, matrix: FrequencyMatrix, level_budget: float, search_iters: int, noise, ledger) -> list[Node]:
    """Split each of ``nodes`` at a searched index (``tree.bisect``); return those split.

    The evaluations of every node an axis divides are drawn in one call,
    and their searches run as one (``_quartering_search``).
    """

    def cut(bounds: np.ndarray, rows: np.ndarray, codes) -> np.ndarray:
        draws = _split_draws(noise, codes, level_budget, search_iters)
        return _quartering_search(kernels.LevelObjective(matrix, bounds, rows), draws)

    return tree.bisect(nodes, cut, level_budget, ledger, SPLIT, matrix.region_sums)


def build_partitioning(
    matrix: FrequencyMatrix,
    height: int,
    eps_partition_level: float,
    search_iters: int,
    noise: NoiseSource,
    ledger: BudgetLedger,
) -> Node:
    """Private partitioning from the full domain down to height 0, a level at a time (``tree.grow``).

    Splits every node of the full tree; ``release`` instead splits only
    the nodes that ``perturb_and_prune`` keeps, with the same draws.
    """
    if height < 1:
        raise ValueError("height must be at least 1")

    def step(nodes: list[Node]) -> None:
        split_level(nodes, matrix, eps_partition_level, search_iters, noise, ledger)

    root = Node((0, matrix.rows, 0, matrix.cols), height, count=matrix.total)
    tree.grow(root, step, ledger)
    return root


def perturb_and_prune(
    root: Node,
    matrix: FrequencyMatrix,
    eps_data: float,
    eps_partition_level: float,
    search_iters: int,
    stop_count: float,
    stop_cells: int,
    noise: NoiseSource,
    ledger: BudgetLedger,
) -> list[tuple[tuple[int, int, int, int], float]]:
    """Top-down count perturbation with stop-condition pruning, splitting the nodes it keeps, a level at a time.

    Every visited node is charged the geometric level budget of its
    height (``eps_data`` over the levels from ``root.height`` down) and
    gets a noisy count. If that count is at most ``stop_count``, or the
    node holds fewer than ``stop_cells`` cells, the node is pruned: it
    charges the structure budget its subtree no longer spends
    (``tree.reserve``), and is re-perturbed with the entire data budget
    remaining on its path; the first noisy count only serves the
    decision. A kept node without children is split (``split_level``);
    one that neither axis divides is pruned the same way. Height-0 nodes
    are released with their level-budget count as-is, so a height-0
    root, an unsplittable grid, takes the whole of ``eps_data``. The
    leaves are read from the table ``tree.grow`` returns, in preorder.
    """
    require_positive("eps_data", eps_data)
    # the geometric share of a single level is eps_data only up to rounding
    budgets = np.array(tree.level_budgets(eps_data, root.height) if root.height else [eps_data])
    # remain[h] = eps_data - (budgets[root.height] + ... + budgets[h]), the spent part added from the root down
    remain = eps_data - np.cumsum(budgets[::-1])[::-1]

    def step(nodes: list[Node]) -> None:
        height = np.array([node.height for node in nodes])
        codes = np.array([node.code for node in nodes], dtype=np.uint64)
        eps = budgets[height]
        ledger.charge_many(NODE_COUNT, eps, codes=codes, levels=height)
        count = np.array([node.count for node in nodes], dtype=np.int64)
        ncount = count + noise.laplace_array(1.0 / eps, site_counters(privacy.COUNT, codes))
        r0, r1, c0, c1 = np.array([node.bounds for node in nodes], dtype=np.int64).T
        pruned = (height > 0) & ((ncount <= stop_count) | ((r1 - r0) * (c1 - c0) < stop_cells))
        tree.reserve(list(compress(nodes, pruned)), eps_partition_level, ledger)
        for node in compress(nodes, pruned):
            node.children = []
        unsplit = ~pruned & np.array([node.is_leaf for node in nodes])
        split_level(list(compress(nodes, unsplit)), matrix, eps_partition_level, search_iters, noise, ledger)
        # pruned, or neither axis divides it: re-perturbed with the data budget left on its path
        topup = np.array([node.is_leaf for node in nodes]) & (height > 0)
        eps_topup = remain[height[topup]]
        ledger.charge_many(PRUNE_TOPUP, eps_topup, codes=codes[topup], levels=height[topup])
        ncount[topup] = count[topup] + noise.laplace_array(1.0 / eps_topup, site_counters(privacy.PRUNE, codes[topup]))
        for node, value in zip(nodes, ncount.tolist()):
            node.ncount = value

    table = tree.grow(root, step, ledger)
    return list(zip(map(tuple, table.bounds[table.leaf].tolist()), table.ncount[table.leaf].tolist()))


def release(
    matrix: FrequencyMatrix,
    params: HtfParams,
    noise: NoiseSource,
) -> PrivateHistogram:
    """Full pipeline: estimate height, then partition and perturb-and-prune.

    Returns the released histogram with its ledger, the record of its
    height, structure and data budgets, attached once its leaves tile the
    grid and no ledger path spends more than ``eps_total``.
    """
    ledger = BudgetLedger()
    if params.height_override is not None:
        height = params.height_override
        # The height budget is committed by the configuration either way.
        ledger.charge(HEIGHT, params.eps_height)
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

    # The root is split before its stop test. An unsplittable root (a 1x1
    # grid) reserves every split level and enters the walk as a height-0 leaf.
    root = Node((0, matrix.rows, 0, matrix.cols), height, count=matrix.total)
    if not split_level([root], matrix, level_budget, params.search_iters, noise, ledger):
        root.height = 0
    leaves = perturb_and_prune(
        root, matrix, eps_data, level_budget, params.search_iters, params.stop_count, params.stop_cells, noise, ledger
    )

    bounds, ncounts = zip(*leaves)
    return PrivateHistogram.audited(matrix.shape, bounds, ncounts, params.eps_total, ledger)
