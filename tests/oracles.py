"""Independent brute-force oracles shared across test modules.

The objective oracles deliberately avoid the package's kernels: plain
python loops and naive summations only, so they stay independent of the
code paths they check. Exact rational values (``Fraction``) are the
reference of the package's integer objective; the float form that sums
each cell's distance from a float mean (``objective_at_float``) is the
one the package computed before. The split selectors (the full objective
scan, its exact argmin and the exhaustive noisy argmin) are the
references the private quartering search is measured against; no release
calls them. ``quartering_search`` is that search on one block at a time,
the reference of ``htf``'s search over a whole level.

The node-at-a-time forms of the quadtree, the kd-tree (each node's
median drawn on its own), the consistency smoothing, the ledger's path
audit and the Gaussian sampler's resampling loop follow them. The
package replaced each with array passes that must give the same bits;
these are the references they are checked against. A node's noise
variance is kept as a ``noise_var`` attribute of its ``Node``. The grid
baselines' cell layout (``grid_cells``) is the same kind of reference,
and so are the answering kernel that paints every cell
(``cell_leaf_owner``, ``cell_answer_workload``) and the dataset helpers
that allocate their temporaries (``sample_gaussian_points_allocating``,
``discretize_allocating``), the matrix reader that parses every file
with ``np.loadtxt`` (``load_matrix_loadtxt``), the workload generator
that draws each query with scalar ``rng.integers`` calls
(``generate_workload_loop``), and the preorder walk
that reads a hand-built ``Node`` tree into a table (``flatten_nodes``),
where ``tree.grow`` sorts the nodes it grew.

The two-mode htf walk is the reference of htf's one walk: it prunes a
prebuilt tree, or splits the nodes it keeps through a splitter object,
and releases a single-node tree on a branch of its own.

Every draw of these walks goes through the reference cipher here:
Philox4x64-10 on Python ints (``philox``), one site at a time, with the
package's uniform and Laplace quantile (``laplace``). The package draws
through its numpy form, ``privacy.philox_array``, a grid, a tree or a
tree level per call, so a walk and its array pass agree only if the two
ciphers do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np
from hypothesis import strategies as st

from dphist import kernels, tree
from dphist.baselines import enforce_hierarchical_consistency, exponential_mechanism_probs
from dphist.grid import FrequencyMatrix, loadtxt, require_inside
from dphist.histogram import PrivateHistogram
from dphist.htf import (
    HEIGHT,
    NODE_COUNT,
    OBJECTIVE_SENSITIVITY,
    PRUNE_TOPUP,
    SPLIT,
    HtfParams,
    estimate_height,
)
from dphist.privacy import (
    COUNT,
    EM,
    PRUNE,
    BudgetLedger,
    NoiseSource,
    path_code,
    require_positive,
)
from dphist.privacy import SPLIT as SPLIT_SITE
from dphist.queries import Workload, WorkloadSpec
from dphist.tree import Node


# ---------------------------------------------------------------------------
# the reference cipher: one site at a time, on Python ints

_MASK = 2**64 - 1
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157  # Philox4x64 round multipliers
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B  # and key increments


def philox(counter, key) -> int:
    """The first output word of Philox4x64-10 for a four-word ``counter`` under a two-word ``key``."""
    if len(counter) != 4:
        raise ValueError(f"a counter is four words, got {tuple(counter)!r}")
    c0, c1, c2, c3 = (int(c) for c in counter)
    if min(c0, c1, c2, c3) < 0 or max(c0, c1, c2, c3) > _MASK:
        raise ValueError(f"counter words must fit in 64 bits, got {tuple(counter)!r}")
    k0, k1 = int(key[0]), int(key[1])
    for _ in range(10):
        p0 = _M0 * c0
        p1 = _M1 * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK
        k0, k1 = (k0 + _W0) & _MASK, (k1 + _W1) & _MASK
    return c0


def uniform(noise: NoiseSource, *site: int) -> float:
    """The uniform in (0, 1) of the draw at ``site``: the top 53 bits of its word, at the midpoint of their bin.

    The top bin's midpoint rounds to 1.0 and is clamped to the float below it, ``1 - 2**-53``.
    """
    return min(((philox(site, noise.key) >> 11) + 0.5) * 2.0**-53, 1.0 - 2.0**-53)


def laplace_quantile(scale: float, u: float) -> float:
    """The inverse Laplace(0, ``scale``) CDF at the uniform ``u``, through ``np.log``."""
    return scale * (float(np.log(2.0 * u)) if u < 0.5 else -float(np.log(2.0 - 2.0 * u)))


def laplace(noise: NoiseSource, scale: float, *site: int) -> float:
    """Laplace(0, ``scale``) at ``site`` by the inverse CDF; 0 in zero-noise mode."""
    if noise.zero_noise:
        return 0.0
    return laplace_quantile(scale, uniform(noise, *site))


def laplace_draw(sensitivity: float, eps: float, noise: NoiseSource, *site: int) -> float:
    """Laplace(0, ``sensitivity / eps``) at ``site`` through the reference cipher, once both pass ``require_positive``."""
    require_positive("sensitivity", sensitivity)
    require_positive("eps", eps)
    return laplace(noise, sensitivity / eps, *site)


def choice(noise: NoiseSource, probs, *site: int) -> int:
    """One categorical draw at ``site`` by inverse CDF; the argmax (smallest on ties) in zero-noise mode."""
    if noise.zero_noise:
        return int(np.argmax(probs))
    cdf = np.cumsum(probs)
    return min(int(np.searchsorted(cdf, uniform(noise, *site) * cdf[-1], side="right")), len(cdf) - 1)


def path_of(code: int) -> tuple[int, ...]:
    """The tree path of a path code, its child indices from the root: ``path_code`` undone two bits at a time."""
    path = []
    while code > 1:
        path.append(code & 3)
        code >>= 2
    return tuple(reversed(path))


def preorder(root: Node):
    """Every node top-down, children left to right; a node's children are read after it is yielded."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def flatten_nodes(root: Node) -> tree.NodeTable:
    """The ``NodeTable`` of a hand-built ``Node`` tree, read in one preorder walk; its codes are Python ints."""
    nodes, depth = [], []
    stack = [(root, 0)]
    while stack:
        node, d = stack.pop()
        nodes.append(node)
        depth.append(d)
        stack.extend((child, d + 1) for child in reversed(node.children))
    return tree.NodeTable(
        bounds=np.array([node.bounds for node in nodes], dtype=np.int64),
        height=np.array([node.height for node in nodes], dtype=np.int64),
        depth=np.array(depth, dtype=np.int64),
        children=np.array([len(node.children) for node in nodes], dtype=np.int64),
        codes=[node.code for node in nodes],
        count=np.array([node.count for node in nodes], dtype=np.int64),
    )


def grow_nodes(root: Node, split) -> Node:
    """Call ``split(node)`` on every node above height 0 in preorder, top-down, and return ``root``."""
    for node in preorder(root):
        if node.height > 0:
            split(node)
    return root


def bisect_node(node: Node, cut, eps: float, ledger: BudgetLedger, label: str, matrix) -> bool:
    """``tree.bisect`` of the one ``node``, ``cut(node, axis)`` giving its index; True if split."""

    def cuts(bounds, rows, codes):
        return [cut(node, "y" if rows[0] else "x")]

    return bool(tree.bisect([node], cuts, eps, ledger, label, matrix.region_sums))


def split_point(matrix, axis, eps_partition_level, search_iters, noise, *, code=1, bounds=None) -> int:
    """The split index ``htf.split_level`` searches for one block, each evaluation drawn on its own through the reference cipher."""
    require_positive("eps_partition_level", eps_partition_level)
    counts = matrix.counts if isinstance(matrix, FrequencyMatrix) else np.ascontiguousarray(matrix, dtype=np.int64)
    bounds = (0, counts.shape[0], 0, counts.shape[1]) if bounds is None else bounds
    r0, r1, c0, c1 = bounds
    extent = r1 - r0 if axis == "y" else c1 - c0
    if extent < 2:
        raise ValueError(f"cannot split axis {axis} of extent {extent}")
    eps_eval = eps_partition_level / (2 * search_iters + 1)
    evals = range(2 * search_iters + 1)
    draws = [laplace_draw(OBJECTIVE_SENSITIVITY, eps_eval, noise, SPLIT_SITE, code, e, 0) for e in evals]
    return quartering_search(counts, bounds, axis, draws)


def quartering_search(counts, bounds, axis: str, draws) -> int:
    """The quartering search of one block, one evaluation at a time, evaluation e perturbed by ``draws[e]``.

    A tie goes to the centre, then to the lower quarter.
    """

    def noisy_objective(k: int, draw: float) -> float:
        return kernels.objective_at(counts, *bounds, k, axis == "y") + draw

    noise = iter(list(draws))
    r0, r1, c0, c1 = bounds
    lo, hi = 1, r1 - r0 if axis == "y" else c1 - c0
    k = lo + (hi - lo) // 2
    center = noisy_objective(k, next(noise))
    for _ in range(len(draws) // 2):
        k1 = lo + (k - lo) // 2
        k2 = k + (hi - k) // 2
        y1 = noisy_objective(k1, next(noise))
        y2 = noisy_objective(k2, next(noise))
        best = min(center, y1, y2)
        if best == center:
            lo, hi = k1, k2
        elif best == y1:
            k, hi, center = k1, k, y1
        else:
            lo, k, center = k, k2, y2
    return k


def cluster_deviation(cells) -> float:
    if not cells:
        return 0.0
    mu = sum(cells) / len(cells)
    return sum(abs(c - mu) for c in cells)


def objective_value(block, k, row_split=True) -> float:
    """Summed absolute deviation of the two clusters split at index k."""
    rows = [list(r) for r in block]
    if not row_split:
        rows = [list(col) for col in zip(*rows)]
    first = [c for row in rows[:k] for c in row]
    second = [c for row in rows[k:] for c in row]
    return cluster_deviation(first) + cluster_deviation(second)


def cluster_deviation_exact(cells) -> Fraction:
    """Summed absolute deviation of ``cells`` from their mean, in exact rational arithmetic; 0 when empty."""
    if not cells:
        return Fraction(0)
    mu = Fraction(sum(cells), len(cells))
    return sum((abs(Fraction(c) - mu) for c in cells), Fraction(0))


def split_clusters(block, k, row_split=True) -> tuple[list[int], list[int]]:
    """The cells of the two clusters split at index k, as Python ints."""
    rows = [[int(c) for c in r] for r in block]
    if not row_split:
        rows = [list(col) for col in zip(*rows)]
    return [c for row in rows[:k] for c in row], [c for row in rows[k:] for c in row]


def objective_value_exact(block, k, row_split=True) -> Fraction:
    """Objective in exact rational arithmetic (no float rounding)."""
    first, second = split_clusters(block, k, row_split)
    return cluster_deviation_exact(first) + cluster_deviation_exact(second)


def objective_argmins_exact(block, row_split=True) -> list[int]:
    """All exact minimizers over real splits, ascending."""
    rows = block if row_split else list(zip(*block))
    values = [objective_value_exact(block, k, row_split) for k in range(1, len(rows))]
    best = min(values)
    return [k + 1 for k, v in enumerate(values) if v == best]


def guillotine_tiling(draw, rows: int, cols: int, limit: int = 30) -> list[tuple[int, int, int, int]]:
    """A random tiling of a rows x cols grid by recursive cuts, about ``limit`` tiles at most, drawn by Hypothesis."""
    leaves, todo = [], [(0, rows, 0, cols)]
    while todo:
        r0, r1, c0, c1 = todo.pop()
        axes = [axis for axis, extent in ((0, r1 - r0), (1, c1 - c0)) if extent > 1]
        if axes and len(leaves) + len(todo) < limit and draw(st.booleans()):
            if draw(st.sampled_from(axes)) == 0:
                k = draw(st.integers(r0 + 1, r1 - 1))
                todo += [(r0, k, c0, c1), (k, r1, c0, c1)]
            else:
                k = draw(st.integers(c0 + 1, c1 - 1))
                todo += [(r0, r1, c0, k), (r0, r1, k, c1)]
        else:
            leaves.append((r0, r1, c0, c1))
    return leaves


def naive_region_sum(counts, row_lo, row_hi, col_lo, col_hi) -> int:
    total = 0
    for i in range(row_lo, row_hi):
        for j in range(col_lo, col_hi):
            total += int(counts[i][j])
    return total


def prefix_table(counts) -> np.ndarray:
    """``FrequencyMatrix``'s padded prefix table, ``[i, j]`` the sum of ``counts[:i, :j]``, as two out-of-place cumsums."""
    counts = np.asarray(counts, dtype=np.int64)
    prefix = np.zeros((counts.shape[0] + 1, counts.shape[1] + 1), dtype=np.int64)
    np.cumsum(np.cumsum(counts, axis=0), axis=1, out=prefix[1:, 1:])
    return prefix


def _objective_scan_rows(counts, r0, r1, c0, c1):
    """Every split's objective in the package's exact form: each cluster of n cells with sum S adds
    ``2·(S·n_< - n·S_<) / n``, n_< and S_< the count and sum of its cells c with ``c·n < S``."""
    block = np.asarray(counts[r0:r1, c0:c1], dtype=np.int64)
    u = block.shape[0]
    out = np.empty(u, dtype=np.float64)
    for k in range(1, u + 1):
        dev = 0.0
        for part in (block[:k], block[k:]):
            n, total = part.size, int(part.sum())
            if n:
                below = part[part * n < total]
                dev += 2.0 * (total * below.size - n * int(below.sum())) / n
        out[k - 1] = dev
    return out


def objective_at_float(counts, r0, r1, c0, c1, k, row_split):
    """The objective in floating point, each cluster's absolute deviations from its float mean summed by numpy."""
    if not row_split:
        return objective_at_float(counts.T, c0, c1, r0, r1, k, True)
    u, v = r1 - r0, c1 - c0
    top = counts[r0:r0 + k, c0:c1]
    dev = np.abs(top - top.sum() / (k * v)).sum()
    if k < u:
        bot = counts[r0 + k:r1, c0:c1]
        dev += np.abs(bot - bot.sum() / ((u - k) * v)).sum()
    return float(dev)


def objective_scan(counts, r0, r1, c0, c1, row_split):
    """Objective values for every candidate split ``k = 1 .. extent`` of ``counts[r0:r1, c0:c1]``."""
    if row_split:
        return _objective_scan_rows(counts, r0, r1, c0, c1)
    return _objective_scan_rows(counts.T, c0, c1, r0, r1)


def _scan(matrix, axis: str) -> np.ndarray:
    counts = matrix.counts if isinstance(matrix, FrequencyMatrix) else np.ascontiguousarray(matrix, dtype=np.int64)
    extent = counts.shape[0] if axis == "y" else counts.shape[1]
    if extent < 2:
        raise ValueError(f"cannot split axis {axis} of extent {extent}")
    return objective_scan(counts, 0, counts.shape[0], 0, counts.shape[1], axis == "y")[: extent - 1]


def optimal_split_exact(matrix, axis: str) -> int:
    """Non-private argmin of the objective over k in 1..extent-1; ties break toward the smallest index."""
    return int(np.argmin(_scan(matrix, axis))) + 1


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
    scan = _scan(matrix, axis)
    eps_eval = eps_partition_level / len(scan)
    src = noise.substream("baseline-split")
    code = path_code(path)
    noisy = np.empty_like(scan)
    for i in range(len(scan)):
        draw = laplace_draw(OBJECTIVE_SENSITIVITY, eps_eval, src, SPLIT_SITE, code, i, 0)
        noisy[i] = scan[i] + draw
        if ledger is not None:
            ledger.charge(SPLIT, eps_eval, code=code, level=level)
    return int(np.argmin(noisy)) + 1


# ---------------------------------------------------------------------------
# node-at-a-time references of the array passes


def perturb_nodes(root: Node, budgets, noise: NoiseSource, ledger: BudgetLedger, label: str) -> None:
    """``tree.perturb`` on a ``Node`` tree: each node's ``ncount`` and ``noise_var``, one draw and one charge per node."""
    up_to = list(accumulate(budgets))  # up_to[h] = budgets[0] + ... + budgets[h]
    for node in preorder(root):
        node_eps = up_to[node.height] if node.is_leaf else budgets[node.height]
        node.ncount = node.count + laplace(noise, 1.0 / node_eps, COUNT, node.code, 0, 0)
        node.noise_var = 2.0 / (node_eps * node_eps)
        ledger.charge(label, node_eps, code=node.code, level=node.height)


def is_complete_nodes(root: Node) -> bool:
    """True when every inner node has the root's fanout and every leaf is at height 0."""
    fanout = len(root.children)
    return fanout > 0 and all(
        len(node.children) == fanout if node.children else node.height == 0 for node in preorder(root)
    )


def smooth_dict(root: Node) -> Node:
    """``enforce_hierarchical_consistency`` on a ``Node`` tree, one node at a time through a dict of estimates.

    Sums are written as loops from 0.0, child by child: the builtin
    ``sum`` of floats is compensated from Python 3.12 on.
    """
    if root.is_leaf:
        return root
    if not is_complete_nodes(root):
        raise ValueError("consistency smoothing needs a complete tree with uniform fanout")

    nodes = list(preorder(root))
    estimates: dict[Node, tuple[float, float]] = {}
    for node in reversed(nodes):  # every node after its children
        if node.is_leaf:
            estimates[node] = (node.ncount, node.noise_var)
            continue
        child_sum = 0.0
        child_var = 0.0
        for child in node.children:
            z, s = estimates[child]
            child_sum += z
            child_var += s
        own_var = node.noise_var
        if own_var <= 0:
            estimates[node] = (child_sum, child_var)
        else:
            z = (child_var * node.ncount + own_var * child_sum) / (child_var + own_var)
            s = own_var * child_var / (own_var + child_var)
            estimates[node] = (z, s)

    root.ncount = estimates[root][0]
    for node in nodes:  # every node before its children
        if node.is_leaf:
            continue
        child_z = [estimates[c][0] for c in node.children]
        child_s = [estimates[c][1] for c in node.children]
        total_s = 0.0
        for s in child_s:
            total_s += s
        child_total = 0.0
        for z in child_z:
            child_total += z
        residual = node.ncount - child_total
        for child, z, s in zip(node.children, child_z, child_s):
            share = s / total_s if total_s > 0 else 1.0 / len(node.children)
            child.ncount = z + residual * share
    return root


def smooth_nodes(root: Node, noise_var: float) -> Node:
    """Run the package's ``enforce_hierarchical_consistency`` on a hand-built ``Node`` tree, in place.

    The tree is read into a table (``flatten_nodes``), every node given its
    ``ncount`` and the variance ``noise_var``, and the smoothed counts
    written back.
    """
    table = flatten_nodes(root)
    nodes = list(preorder(root))
    table.ncount = np.array([node.ncount for node in nodes], dtype=np.float64)
    table.noise_var = np.full(len(nodes), float(noise_var))
    enforce_hierarchical_consistency(table)
    for node, ncount in zip(nodes, table.ncount.tolist()):
        node.ncount = ncount
    return root


def _leaves_hist(matrix, root: Node, eps_total, ledger) -> PrivateHistogram:
    leaves = [node for node in preorder(root) if node.is_leaf]
    bounds = [leaf.bounds for leaf in leaves]
    return PrivateHistogram.audited(matrix.shape, bounds, [leaf.ncount for leaf in leaves], eps_total, ledger)


def quadtree_nodes(matrix, eps_total, height, noise, *, alloc="geometric", smooth=False) -> PrivateHistogram:
    """``build_quadtree`` grown one ``Node`` at a time through a split closure."""
    require_positive("eps_total", eps_total)
    if height < 1:
        raise ValueError("height must be at least 1")
    cap = int(math.floor(math.log2(max(min(matrix.rows, matrix.cols), 1)))) or 1
    height = max(1, min(height, cap))
    ledger = BudgetLedger()

    def split(node: Node) -> None:
        r0, r1, c0, c1 = node.bounds
        if r1 - r0 < 2 or c1 - c0 < 2:
            return
        rm = r0 + (r1 - r0) // 2
        cm = c0 + (c1 - c0) // 2
        quads = ((r0, rm, c0, cm), (r0, rm, cm, c1), (rm, r1, c0, cm), (rm, r1, cm, c1))
        counts = matrix.region_sums(quads).tolist()
        node.children = [Node(b, node.height - 1, node.code << 2 | i, n) for i, (b, n) in enumerate(zip(quads, counts))]

    root = grow_nodes(Node((0, matrix.rows, 0, matrix.cols), height, count=matrix.total), split)
    budgets = tree.level_budgets(eps_total, height, alloc, fanout=4)
    perturb_nodes(root, budgets, noise.substream("quadtree"), ledger, "node-count")
    if smooth and is_complete_nodes(root):
        smooth_dict(root)
    return _leaves_hist(matrix, root, eps_total, ledger)


def kdtree_nodes(
    matrix, eps_total, height, noise, *, structure_fraction=0.15, alloc="uniform", smooth=True
) -> PrivateHistogram:
    """``build_kdtree`` grown, drawn and smoothed one ``Node`` at a time."""
    require_positive("eps_total", eps_total)
    height = min(height, tree.binary_height_cap(matrix.rows, matrix.cols))
    ledger = BudgetLedger()
    eps_struct_level = structure_fraction * eps_total / height
    eps_counts = (1.0 - structure_fraction) * eps_total
    src = noise.substream("kdtree")

    def median_cut(node: Node, axis: str) -> int:
        r0, r1, c0, c1 = node.bounds
        sums = matrix.counts[r0:r1, c0:c1].sum(axis=1 if axis == "y" else 0)
        prefix = np.cumsum(sums)[:-1]
        utilities = -np.abs(prefix - sums.sum() / 2.0)
        probs = exponential_mechanism_probs(utilities, eps_struct_level, sensitivity=1.0)
        return choice(src, probs, EM, node.code, 0, 0) + 1

    root = Node((0, matrix.rows, 0, matrix.cols), height, count=matrix.total)
    grow_nodes(root, lambda node: bisect_node(node, median_cut, eps_struct_level, ledger, "em-split", matrix))
    budgets = tree.level_budgets(eps_counts, height, alloc, fanout=2)
    perturb_nodes(root, budgets, src, ledger, "node-count")
    if smooth and is_complete_nodes(root):
        smooth_dict(root)
    return _leaves_hist(matrix, root, eps_total, ledger)


def chain_totals_by_prefix_slices(ledger: BudgetLedger) -> dict[tuple[int, ...], float]:
    """``BudgetLedger.chain_totals`` re-adding every prefix of every maximal path from the root."""
    per_path: dict[tuple[int, ...], float] = {}
    parallel = 0.0
    for _, _, path, eps, _ in ledger.entries:
        if path is None:
            parallel += eps
        else:
            per_path[path] = per_path.get(path, 0.0) + eps
    if not per_path:
        return {(): parallel}
    prefixes = set()
    for path in per_path:
        for i in range(len(path)):
            prefixes.add(path[:i])
    out = {}
    for path in per_path:
        if path in prefixes:
            continue
        total = parallel
        for i in range(len(path) + 1):
            total += per_path.get(path[:i], 0.0)
        out[path] = total
    return out


def grid_cells(rects, mr, mc) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``baselines._grid_cells`` placing every cell by integer division of its index, then a gather per edge.

    Cuts each half-open rect of the ``(K, 4)`` array ``rects`` into its
    ``mr x mc`` cells, row-major, ``mr`` and ``mc`` one count or one per
    rect; returns the C-order cells with each cell's rect, row and column.
    """
    rects = np.asarray(rects, dtype=np.int64).reshape(-1, 4)
    parts = [np.broadcast_to(np.asarray(m, dtype=np.int64), len(rects)) for m in (mr, mc)]
    sizes = parts[0] * parts[1]
    owner = np.repeat(np.arange(len(rects)), sizes)
    row, col = np.divmod(np.arange(len(owner)) - np.repeat(np.cumsum(sizes) - sizes, sizes), parts[1][owner])
    cells = np.empty((len(owner), 4), dtype=np.int64)
    for axis, index in enumerate((row, col)):
        lo = rects[owner, 2 * axis]
        extent = rects[owner, 2 * axis + 1] - lo
        n = parts[axis][owner]
        cells[:, 2 * axis] = lo + extent * index // n
        cells[:, 2 * axis + 1] = lo + extent * (index + 1) // n
    return cells, owner, row, col


def sample_gaussian_points_all_rows(n: int, sigma: float, rows: int, cols: int, rng) -> np.ndarray:
    """``grid.sample_gaussian_points`` re-checking all n rows after every resampling round."""
    center = rng.uniform(0.0, [rows, cols])
    pts = center + rng.normal(0.0, sigma, size=(n, 2))
    hi = np.array([rows, cols], dtype=np.float64)
    for _ in range(100):
        bad = np.any((pts < 0.0) | (pts >= hi), axis=1)
        if not bad.any():
            break
        pts[bad] = center + rng.normal(0.0, sigma, size=(int(bad.sum()), 2))
    np.clip(pts, 0.0, hi * (1.0 - 1e-9), out=pts)
    return pts


# ---------------------------------------------------------------------------
# the cell-level answering kernel and the allocating dataset helpers


def cell_leaf_owner(bounds, shape) -> np.ndarray:
    """``kernels.leaf_owner`` painting every cell: an ``(N + 1, M + 1)`` array whose last row and column are 0."""
    rows, cols = shape
    r0, r1, c0, c1 = require_inside(bounds, rows, cols, "leaf", kernels.CoverageError)
    cells = int(((r1 - r0) * (c1 - c0)).sum())
    if cells != rows * cols:
        raise kernels.CoverageError(f"leaves hold {cells} cells of the {rows}x{cols} grid")
    dtype = np.int32 if len(r0) < 2**31 else np.int64
    ids = np.arange(1, len(r0) + 1, dtype=dtype)
    owner = np.zeros((rows + 1, cols + 1), dtype=dtype)
    flat = owner.reshape(-1)
    r0, r1 = r0 * (cols + 1), r1 * (cols + 1)
    np.add.at(flat, r0 + c0, ids)
    np.subtract.at(flat, r0 + c1, ids)
    np.subtract.at(flat, r1 + c0, ids)
    np.add.at(flat, r1 + c1, ids)
    np.cumsum(owner, axis=0, dtype=dtype, out=owner)
    np.cumsum(owner, axis=1, dtype=dtype, out=owner)
    if not owner[:rows, :cols].all():
        raise kernels.CoverageError(f"leaves overlap and leave cells of the {rows}x{cols} grid uncovered")
    return owner


def cell_answer_workload(bounds, ncounts, queries, shape) -> np.ndarray:
    """``kernels.answer_workload`` from two ``(N + 1, M + 1)`` suffix-sum tables of the ``hi`` and ``lo`` cell densities."""
    ncounts = np.asarray(ncounts, dtype=np.float64).reshape(-1)
    mass = float(np.abs(ncounts).sum())
    if not math.isfinite(mass):
        raise ValueError("leaf counts must be finite")
    owner = cell_leaf_owner(bounds, shape)
    bounds = np.asarray(bounds, dtype=np.int64).reshape(-1, 4)
    density = ncounts / ((bounds[:, 1] - bounds[:, 0]) * (bounds[:, 3] - bounds[:, 2]))
    k = 50 - math.ceil(math.log2(mass + 1.0))
    hi = np.ldexp(np.rint(np.ldexp(density, k)), -k)
    r0, r1, c0, c1 = np.asarray(queries, dtype=np.int64).reshape(-1, 4).T
    out = np.zeros(r0.shape[0], dtype=np.float64)
    table = np.empty(owner.shape, dtype=np.float64)
    for part in (hi, density - hi):
        np.take(np.concatenate(([0.0], part)), owner, out=table, mode="clip")
        backward = table[::-1, ::-1]
        np.cumsum(backward, axis=0, out=backward)
        np.cumsum(backward, axis=1, out=backward)
        out += table[r0, c0] - table[r1, c0] - table[r0, c1] + table[r1, c1]
    return out


def sample_gaussian_points_allocating(n: int, sigma: float, rows: int, cols: int, rng) -> np.ndarray:
    """``grid.sample_gaussian_points`` drawing through ``rng.normal`` and testing rows on whole-array temporaries."""
    require_positive("sigma", sigma)
    center = rng.uniform(0.0, [rows, cols])
    pts = center + rng.normal(0.0, sigma, size=(n, 2))
    hi = np.array([rows, cols], dtype=np.float64)
    bad = np.flatnonzero(np.any((pts < 0.0) | (pts >= hi), axis=1))
    for _ in range(100):
        if not len(bad):
            break
        redrawn = center + rng.normal(0.0, sigma, size=(len(bad), 2))
        pts[bad] = redrawn
        bad = bad[np.any((redrawn < 0.0) | (redrawn >= hi), axis=1)]
    np.clip(pts, 0.0, hi * (1.0 - 1e-9), out=pts)
    return pts


def discretize_allocating(points, bounds, rows: int, cols: int) -> tuple[FrequencyMatrix, int]:
    """``grid.discretize`` checking every point for finiteness and gathering the inside points into new arrays."""
    x_min, x_max, y_min, y_max = (float(b) for b in bounds)
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return FrequencyMatrix.zeros(rows, cols), 0
    if not np.all(np.isfinite(pts)):
        raise ValueError("point coordinates must be finite")
    x = pts[:, 0]
    y = pts[:, 1]
    inside = (x >= x_min) & (x < x_max) & (y >= y_min) & (y < y_max)
    xi = x[inside]
    yi = y[inside]
    r = np.minimum((xi - x_min) * (rows / (x_max - x_min)), rows - 1).astype(np.int64)
    c = np.minimum((yi - y_min) * (cols / (y_max - y_min)), cols - 1).astype(np.int64)
    flat = np.bincount(r * cols + c, minlength=rows * cols)
    return FrequencyMatrix(flat.reshape(rows, cols)), int(pts.shape[0] - xi.shape[0])


def outcome(reader, path):
    """What ``reader`` makes of ``path``: its result, or the type and message of the ValueError it raised."""
    try:
        return reader(path)
    except ValueError as exc:
        return type(exc), str(exc)


def load_matrix_loadtxt(path) -> FrequencyMatrix:
    """``grid.load_matrix`` reading every file through ``np.loadtxt``."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError(f"{path}: malformed matrix header")
        rows, cols, total = (int(v) for v in header)
        counts = loadtxt(fh, np.int64)
    if counts.shape != (rows, cols):
        raise ValueError(f"{path}: expected {rows}x{cols} matrix, got {counts.shape}")
    matrix = FrequencyMatrix(counts)
    if matrix.total != total:
        raise ValueError(f"{path}: header total {total} != cell sum {matrix.total}")
    return matrix


def generate_workload_loop(spec: WorkloadSpec, rows: int, cols: int) -> Workload:
    """``queries.generate_workload`` drawing each query with scalar ``rng.integers`` calls."""
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


# ---------------------------------------------------------------------------
# the two-mode htf walk


@dataclass(eq=False)
class HtfSplitter:
    """Private split search for single nodes of one release's tree: the counts, the per-level budget, the noise, the ledger."""

    matrix: FrequencyMatrix
    level_budget: float
    search_iters: int
    noise: NoiseSource
    ledger: BudgetLedger

    def split(self, node: Node) -> bool:
        return bisect_node(node, self.cut, self.level_budget, self.ledger, SPLIT, self.matrix)

    def cut(self, node: Node, axis: str) -> int:
        return split_point(
            self.matrix, axis, self.level_budget, self.search_iters, self.noise, code=node.code, bounds=node.bounds
        )

    def make_root(self, height: int) -> Node:
        return Node((0, self.matrix.rows, 0, self.matrix.cols), height, count=self.matrix.total)


def perturb_and_prune_two_mode(
    root: Node,
    eps_data: float,
    stop_count: float,
    stop_cells: int,
    height: int,
    noise: NoiseSource,
    ledger: BudgetLedger,
    splitter: HtfSplitter | None = None,
) -> list[tuple[tuple[int, int, int, int], float]]:
    """htf's perturb-and-prune on a prebuilt tree (no ``splitter``), or splitting each kept leaf with ``splitter``.

    A single-node tree is released with the whole ``eps_data``. With a
    ``splitter``, a pruned node reserves its unspent split levels.
    """
    require_positive("eps_data", eps_data)
    if root.is_leaf:
        ledger.charge(NODE_COUNT, eps_data, code=root.code, level=0)
        root.ncount = root.count + laplace_draw(1.0, eps_data, noise, COUNT, root.code, 0, 0)
        return [(root.bounds, root.ncount)]

    budgets = tree.level_budgets(eps_data, height)
    spent = list(accumulate(reversed(budgets)))[::-1]
    leaves = []
    for node in preorder(root):
        level_eps = budgets[node.height]
        ledger.charge(NODE_COUNT, level_eps, code=node.code, level=node.height)
        node.ncount = node.count + laplace_draw(1.0, level_eps, noise, COUNT, node.code, 0, 0)
        if node.height == 0:
            leaves.append((node.bounds, node.ncount))
            continue
        r0, r1, c0, c1 = node.bounds
        stop = node.ncount <= stop_count or (r1 - r0) * (c1 - c0) < stop_cells
        if splitter is not None:
            if stop:
                tree.reserve([node], splitter.level_budget, splitter.ledger)
            elif node.is_leaf:
                splitter.split(node)
        if stop or node.is_leaf:
            eps_remain = eps_data - spent[node.height]
            ledger.charge(PRUNE_TOPUP, eps_remain, code=node.code, level=node.height)
            node.ncount = node.count + laplace_draw(1.0, eps_remain, noise, PRUNE, node.code, 0, 0)
            node.children = []
            leaves.append((node.bounds, node.ncount))
    return leaves


def release_two_mode(matrix: FrequencyMatrix, params: HtfParams, noise: NoiseSource) -> PrivateHistogram:
    """``htf.release`` through the two-mode walk: the root split by the splitter, a single-node root on its own branch."""
    ledger = BudgetLedger()
    if params.height_override is not None:
        height = params.height_override
        ledger.charge(HEIGHT, params.eps_height)
    else:
        height = estimate_height(
            matrix, params.eps_height, params.eps_total, noise, ledger=ledger, height_constant=params.height_constant
        )
    if params.eps_partition_level is not None:
        level_budget = params.eps_partition_level
        eps_partition = level_budget * height
    else:
        eps_partition = params.eps_partition
        level_budget = eps_partition / height
    eps_data = params.eps_total - eps_partition - params.eps_height
    if eps_data <= 0:
        raise ValueError("no data budget left")

    splitter = HtfSplitter(matrix, level_budget, params.search_iters, noise, ledger)
    root = splitter.make_root(height)
    data_height = height if splitter.split(root) else 0
    leaves = perturb_and_prune_two_mode(
        root, eps_data, params.stop_count, params.stop_cells, data_height, noise, ledger, splitter
    )
    bounds, ncounts = zip(*leaves)
    return PrivateHistogram.audited(matrix.shape, bounds, ncounts, params.eps_total, ledger)
