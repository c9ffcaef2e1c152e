"""The tree core shared by the hierarchical releases: htf, kd-tree and quadtree.

Each of them cuts the grid into rectangles, cuts those again down to
height 0, and gives every node a Laplace count keyed by its tree path.
A node knows its path only as its code (``privacy.path_code``): 1 at the
root and ``code << 2 | i`` for child i, so ``code >> 2`` is its parent;
draw sites and ledger rows take the code as it is, and codes sorted by
their binary digits (``bin``) are in preorder. htf and the kd-tree grow
``Node``s one depth at a time (``grow``): a ``Node`` carries its integer
bounds ``(row_lo, row_hi, col_lo, col_hi)``, as the histogram does, with
its height, path code, true count and noisy count; ``bisect`` is their
one binary split step, and ``reserve`` the one charge of split levels a
node leaves unsplit. No walk recurses, so tree depth never meets the
recursion limit.

Every tree ends as a ``NodeTable``, the tree as arrays in preorder: ``grow``
returns the table of the nodes it grew, which the kd-tree perturbs and htf
reads its leaves from, and the complete quadtree is laid out level by level
(``complete``) without a ``Node``. ``perturb`` draws every node count in one
call and charges them in one bulk ledger charge. htf draws its counts a
level at a time as it grows (``htf.perturb_and_prune``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .privacy import COUNT, BudgetLedger, NoiseSource, geometric_level_budget, site_counters

__all__ = [
    "Node",
    "NodeTable",
    "grow",
    "split_axis",
    "bisect",
    "reserve",
    "complete",
    "level_budgets",
    "perturb",
    "is_complete",
    "binary_height_cap",
]

PARTITION_RESERVED = "partition-reserved"  # ledger label of the split budget of levels a node leaves unsplit


@dataclass(eq=False)
class Node:
    """The half-open rectangle ``bounds`` of the grid at ``height`` levels above the leaves, at path code ``code``."""

    bounds: tuple[int, int, int, int]
    height: int
    code: int = 1
    count: int = 0
    ncount: float = 0.0
    children: list["Node"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    # first and second child of a binary node
    @property
    def left(self) -> "Node | None":
        return self.children[0] if self.children else None

    @property
    def right(self) -> "Node | None":
        return self.children[1] if self.children else None


@dataclass(eq=False)
class NodeTable:
    """A tree as arrays, one row per node in preorder (depth first, children left to right).

    Row i holds the node's ``(row_lo, row_hi, col_lo, col_hi)`` bounds,
    its ``height`` above the leaves and ``depth`` below the root, its
    number of ``children`` (0 for a leaf), its path code (``codes``) and
    its true ``count``. ``grow`` reads ``ncount`` off its nodes; ``perturb``
    fills ``ncount`` and ``noise_var``.
    """

    bounds: np.ndarray
    height: np.ndarray
    depth: np.ndarray
    children: np.ndarray
    codes: np.ndarray | list[int]
    count: np.ndarray
    ncount: np.ndarray | None = None
    noise_var: np.ndarray | None = None

    @property
    def leaf(self) -> np.ndarray:
        return self.children == 0


def grow(root: Node, step, ledger: BudgetLedger) -> NodeTable:
    """Grow the tree under ``root`` a depth at a time: ``step(nodes)`` splits or keeps each node of a depth, in preorder.

    Returns the ``NodeTable`` of every node handed to ``step``, its
    ``ncount`` read off the nodes and its codes Python ints; it and the
    ledger rows charged meanwhile are put in preorder by one stable sort on
    their codes' binary digits, each node's rows in the order they were
    charged.
    """
    start = len(ledger.rows)
    grown, nodes = [], [root]
    while nodes:
        step(nodes)
        grown += nodes
        nodes = [child for node in nodes for child in node.children]
    ledger.rows[start:] = sorted(ledger.rows[start:], key=lambda row: bin(row[2]))
    grown.sort(key=lambda node: bin(node.code))
    codes = [node.code for node in grown]
    return NodeTable(
        bounds=np.array([node.bounds for node in grown], dtype=np.int64),
        height=np.array([node.height for node in grown], dtype=np.int64),
        depth=np.array([code.bit_length() - root.code.bit_length() for code in codes], dtype=np.int64) >> 1,
        children=np.array([len(node.children) for node in grown], dtype=np.int64),
        codes=codes,
        count=np.array([node.count for node in grown], dtype=np.int64),
        ncount=np.array([node.ncount for node in grown], dtype=np.float64),
    )


def split_axis(bounds, height: int) -> str | None:
    """Rows ("y") at even heights, columns ("x") at odd ones; the other axis when that one is a single cell wide.

    None when neither axis can be divided.
    """
    r0, r1, c0, c1 = bounds
    preferred, fallback = ("y", "x") if height % 2 == 0 else ("x", "y")
    for axis in (preferred, fallback):
        if (r1 - r0 if axis == "y" else c1 - c0) >= 2:
            return axis
    return None


def bisect(nodes, cut, eps: float, ledger: BudgetLedger, label: str, counts) -> list[Node]:
    """Cut each of ``nodes`` above height 0 in two along its ``split_axis``, charged ``eps`` as ``label``; return them.

    ``cut(bounds, rows, codes)`` gives how many rows or columns go first in
    each node an axis divides, from their ``(K, 4)`` bounds, whether each
    cuts rows, and their path codes. The halves, one level down at codes
    ``code << 2`` and ``code << 2 | 1``, count ``counts(bounds)`` in one
    call. A node neither axis divides stays a leaf and ``reserve``s its
    levels.
    """
    axes = [split_axis(node.bounds, node.height) if node.height > 0 else None for node in nodes]
    reserve([node for node, axis in zip(nodes, axes) if axis is None], eps, ledger)  # a height-0 node owes none
    at = [i for i, axis in enumerate(axes) if axis]
    split, rows = [nodes[i] for i in at], np.array([axes[i] == "y" for i in at])
    if not split:
        return split
    codes = np.array([node.code for node in split], dtype=np.uint64)
    ledger.charge_many(label, np.full(len(split), eps), codes=codes, levels=[node.height for node in split])
    bounds = np.array([node.bounds for node in split], dtype=np.int64)
    ix, lo = np.arange(len(split)), np.where(rows, 0, 2)  # lo: the bounds column of each cut axis's low edge
    halves = np.stack([bounds, bounds], axis=1)  # each node's first and second half
    halves[ix, 0, lo + 1] = halves[ix, 1, lo] = bounds[ix, lo] + np.asarray(cut(bounds, rows, codes), dtype=np.int64)
    sums = np.asarray(counts(halves.reshape(-1, 4))).reshape(-1, 2).tolist()
    for node, pair, pair_sums in zip(split, halves.tolist(), sums):
        node.children = [Node(tuple(b), node.height - 1, node.code << 2 | i, n) for i, (b, n) in enumerate(zip(pair, pair_sums))]
    return split


def reserve(nodes, eps: float, ledger: BudgetLedger) -> None:
    """Charge ``eps`` as ``PARTITION_RESERVED`` per split level left below each of ``nodes``: all if a leaf, else all but one."""
    owed = [(node, node.height if node.is_leaf else node.height - 1) for node in nodes]
    owed = [(node, levels) for node, levels in owed if levels > 0]
    codes, levels = [node.code for node, _ in owed], [node.height for node, _ in owed]
    ledger.charge_many(PARTITION_RESERVED, [eps * n for _, n in owed], codes=codes, levels=levels)


def complete(levels: list[np.ndarray], fanout: int, height: int, count) -> NodeTable:
    """The complete tree with the ``(fanout**d, 4)`` bounds array ``levels[d]`` at depth d, as a ``NodeTable``.

    Each level is in level order: the children of node j of one level
    are nodes ``fanout*j`` to ``fanout*j + fanout - 1`` of the next,
    child i reached by path index i, at code ``code << 2 | i`` (so
    ``fanout`` is at most 4). The root is at ``height``; ``count`` gives the
    true counts of a ``(K, 4)`` bounds array.
    """
    last = len(levels) - 1
    child = np.arange(fanout, dtype=np.uint64)
    # preorder position and path code of every node, one level at a time:
    # a child follows its parent and the subtrees of its elder siblings
    position, codes = [np.zeros(1, dtype=np.int64)], [np.ones(1, dtype=np.uint64)]
    for d in range(1, last + 1):
        subtree = sum(fanout**k for k in range(last - d + 1))  # nodes of a depth-d subtree
        position.append((position[-1][:, None] + 1 + np.arange(fanout) * subtree).ravel())
        codes.append((codes[-1][:, None] << np.uint64(2) | child).ravel())
    order = np.empty(sum(len(level) for level in levels), dtype=np.int64)  # the level-order index of each preorder row
    order[np.concatenate(position)] = np.arange(len(order))
    depth = np.repeat(np.arange(last + 1), [len(level) for level in levels])[order]
    bounds = np.concatenate(levels)[order]
    return NodeTable(
        bounds=bounds,
        height=height - depth,
        depth=depth,
        children=np.where(depth < last, fanout, 0),
        codes=np.concatenate(codes)[order],
        count=count(bounds),
    )


def level_budgets(eps: float, height: int, alloc: str = "geometric", fanout: int = 2) -> list[float]:
    """Count budget per node height, leaves at index 0 and the root at ``height``; the levels sum to ``eps``."""
    if alloc == "uniform":
        return [eps / (height + 1)] * (height + 1)
    if alloc == "geometric":
        return [geometric_level_budget(i, height, eps, fanout=fanout) for i in range(height + 1)]
    raise ValueError(f"alloc must be 'uniform' or 'geometric', got {alloc!r}")


def perturb(table: NodeTable, budgets: list[float], noise: NoiseSource, ledger: BudgetLedger, label: str) -> None:
    """Give every node a Laplace count with the budget of its height, charged at its path.

    A leaf above height 0 also takes the unspent budgets of the heights
    below it, so every root-to-leaf path is charged ``sum(budgets)``. The
    node of path code ``code`` draws at site ``(COUNT, code, 0, 0)``, all
    nodes in one ``laplace_array`` call, and the charges go to the ledger
    in preorder, at their codes.
    """
    up_to = np.array(list(accumulate(budgets)))  # up_to[h] = budgets[0] + ... + budgets[h]
    eps = np.where(table.leaf, up_to[table.height], np.asarray(budgets)[table.height])
    draws = noise.laplace_array(1.0 / eps, site_counters(COUNT, table.codes))
    table.ncount = table.count + draws
    table.noise_var = 2.0 / (eps * eps)
    ledger.charge_many(label, eps, codes=table.codes, levels=table.height)


def is_complete(table: NodeTable) -> bool:
    """True when every inner node has the root's fanout and every leaf is at height 0 and at the deepest level."""
    fanout = table.children[0]
    leaf = table.leaf
    return bool(
        fanout > 0
        and (table.children[~leaf] == fanout).all()
        and (table.height[leaf] == 0).all()
        and (table.depth[leaf] == table.depth.max()).all()
    )


def binary_height_cap(rows: int, cols: int) -> int:
    """Deepest binary tree a ``rows`` x ``cols`` grid supports: floor(log2(rows * cols)), at least 1."""
    cells = rows * cols
    return max(1, int(math.floor(math.log2(cells)))) if cells > 1 else 1
