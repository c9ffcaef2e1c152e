"""The tree core shared by the hierarchical releases: htf, kd-tree and quadtree.

Each of them cuts the grid into rectangles, cuts those again down to
height 0, and gives every node a Laplace count keyed by its tree path (the
child indices from the root). A ``Node`` carries its integer bounds
``(row_lo, row_hi, col_lo, col_hi)``, as the histogram does, with its
height, path, true count, noisy count and the variance of that noise;
``bisect`` is the binary split step of htf and the kd-tree, and ``reserve``
the one charge of split levels a node leaves unsplit. The walks go
through a tree with an explicit stack, so the depth of a tree never meets
the interpreter's recursion limit and no walk keeps a reference cycle to
the data it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .privacy import COUNT, BudgetLedger, NoiseSource, geometric_level_budget, path_code, site_counters

__all__ = [
    "Node",
    "preorder",
    "grow",
    "split_axis",
    "divide",
    "halves",
    "bisect",
    "reserve",
    "level_budgets",
    "perturb",
    "is_complete",
    "binary_height_cap",
]

PARTITION_RESERVED = "partition-reserved"  # ledger label of the split budget of levels a node leaves unsplit


@dataclass(eq=False)
class Node:
    """The half-open rectangle ``bounds`` of the grid at ``height`` levels above the leaves, reached by ``path``."""

    bounds: tuple[int, int, int, int]
    height: int
    path: tuple[int, ...] = ()
    count: int = 0
    ncount: float = 0.0
    noise_var: float = 0.0
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


def preorder(root: Node):
    """Yield every node top-down, children left to right (depth-first preorder).

    A node's children are read only after the node is yielded, so the
    caller may split the node or drop its children before the walk goes on.
    """
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def grow(root: Node, split) -> Node:
    """Call ``split(node)`` on every node above height 0, top-down, and return ``root``.

    ``split`` gives the node its children, or leaves it a leaf.
    """
    for node in preorder(root):
        if node.height > 0:
            split(node)
    return root


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


def divide(node: Node, parts, count) -> None:
    """Give ``node`` one child per bounds in ``parts``, one level down, with ``count(bounds)`` as its count."""
    node.children = [Node(b, node.height - 1, node.path + (i,), count(b)) for i, b in enumerate(parts)]


def halves(node: Node, axis: str, k: int, count) -> None:
    """Cut ``node`` into its first ``k`` rows (axis "y") or columns ("x") and the rest."""
    r0, r1, c0, c1 = node.bounds
    if axis == "y":
        parts = ((r0, r0 + k, c0, c1), (r0 + k, r1, c0, c1))
    else:
        parts = ((r0, r1, c0, c0 + k), (r0, r1, c0 + k, c1))
    divide(node, parts, count)


def bisect(node: Node, cut, eps: float, ledger: BudgetLedger, label: str, count) -> bool:
    """Cut ``node`` in two along ``split_axis``, ``cut(node, axis)`` rows or columns first; charge ``eps`` as ``label``.

    A node neither axis can divide stays a leaf and ``reserve``s its levels. True if split.
    """
    axis = split_axis(node.bounds, node.height)
    if axis is None:
        reserve(node, eps, ledger)
        return False
    ledger.charge(label, eps, path=node.path, level=node.height)
    halves(node, axis, cut(node, axis), count)
    return True


def reserve(node: Node, eps: float, ledger: BudgetLedger) -> None:
    """Charge ``eps`` as ``PARTITION_RESERVED`` for each split level left below ``node``: all if a leaf, else all but its own."""
    levels = node.height if node.is_leaf else node.height - 1
    if levels > 0:
        ledger.charge(PARTITION_RESERVED, eps * levels, path=node.path, level=node.height)


def level_budgets(eps: float, height: int, alloc: str = "geometric", fanout: int = 2) -> list[float]:
    """Count budget per node height, leaves at index 0 and the root at ``height``; the levels sum to ``eps``."""
    if alloc == "uniform":
        return [eps / (height + 1)] * (height + 1)
    if alloc == "geometric":
        return [geometric_level_budget(i, height, eps, fanout=fanout) for i in range(height + 1)]
    raise ValueError(f"alloc must be 'uniform' or 'geometric', got {alloc!r}")


def perturb(root: Node, budgets: list[float], noise: NoiseSource, ledger: BudgetLedger, label: str) -> None:
    """Give every node a Laplace count with the budget of its height, charged at its path.

    A leaf above height 0 also takes the unspent budgets of the heights
    below it, so every root-to-leaf path is charged ``sum(budgets)``. The
    node at ``path`` draws at site ``(COUNT, path_code(path), 0, 0)``, all
    nodes in one ``laplace_array`` call.
    """
    up_to = list(accumulate(budgets))  # up_to[h] = budgets[0] + ... + budgets[h]
    nodes = list(preorder(root))
    eps = [up_to[node.height] if node.is_leaf else budgets[node.height] for node in nodes]
    sites = site_counters(COUNT, [path_code(node.path) for node in nodes])
    draws = noise.laplace_array(1.0 / np.asarray(eps), sites)
    for node, node_eps, draw in zip(nodes, eps, draws.tolist()):
        node.ncount = node.count + draw
        node.noise_var = 2.0 / (node_eps * node_eps)
        ledger.charge(label, node_eps, path=node.path, level=node.height)


def is_complete(root: Node) -> bool:
    """True when every inner node has the root's fanout and every leaf is at height 0."""
    fanout = len(root.children)
    return fanout > 0 and all(
        len(node.children) == fanout if node.children else node.height == 0 for node in preorder(root)
    )


def binary_height_cap(rows: int, cols: int) -> int:
    """Deepest binary tree a ``rows`` x ``cols`` grid supports: floor(log2(rows * cols)), at least 1."""
    cells = rows * cols
    return max(1, int(math.floor(math.log2(cells)))) if cells > 1 else 1
