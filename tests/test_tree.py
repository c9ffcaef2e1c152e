import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dphist import baselines, tree
from dphist.grid import FrequencyMatrix
from dphist.htf import HtfParams, release
from dphist.privacy import BudgetLedger, NoiseSource, path_code
from dphist.tree import Node

from oracles import flatten_nodes, kdtree_nodes, path_of, preorder, quadtree_nodes


def cells(parts):
    return [(r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in parts]


def middles(bounds, rows, codes):
    return (bounds[:, 3] - bounds[:, 2]) // 2


def binary_tree(height, ledger=None):
    # one row: every split falls to the columns, cut at the middle; the root and the table grow makes of it
    root = Node((0, 1, 0, 2**height), height)
    ledger = BudgetLedger() if ledger is None else ledger

    def step(nodes):
        tree.bisect(nodes, middles, 1.0, ledger, "cut", cells)

    return root, tree.grow(root, step, ledger)


class TestWalks:
    def test_preorder_is_depth_first_left_to_right(self):
        _, table = binary_tree(2)
        assert table.codes == [path_code(p) for p in [(), (0,), (0, 0), (0, 1), (1,), (1, 0), (1, 1)]]

    def test_grow_reads_children_after_each_step(self):
        seen = []

        def step(nodes):
            seen.append([path_of(node.code) for node in nodes])
            tree.bisect(nodes, middles, 1.0, ledger, "cut", cells)
            for node in nodes:
                if node.code == path_code((0,)):
                    node.children = []

        ledger = BudgetLedger()
        table = tree.grow(Node((0, 1, 0, 8), 3), step, ledger)
        assert seen == [[()], [(0,), (1,)], [(1, 0), (1, 1)], [(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)]]
        assert list(map(path_of, table.codes)) == [(), (0,), (1,), (1, 0), (1, 0, 0), (1, 0, 1), (1, 1), (1, 1, 0), (1, 1, 1)]

    def test_grow_puts_the_ledger_rows_back_in_preorder(self):
        ledger = BudgetLedger(entries=[("before", 0, (1,), 0.0, 1)])
        root, table = binary_tree(3, ledger)
        assert table.codes == [n.code for n in preorder(root)]
        assert [path_code(e[2]) for e in ledger.entries] == [path_code((1,))] + [n.code for n in preorder(root) if n.height > 0]

    def test_deep_tree_needs_no_recursion(self):
        # a chain far deeper than the interpreter's recursion limit
        def step(nodes):
            [node] = nodes
            if node.height > 0:
                node.children = [Node(node.bounds, node.height - 1, node.code << 2)]

        table = tree.grow(Node((0, 1, 0, 1), 5000), step, BudgetLedger())
        assert len(table.codes) == 5001
        assert tree.is_complete(table)

    def test_bisect_children(self):
        node = Node((2, 6, 1, 4), 2, code=path_code((1,)))  # even height: rows
        assert tree.bisect([node], lambda bounds, rows, codes: [1], 0.01, BudgetLedger(), "cut", cells)
        assert [c.bounds for c in node.children] == [(2, 3, 1, 4), (3, 6, 1, 4)]
        assert [c.code for c in node.children] == [path_code((1, 0)), path_code((1, 1))]
        assert [c.height for c in node.children] == [1, 1]
        assert [c.count for c in node.children] == [3, 9]
        assert node.left is node.children[0] and node.right is node.children[1]
        node = Node((2, 6, 1, 4), 3, code=path_code((1,)))  # odd height: columns
        assert tree.bisect([node], lambda bounds, rows, codes: [2], 0.01, BudgetLedger(), "cut", lambda parts: [0] * len(parts))
        assert [c.bounds for c in node.children] == [(2, 6, 1, 3), (2, 6, 3, 4)]

    def test_bisect_cuts_on_the_split_axis_or_reserves_the_unsplit_levels(self):
        ledger = BudgetLedger()
        node = Node((0, 1, 0, 6), 4, code=path_code((1,)))  # one row: even height falls back to columns
        assert tree.bisect([node], lambda bounds, rows, codes: [None if rows[0] else 2], 0.01, ledger, "cut", cells)
        assert [c.bounds for c in node.children] == [(0, 1, 0, 2), (0, 1, 2, 6)]
        assert [c.count for c in node.children] == [2, 4]
        leaf = Node((3, 4, 5, 6), 3, code=path_code((0,)))
        assert not tree.bisect([leaf], None, 0.01, ledger, "cut", cells)
        assert leaf.is_leaf
        assert [(e[0], e[1], e[2]) for e in ledger.entries] == [("cut", 4, (1,)), (tree.PARTITION_RESERVED, 3, (0,))]
        assert [e[3] for e in ledger.entries] == [0.01, pytest.approx(0.03)]

    def test_split_axis_alternates_with_fallback(self):
        assert tree.split_axis((0, 4, 0, 4), 2) == "y"
        assert tree.split_axis((0, 4, 0, 4), 3) == "x"
        assert tree.split_axis((0, 1, 0, 4), 2) == "x"
        assert tree.split_axis((0, 4, 0, 1), 3) == "y"
        assert tree.split_axis((0, 1, 0, 1), 2) is None

    def test_is_complete(self):
        assert tree.is_complete(binary_tree(3)[1])
        assert not tree.is_complete(flatten_nodes(Node((0, 1, 0, 1), 0)))
        root, _ = binary_tree(3)
        root.children[1].children = []
        assert not tree.is_complete(flatten_nodes(root))

    def test_perturb_charges_each_node_its_height_budget(self):
        _, table = binary_tree(2)
        ledger = BudgetLedger()
        budgets = tree.level_budgets(0.3, 2, "uniform")
        tree.perturb(table, budgets, NoiseSource(0, zero_noise=True), ledger, "node-count")
        assert [(path_code(e[2]), e[3]) for e in ledger.entries] == [(code, 0.3 / 3) for code in table.codes]
        nodes = zip(table.ncount.tolist(), table.count.tolist(), table.noise_var.tolist())
        assert all(ncount == count and noise_var == pytest.approx(200.0) for ncount, count, noise_var in nodes)

    def test_level_budgets_sum_to_eps(self):
        for alloc in ("uniform", "geometric"):
            for fanout in (2, 4):
                assert sum(tree.level_budgets(0.7, 9, alloc, fanout)) == pytest.approx(0.7, abs=1e-15)
        with pytest.raises(ValueError):
            tree.level_budgets(0.7, 3, "linear")

    def test_binary_height_cap(self):
        assert [tree.binary_height_cap(*s) for s in ((1, 1), (1, 2), (3, 5), (1024, 1024))] == [1, 1, 3, 20]


@st.composite
def tree_releases(draw):
    rows = draw(st.one_of(st.just(1), st.integers(1, 24)))
    cols = draw(st.one_of(st.just(1), st.integers(1, 24)))
    counts = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, draw(st.integers(1, 80)), (rows, cols))
    method = draw(st.sampled_from([baselines.build_quadtree, baselines.build_kdtree]))
    height = draw(st.integers(1, 12))
    options = {"alloc": draw(st.sampled_from(["uniform", "geometric"])), "smooth": draw(st.booleans())}
    noise = NoiseSource(draw(st.integers(0, 2**31 - 1)), zero_noise=draw(st.booleans()))
    return FrequencyMatrix(counts), method, height, options, noise


@st.composite
def htf_releases(draw):
    rows = draw(st.one_of(st.just(1), st.integers(1, 64)))
    cols = draw(st.one_of(st.just(1), st.integers(1, 64)))
    counts = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, draw(st.integers(1, 80)), (rows, cols))
    structure = draw(st.sampled_from([{}, {"eps_partition_level": 1e-3}, {"eps_partition": 0.05}]))
    params = HtfParams(
        eps_total=0.4,
        stop_count=draw(st.sampled_from([-1.0, 0.0, 5.0, 100.0])),
        stop_cells=draw(st.integers(1, 5)),
        height_override=draw(st.one_of(st.none(), st.integers(1, 12))),
        **structure,
    )
    noise = NoiseSource(draw(st.integers(0, 2**31 - 1)), zero_noise=draw(st.booleans()))
    return FrequencyMatrix(counts), params, noise


def assert_tiles_and_spends(matrix, hist, eps):
    paint = np.zeros(matrix.shape, dtype=int)
    for r0, r1, c0, c1 in hist.bounds:
        paint[r0:r1, c0:c1] += 1
    assert (paint == 1).all()

    # every path is charged the whole budget, also where its leaf stops above height 0
    for path, total in hist.ledger.chain_totals().items():
        assert total == pytest.approx(eps, abs=1e-12), path


class TestTreeReleaseProperties:
    @settings(max_examples=120, deadline=None)
    @given(tree_releases())
    def test_leaves_tile_paths_spend_and_exact_without_noise(self, case):
        matrix, method, height, options, noise = case
        eps = 0.4
        hist = method(matrix, eps, height, noise, **options)
        assert_tiles_and_spends(matrix, hist, eps)
        if noise.zero_noise:
            truth = matrix.region_sums(hist.bounds)
            if options["smooth"]:
                np.testing.assert_allclose(hist.ncounts, truth, rtol=1e-12, atol=1e-9)
            else:
                assert hist.ncounts.tolist() == truth.tolist()

    @settings(max_examples=120, deadline=None)
    @given(htf_releases())
    def test_htf_leaves_tile_paths_spend_and_exact_without_noise(self, case):
        # thin and single-cell grids are where a node neither axis can divide reserves its split budget
        matrix, params, noise = case
        hist = release(matrix, params, noise)
        assert_tiles_and_spends(matrix, hist, params.eps_total)
        if noise.zero_noise:
            assert hist.ncounts.tolist() == matrix.region_sums(hist.bounds).tolist()


class TestLeavesAboveHeightZero:
    def test_quadtree_leaf_on_a_single_row_draws_once_with_every_level(self):
        matrix = FrequencyMatrix(np.arange(9).reshape(1, 9))
        hist = baselines.build_quadtree(matrix, 0.5, 3, NoiseSource(1))
        assert hist.bounds.tolist() == [[0, 1, 0, 9]]
        [(label, level, path, eps, _)] = hist.ledger.entries
        assert (label, level, path) == ("node-count", 1, ())
        assert eps == pytest.approx(0.5, abs=1e-12)

    def test_kdtree_single_cell_leaf_takes_its_levels_and_reserves_its_splits(self):
        # every split search picks k = 1 without noise, so row 0 is a leaf at height 1
        matrix = FrequencyMatrix(np.array([[0], [0], [0], [100]]))
        hist = baselines.build_kdtree(matrix, 0.5, 2, NoiseSource(0, zero_noise=True))
        assert hist.bounds.tolist() == [[0, 1, 0, 1], [1, 2, 0, 1], [2, 4, 0, 1]]
        struct, count = 0.15 * 0.5 / 2, 0.85 * 0.5 / 3
        charges = [(e[0], e[3]) for e in hist.ledger.entries if e[2] == (0,)]
        assert charges == [("partition-reserved", pytest.approx(struct)), ("node-count", pytest.approx(2 * count))]
        for total in hist.ledger.chain_totals().values():
            assert total == pytest.approx(0.5, abs=1e-12)


@st.composite
def grids_for_trees(draw):
    """Non-square grids, grids one cell wide, heights past either tree's cap, both allocations, smoothing on and off, noise on and off."""
    shape = draw(
        st.one_of(
            st.tuples(st.just(1), st.integers(1, 40)),
            st.tuples(st.integers(1, 40), st.just(1)),
            st.tuples(st.integers(2, 70), st.integers(2, 70)),
        )
    )
    counts = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, draw(st.integers(1, 200)), shape)
    height = draw(st.integers(1, 14))
    options = {"alloc": draw(st.sampled_from(["uniform", "geometric"])), "smooth": draw(st.booleans())}
    return FrequencyMatrix(counts), height, options, draw(st.integers(0, 2**31 - 1)), draw(st.booleans())


def release_bytes(hist) -> tuple[bytes, bytes]:
    with tempfile.TemporaryDirectory() as scratch:
        hist.save(Path(scratch) / "release.hist")
        hist.ledger.save(Path(scratch) / "ledger.csv")
        return (Path(scratch) / "release.hist").read_bytes(), (Path(scratch) / "ledger.csv").read_bytes()


class TestArrayTreesAgainstNodeOracles:
    @settings(max_examples=150, deadline=None)
    @given(grids_for_trees(), st.sampled_from(["quadtree", "kdtree"]))
    def test_release_and_ledger_bytes_equal(self, case, method):
        matrix, height, options, seed, zero_noise = case
        build, oracle = {
            "quadtree": (baselines.build_quadtree, quadtree_nodes),
            "kdtree": (baselines.build_kdtree, kdtree_nodes),
        }[method]
        got = build(matrix, 0.3, height, NoiseSource(seed, zero_noise=zero_noise), **options)
        expected = oracle(matrix, 0.3, height, NoiseSource(seed, zero_noise=zero_noise), **options)
        assert got.bounds.tolist() == expected.bounds.tolist()
        assert got.ncounts.tobytes() == expected.ncounts.tobytes()
        assert got.ledger.entries == expected.ledger.entries
        assert release_bytes(got) == release_bytes(expected)

    def test_quadtree_creates_no_node(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("build_quadtree made a Node")

        monkeypatch.setattr(Node, "__init__", refuse)
        matrix = FrequencyMatrix(np.random.default_rng(3).integers(0, 9, (40, 24)))
        hist = baselines.build_quadtree(matrix, 0.3, 4, NoiseSource(1), smooth=True)
        assert len(hist) == 4**4
