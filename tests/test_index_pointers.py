"""Unit tests for the IWP pointer substrate (repro.index.pointers)."""

import random

import pytest

from repro.geometry import Rect
from repro.index import (
    IWPIndex,
    RStarTree,
    backward_pointer_count,
    backward_pointer_depths,
)
from tests.conftest import make_clustered_points, make_uniform_points


class TestBackwardPointerMath:
    def test_paper_example_height_eight(self):
        # Figure 5: h = 8 gives r = 5 pointers at depths 8, 7, 6, 4, 0.
        assert backward_pointer_count(8) == 5
        assert backward_pointer_depths(8) == [8, 7, 6, 4, 0]

    @pytest.mark.parametrize("height,expected_r", [(1, 2), (2, 3), (3, 4), (4, 4), (5, 5)])
    def test_r_formula(self, height, expected_r):
        assert backward_pointer_count(height) == expected_r

    def test_root_only_tree(self):
        assert backward_pointer_count(0) == 1
        assert backward_pointer_depths(0) == [0]

    def test_depths_start_at_leaf_and_end_at_root(self):
        for h in range(1, 12):
            depths = backward_pointer_depths(h)
            assert depths[0] == h
            assert depths[-1] == 0
            assert depths == sorted(set(depths), reverse=True)


class TestIWPIndex:
    @pytest.fixture(scope="class")
    def setup(self):
        points = make_uniform_points(1500, seed=21)
        tree = RStarTree.bulk_load(points, max_entries=8)
        return points, tree, IWPIndex(tree)

    def test_every_leaf_has_pointers(self, setup):
        points, tree, iwp = setup
        for node in tree.iter_nodes():
            if node.is_leaf:
                pointers = iwp.backward_pointers(node)
                assert pointers[0].node is node
                assert pointers[-1].node is tree.root

    def test_pointer_mbrs_match_nodes(self, setup):
        _, tree, iwp = setup
        for node in tree.iter_nodes():
            if node.is_leaf:
                for bp in iwp.backward_pointers(node):
                    assert bp.mbr == bp.node.mbr

    def test_overlap_lists_are_symmetric_at_leaf_level(self, setup):
        _, tree, iwp = setup
        leaves = [n for n in tree.iter_nodes() if n.is_leaf]
        by_id = {n.node_id: n for n in leaves}
        for leaf in leaves:
            for other in iwp.overlapping_pointers(leaf):
                if other.is_leaf:
                    back = iwp.overlapping_pointers(by_id[other.node_id])
                    assert leaf in back

    def test_root_has_no_overlap_list(self, setup):
        _, tree, iwp = setup
        assert iwp.overlapping_pointers(tree.root) == []

    def test_window_query_matches_plain(self, setup):
        points, tree, iwp = setup
        rng = random.Random(9)
        for _ in range(40):
            x, y = rng.uniform(0, 950), rng.uniform(0, 950)
            rect = Rect(x, y, x + rng.uniform(1, 120), y + rng.uniform(1, 120))
            _, _, leaf = next(iter(tree.incremental_nearest(x, y, io=None)))
            got = sorted(o.oid for o in iwp.window_query(leaf, rect, io=None))
            expect = sorted(o.oid for o in tree.window_query(rect, io=None))
            assert got == expect

    def test_window_query_saves_io_for_local_rects(self, setup):
        points, tree, iwp = setup
        rng = random.Random(4)
        saved = 0
        trials = 0
        for _ in range(30):
            x, y = rng.uniform(100, 900), rng.uniform(100, 900)
            rect = Rect(x, y, x + 10, y + 10)
            obj, _, leaf = next(iter(tree.incremental_nearest(x, y, io=None)))
            tree.stats.reset()
            iwp.window_query(leaf, rect)
            with_iwp = tree.stats.node_accesses
            tree.stats.reset()
            tree.window_query(rect)
            plain = tree.stats.node_accesses
            trials += 1
            if with_iwp < plain:
                saved += 1
            assert with_iwp <= plain + 4  # never catastrophically worse
        assert saved > trials // 2  # IWP usually starts below the root

    def test_rect_beyond_root_mbr_falls_back_to_root(self, setup):
        points, tree, iwp = setup
        rect = Rect(-100, -100, 2000, 2000)
        _, _, leaf = next(iter(tree.incremental_nearest(0, 0, io=None)))
        got = sorted(o.oid for o in iwp.window_query(leaf, rect, io=None))
        assert got == sorted(p.oid for p in points)

    def test_storage_overheads(self, setup):
        _, tree, iwp = setup
        bp = iwp.backward_pointer_total()
        op = iwp.overlapping_pointer_total()
        leaves = sum(1 for n in tree.iter_nodes() if n.is_leaf)
        assert bp == leaves * len(backward_pointer_depths(tree.height))
        assert iwp.storage_overhead_bytes() == 4 * (bp + op)
        assert iwp.storage_overhead_bytes(pointer_size=8) == 8 * (bp + op)


class TestIWPOnClusteredData:
    def test_clustered_correctness(self):
        points = make_clustered_points(800, seed=17)
        tree = RStarTree.bulk_load(points, max_entries=8)
        iwp = IWPIndex(tree)
        rng = random.Random(2)
        for _ in range(25):
            x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
            rect = Rect(x, y, x + 60, y + 40)
            _, _, leaf = next(iter(tree.incremental_nearest(x, y, io=None)))
            got = sorted(o.oid for o in iwp.window_query(leaf, rect, io=None))
            expect = sorted(p.oid for p in points if rect.contains_object(p))
            assert got == expect

    def test_single_leaf_tree(self):
        points = make_uniform_points(5)
        tree = RStarTree.bulk_load(points, max_entries=8)
        iwp = IWPIndex(tree)
        rect = Rect(0, 0, 1000, 1000)
        leaf = tree.root
        got = sorted(o.oid for o in iwp.window_query(leaf, rect, io=None))
        assert got == [p.oid for p in points]
