"""Unit tests for R-tree queries: window, kNN, incremental NN, I/O stats."""

import math
import random

import pytest

from repro.geometry import Rect
from repro.index import RStarTree


def brute_window(points, rect):
    return sorted(p.oid for p in points if rect.contains_object(p))


class TestWindowQuery:
    def test_matches_brute_force(self, uniform_tree, uniform_points):
        rng = random.Random(3)
        for _ in range(25):
            x, y = rng.uniform(0, 900), rng.uniform(0, 900)
            rect = Rect(x, y, x + rng.uniform(1, 150), y + rng.uniform(1, 150))
            got = sorted(o.oid for o in uniform_tree.window_query(rect, io=None))
            assert got == brute_window(uniform_points, rect)

    def test_empty_region(self, uniform_tree):
        assert uniform_tree.window_query(Rect(2000, 2000, 2100, 2100), io=None) == []

    def test_full_region(self, uniform_tree, uniform_points):
        rect = Rect(-1, -1, 1001, 1001)
        assert len(uniform_tree.window_query(rect, io=None)) == len(uniform_points)

    def test_counts_node_accesses(self, uniform_tree):
        uniform_tree.stats.reset()
        uniform_tree.window_query(Rect(0, 0, 100, 100))
        assert uniform_tree.stats.node_accesses >= 1

    def test_count_io_false_is_free(self, uniform_tree):
        uniform_tree.stats.reset()
        uniform_tree.window_query(Rect(0, 0, 100, 100), io=None)
        assert uniform_tree.stats.node_accesses == 0

    def test_boundary_inclusive(self, uniform_points):
        tree = RStarTree.bulk_load(uniform_points[:50], max_entries=8)
        p = uniform_points[10]
        rect = Rect(p.x, p.y, p.x, p.y)  # degenerate rect exactly at p
        assert p in tree.window_query(rect, io=None)


class TestNearest:
    def test_matches_brute_force(self, uniform_tree, uniform_points):
        rng = random.Random(5)
        for _ in range(20):
            qx, qy = rng.uniform(-100, 1100), rng.uniform(-100, 1100)
            k = rng.randint(1, 12)
            got = uniform_tree.nearest(qx, qy, k=k, io=None)
            expect = sorted(uniform_points,
                            key=lambda p: (p.x - qx) ** 2 + (p.y - qy) ** 2)[:k]
            assert len(got) == k
            # distances must agree even if ties reorder ids
            for (obj, dist), exp in zip(got, expect):
                assert dist == pytest.approx(exp.distance_to(qx, qy))

    def test_k_larger_than_dataset(self, uniform_points):
        tree = RStarTree.bulk_load(uniform_points[:5], max_entries=8)
        assert len(tree.nearest(0, 0, k=50, io=None)) == 5

    def test_invalid_k(self, uniform_tree):
        with pytest.raises(ValueError):
            uniform_tree.nearest(0, 0, k=0)


class TestIncrementalNearest:
    def test_distances_non_decreasing(self, clustered_tree):
        last = -1.0
        for i, (obj, dist, leaf) in enumerate(
            clustered_tree.incremental_nearest(500, 500, io=None)
        ):
            assert dist >= last - 1e-12
            last = dist
            if i > 300:
                break

    def test_yields_true_leaf(self, clustered_tree):
        for i, (obj, dist, leaf) in enumerate(
            clustered_tree.incremental_nearest(100, 100, io=None)
        ):
            assert leaf.is_leaf
            assert obj in leaf.entries
            if i > 50:
                break

    def test_full_drain_covers_everything(self, uniform_tree, uniform_points):
        seen = [obj.oid for obj, _, _ in
                uniform_tree.incremental_nearest(0, 0, io=None)]
        assert sorted(seen) == [p.oid for p in uniform_points]

    def test_node_filter_prunes_subtrees(self, uniform_tree):
        # Vetoing every node leaves nothing to yield.
        result = list(uniform_tree.incremental_nearest(
            0, 0, node_filter=lambda node: False, io=None))
        assert result == []

    def test_node_filter_veto_costs_no_io(self, uniform_tree):
        uniform_tree.stats.reset()
        list(uniform_tree.incremental_nearest(0, 0, node_filter=lambda n: False))
        assert uniform_tree.stats.node_accesses == 0

    def test_distance_matches_euclid(self, uniform_tree):
        obj, dist, _ = next(iter(uniform_tree.incremental_nearest(3, 4, io=None)))
        assert dist == pytest.approx(math.hypot(obj.x - 3, obj.y - 4))

    def test_empty_tree_yields_nothing(self):
        tree = RStarTree(max_entries=8)
        assert list(tree.incremental_nearest(0, 0)) == []


class TestWindowQueryFrom:
    def test_subtree_start_equals_root_start(self, uniform_tree, uniform_points):
        rect = Rect(100, 100, 220, 260)
        expect = brute_window(uniform_points, rect)
        # Starting from all children of the root must find the same set.
        children = list(uniform_tree.root.entries)
        got = sorted(o.oid for o in
                     uniform_tree.window_query_from(children, rect, io=None))
        assert got == expect

    def test_start_nodes_counted_once(self, uniform_tree):
        rect = Rect(0, 0, 50, 50)
        uniform_tree.stats.reset()
        uniform_tree.window_query_from([uniform_tree.root], rect)
        from_root = uniform_tree.stats.node_accesses
        uniform_tree.stats.reset()
        uniform_tree.window_query(rect)
        assert uniform_tree.stats.node_accesses == from_root
