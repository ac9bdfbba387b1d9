"""Tests for the Hilbert bulk loader and the classic split strategies."""

import random

import pytest

from repro.geometry import Rect, make_points
from repro.index import (
    RStarTree,
    SPLIT_STRATEGIES,
    VariantRTree,
    hilbert_bulk_load,
    hilbert_d,
    hilbert_key,
    linear_split,
    make_tree,
    quadratic_split,
    validate_tree,
)
from repro.index.node import Node
from repro.geometry import PointObject
from tests.conftest import make_clustered_points, make_uniform_points


class TestHilbertCurve:
    def test_bijection_and_adjacency(self):
        order = 3
        side = 1 << order
        seen = {}
        for x in range(side):
            for y in range(side):
                seen[hilbert_d(x, y, order)] = (x, y)
        assert sorted(seen) == list(range(side * side))
        # Consecutive curve positions are grid neighbours.
        for d in range(side * side - 1):
            (x1, y1), (x2, y2) = seen[d], seen[d + 1]
            assert abs(x1 - x2) + abs(y1 - y2) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            hilbert_d(-1, 0, 4)
        with pytest.raises(ValueError):
            hilbert_d(16, 0, 4)

    def test_key_handles_extent(self):
        extent = Rect(0, 0, 100, 100)
        a = hilbert_key(PointObject(0, 0.0, 0.0), extent)
        b = hilbert_key(PointObject(1, 100.0, 100.0), extent)
        assert a != b
        # Nearby points get nearby keys far more often than not.
        near = hilbert_key(PointObject(2, 50.0, 50.0), extent)
        nearer = hilbert_key(PointObject(3, 50.4, 50.4), extent)
        assert abs(near - nearer) < abs(near - b)


class TestHilbertBulkLoad:
    @pytest.mark.parametrize("count", [0, 1, 15, 16, 17, 500])
    def test_sizes_validate(self, count):
        pts = make_uniform_points(count, seed=count) if count else []
        tree = hilbert_bulk_load(pts, max_entries=16)
        validate_tree(tree)
        assert sorted(o.oid for o in tree.iter_objects()) == list(range(count))

    def test_queries_match_str_tree(self):
        pts = make_clustered_points(1200, seed=41)
        hil = hilbert_bulk_load(pts, max_entries=16)
        strt = RStarTree.bulk_load(pts, max_entries=16)
        rng = random.Random(7)
        for _ in range(15):
            x, y = rng.uniform(0, 900), rng.uniform(0, 900)
            rect = Rect(x, y, x + 80, y + 60)
            a = sorted(o.oid for o in hil.window_query(rect, io=None))
            b = sorted(o.oid for o in strt.window_query(rect, io=None))
            assert a == b

    def test_updatable_after_load(self):
        pts = make_uniform_points(300, seed=43)
        tree = hilbert_bulk_load(pts[:250], max_entries=16)
        tree.extend(pts[250:])
        for p in pts[:50]:
            assert tree.delete(p)
        validate_tree(tree)

    def test_fill_bounds(self):
        with pytest.raises(ValueError):
            hilbert_bulk_load([], fill=0.05)


def _leaf_with(points):
    node = Node(is_leaf=True)
    for i, (x, y) in enumerate(points):
        node.add_entry(PointObject(i, x, y))
    return node


class TestGuttmanSplits:
    @pytest.mark.parametrize("split", [quadratic_split, linear_split])
    def test_partition_exact_and_min_filled(self, split):
        node = _leaf_with([(i * 3.0, (i % 4) * 2.0) for i in range(11)])
        g1, g2 = split(node, 3)
        assert len(g1) >= 3 and len(g2) >= 3
        assert sorted(p.oid for p in g1 + g2) == list(range(11))

    @pytest.mark.parametrize("split", [quadratic_split, linear_split])
    def test_separates_two_far_clusters(self, split):
        node = _leaf_with([(x, 0) for x in range(5)] + [(x + 1000, 0) for x in range(5)])
        g1, g2 = split(node, 2)
        xs1 = {p.x for p in g1}
        xs2 = {p.x for p in g2}
        assert (max(xs1) < 500) != (max(xs2) < 500)


class TestVariantRTree:
    def test_registry(self):
        assert set(SPLIT_STRATEGIES) == {"rstar", "quadratic", "linear"}
        with pytest.raises(ValueError):
            VariantRTree(split_strategy="bogus")  # type: ignore[arg-type]

    def test_make_tree_rstar_is_plain(self):
        tree = make_tree("rstar")
        assert type(tree) is RStarTree

    @pytest.mark.parametrize("strategy", ["quadratic", "linear"])
    def test_variant_invariants_and_queries(self, strategy):
        pts = make_uniform_points(600, seed=47)
        tree = make_tree(strategy, max_entries=8)
        tree.extend(pts)
        validate_tree(tree)
        for p in pts[:150]:
            assert tree.delete(p)
        validate_tree(tree)
        rect = Rect(200, 200, 500, 600)
        got = sorted(o.oid for o in tree.window_query(rect, io=None))
        expect = sorted(p.oid for p in pts[150:] if rect.contains_object(p))
        assert got == expect

    @pytest.mark.parametrize("strategy", ["quadratic", "linear"])
    def test_variant_knn(self, strategy):
        pts = make_uniform_points(400, seed=51)
        tree = make_tree(strategy, max_entries=8)
        tree.extend(pts)
        got = tree.nearest(500, 500, k=5, io=None)
        expect = sorted(pts, key=lambda p: (p.x - 500) ** 2 + (p.y - 500) ** 2)[:5]
        assert got[-1][1] == pytest.approx(expect[-1].distance_to(500, 500))
