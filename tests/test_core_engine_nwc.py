"""Integration tests: the NWC engine against brute force, every scheme."""

import math
import random

import pytest

from repro.core import (
    ALL_SCHEMES,
    DistanceMeasure,
    NWCEngine,
    NWCQuery,
    Scheme,
    nwc_bruteforce,
    nwc_bruteforce_generated,
)
from repro.geometry import Rect, make_points
from repro.index import RStarTree
from tests.conftest import make_clustered_points, make_uniform_points


def assert_same_answer(result, reference):
    if reference.distance == float("inf"):
        assert not result.found
    else:
        assert result.found
        assert result.distance == pytest.approx(reference.distance, abs=1e-9)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.value)
    def test_all_schemes_uniform(self, scheme):
        rng = random.Random(101)
        for trial in range(8):
            pts = make_uniform_points(rng.randint(10, 60), span=200, seed=trial)
            tree = RStarTree.bulk_load(pts, max_entries=8)
            q = NWCQuery(rng.uniform(0, 200), rng.uniform(0, 200),
                         rng.uniform(10, 60), rng.uniform(10, 60), rng.randint(1, 5))
            engine = NWCEngine(tree, scheme, grid_cell_size=20.0)
            assert_same_answer(engine.nwc(q), nwc_bruteforce(pts, q))

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.value)
    def test_all_schemes_clustered(self, scheme):
        rng = random.Random(55)
        for trial in range(6):
            pts = make_clustered_points(50, clusters=3, span=300, spread=15, seed=trial)
            tree = RStarTree.bulk_load(pts, max_entries=8)
            q = NWCQuery(rng.uniform(0, 300), rng.uniform(0, 300), 40, 40, 4)
            engine = NWCEngine(tree, scheme, grid_cell_size=30.0)
            assert_same_answer(engine.nwc(q), nwc_bruteforce(pts, q))

    @pytest.mark.parametrize("measure", list(DistanceMeasure), ids=lambda m: m.value)
    def test_all_measures(self, measure):
        rng = random.Random(77)
        for trial in range(6):
            pts = make_uniform_points(40, span=150, seed=trial + 30)
            tree = RStarTree.bulk_load(pts, max_entries=8)
            q = NWCQuery(rng.uniform(0, 150), rng.uniform(0, 150),
                         30, 25, 3, measure)
            engine = NWCEngine(tree, Scheme.NWC_STAR, grid_cell_size=15.0)
            assert_same_answer(engine.nwc(q), nwc_bruteforce(pts, q))

    def test_generation_rule_is_lossless(self):
        # Lemma 1 and the Section 3.1 quadrant restriction: the optimum
        # over the generated universe equals the optimum over all
        # edge-snapped windows.
        rng = random.Random(31)
        for trial in range(10):
            pts = make_uniform_points(rng.randint(5, 50), span=100, seed=trial + 60)
            q = NWCQuery(rng.uniform(-20, 120), rng.uniform(-20, 120),
                         rng.uniform(5, 40), rng.uniform(5, 40), rng.randint(1, 5))
            full = nwc_bruteforce(pts, q)
            restricted = nwc_bruteforce_generated(pts, q)
            assert restricted.distance == pytest.approx(full.distance, abs=1e-9) or (
                full.distance == restricted.distance == float("inf")
            )


class TestAnswerValidity:
    def test_answer_is_a_valid_cluster(self):
        pts = make_clustered_points(300, seed=5)
        tree = RStarTree.bulk_load(pts, max_entries=16)
        engine = NWCEngine(tree, Scheme.NWC_STAR)
        q = NWCQuery(500, 500, 80, 80, 6)
        result = engine.nwc(q)
        assert result.found
        assert len(result.objects) == 6
        assert len({p.oid for p in result.objects}) == 6
        # All objects fit in the reported window, which has window size.
        win = result.group.window
        assert win.width == pytest.approx(80) and win.height == pytest.approx(80)
        for p in result.objects:
            assert win.contains_object(p)
        # The reported distance is the measure of the reported objects.
        assert result.distance == pytest.approx(
            max(p.distance_to(500, 500) for p in result.objects)
        )

    def test_objects_sorted_by_distance(self):
        pts = make_clustered_points(300, seed=6)
        tree = RStarTree.bulk_load(pts, max_entries=16)
        engine = NWCEngine(tree, Scheme.NWC_PLUS)
        result = engine.nwc(NWCQuery(300, 700, 100, 100, 5))
        dists = [p.distance_to(300, 700) for p in result.objects]
        assert dists == sorted(dists)

    def test_no_qualified_window_returns_empty(self):
        pts = make_points([(0, 0), (500, 500), (900, 100)])
        tree = RStarTree.bulk_load(pts, max_entries=8)
        for scheme in (Scheme.NWC, Scheme.NWC_PLUS, Scheme.NWC_STAR):
            engine = NWCEngine(tree, scheme, grid_cell_size=100.0)
            result = engine.nwc(NWCQuery(100, 100, 10, 10, 2))
            assert not result.found

    def test_n_equals_one_degenerates_to_nn(self, uniform_tree, uniform_points):
        engine = NWCEngine(uniform_tree, Scheme.NWC_PLUS)
        q = NWCQuery(417, 333, 5, 5, 1)
        result = engine.nwc(q)
        nearest = min(uniform_points, key=lambda p: p.distance_to(417, 333))
        assert result.objects[0].oid == nearest.oid

    def test_query_on_top_of_cluster_distance_zero_window(self):
        pts = make_points([(100 + dx, 100 + dy) for dx in range(3) for dy in range(3)])
        tree = RStarTree.bulk_load(pts, max_entries=8)
        engine = NWCEngine(tree, Scheme.NWC_STAR, grid_cell_size=10.0)
        result = engine.nwc(NWCQuery(101, 101, 10, 10, 9))
        assert result.found
        assert len(result.objects) == 9


class TestIOBehaviour:
    def test_stats_are_reset_per_query(self, clustered_tree):
        engine = NWCEngine(clustered_tree, Scheme.NWC_PLUS)
        q = NWCQuery(500, 500, 60, 60, 4)
        first = engine.nwc(q).node_accesses
        second = engine.nwc(q).node_accesses
        assert first == second > 0

    def test_optimizations_reduce_io_on_clustered_data(self):
        pts = make_clustered_points(2000, clusters=8, seed=77)
        tree = RStarTree.bulk_load(pts, max_entries=16)
        q = NWCQuery(500, 500, 40, 40, 6)
        io = {}
        for scheme in (Scheme.NWC, Scheme.NWC_PLUS, Scheme.NWC_STAR):
            engine = NWCEngine(tree, scheme, grid_cell_size=25.0)
            io[scheme] = engine.nwc(q).node_accesses
        assert io[Scheme.NWC_PLUS] < io[Scheme.NWC]
        assert io[Scheme.NWC_STAR] <= io[Scheme.NWC_PLUS]

    def test_baseline_visits_all_leaves(self):
        # The paper: scheme NWC accesses all the objects regardless of n.
        pts = make_uniform_points(400, seed=15)
        tree = RStarTree.bulk_load(pts, max_entries=16)
        engine = NWCEngine(tree, Scheme.NWC)
        result = engine.nwc(NWCQuery(500, 500, 30, 30, 4))
        leaves = sum(1 for node in tree.iter_nodes() if node.is_leaf)
        assert result.stats["leaf_accesses"] >= leaves

    def test_dep_cancels_window_queries_in_sparse_space(self):
        pts = make_clustered_points(500, clusters=2, spread=10, seed=3)
        tree = RStarTree.bulk_load(pts, max_entries=16)
        engine = NWCEngine(tree, Scheme.DEP, grid_cell_size=25.0)
        result = engine.nwc(NWCQuery(500, 500, 20, 20, 8))
        assert result.stats["window_queries_cancelled"] > 0

    def test_engine_with_explicit_flags(self, clustered_tree):
        from repro.core import OptimizationFlags

        engine = NWCEngine(clustered_tree, OptimizationFlags(srr=True))
        result = engine.nwc(NWCQuery(500, 500, 60, 60, 4))
        assert engine.scheme is None
        assert result.node_accesses > 0

    def test_grid_required_error_on_empty_tree(self):
        tree = RStarTree(max_entries=8)
        with pytest.raises(ValueError):
            NWCEngine(tree, Scheme.DEP)
