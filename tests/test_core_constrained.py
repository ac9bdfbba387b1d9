"""Tests for constrained NWC/kNWC (region-restricted queries)."""

import math
import random

import pytest

from repro.core import (
    KNWCQuery,
    NWCEngine,
    NWCQuery,
    Scheme,
    nwc_bruteforce,
)
from repro.geometry import Rect, make_points
from repro.index import RStarTree
from tests.conftest import make_clustered_points, make_uniform_points


def constrained_reference(points, query, region):
    """Brute force over the region-filtered point set."""
    inside = [p for p in points if region.contains_object(p)]
    return nwc_bruteforce(inside, query)


class TestConstrainedNWC:
    @pytest.mark.parametrize("scheme", [Scheme.NWC, Scheme.NWC_PLUS, Scheme.NWC_STAR],
                             ids=lambda s: s.value)
    def test_matches_filtered_bruteforce(self, scheme):
        rng = random.Random(201)
        for trial in range(8):
            pts = make_uniform_points(rng.randint(15, 60), span=200, seed=trial + 300)
            tree = RStarTree.bulk_load(pts, max_entries=8)
            region = Rect(rng.uniform(0, 80), rng.uniform(0, 80),
                          rng.uniform(120, 200), rng.uniform(120, 200))
            q = NWCQuery(rng.uniform(0, 200), rng.uniform(0, 200),
                         rng.uniform(10, 60), rng.uniform(10, 60), rng.randint(1, 4))
            engine = NWCEngine(tree, scheme, grid_cell_size=20.0)
            got = engine.nwc(q, region=region)
            expect = constrained_reference(pts, q, region)
            if expect.distance == float("inf"):
                assert not got.found
            else:
                assert math.isclose(got.distance, expect.distance,
                                    rel_tol=1e-9, abs_tol=1e-9)

    def test_all_returned_objects_in_region(self):
        pts = make_clustered_points(400, clusters=4, seed=203)
        tree = RStarTree.bulk_load(pts, max_entries=16)
        engine = NWCEngine(tree, Scheme.NWC_STAR)
        region = Rect(200, 200, 800, 800)
        result = engine.nwc(NWCQuery(100, 100, 80, 80, 4), region=region)
        if result.found:
            for p in result.objects:
                assert region.contains_object(p)

    def test_baseline_scheme_filters_members(self):
        # No pruning flag: every window query's members go through the
        # region filter, query after query on one engine.
        tree = RStarTree.bulk_load(make_clustered_points(600, seed=23),
                                   max_entries=16)
        engine = NWCEngine(tree, Scheme.NWC)
        region = Rect(0.0, 0.0, 500.0, 500.0)
        rng = random.Random(2)
        for _ in range(6):
            query = NWCQuery(rng.uniform(0, 1000), rng.uniform(0, 1000),
                             60, 60, 3)
            for obj in engine.nwc(query, region=region).objects:
                assert region.contains_object(obj)

    def test_empty_region_returns_nothing(self):
        pts = make_uniform_points(200, seed=205)
        tree = RStarTree.bulk_load(pts, max_entries=16)
        engine = NWCEngine(tree, Scheme.NWC_PLUS)
        region = Rect(5000, 5000, 5100, 5100)
        result = engine.nwc(NWCQuery(500, 500, 50, 50, 2), region=region)
        assert not result.found

    def test_region_prunes_io(self):
        pts = make_uniform_points(2000, seed=207)
        tree = RStarTree.bulk_load(pts, max_entries=16)
        engine = NWCEngine(tree, Scheme.NWC_PLUS)
        q = NWCQuery(500, 500, 20, 20, 12)  # hard query -> big search
        unconstrained = engine.nwc(q).node_accesses
        constrained = engine.nwc(q, region=Rect(400, 400, 600, 600)).node_accesses
        assert constrained < unconstrained

    def test_whole_space_region_is_identity(self):
        pts = make_clustered_points(300, seed=209)
        tree = RStarTree.bulk_load(pts, max_entries=16)
        engine = NWCEngine(tree, Scheme.NWC_STAR)
        q = NWCQuery(400, 400, 70, 70, 4)
        free = engine.nwc(q)
        boxed = engine.nwc(q, region=Rect(-10, -10, 1010, 1010))
        assert free.distance == pytest.approx(boxed.distance)


class TestConstrainedKNWC:
    def test_groups_respect_region_and_overlap(self):
        pts = make_clustered_points(500, clusters=5, seed=211)
        tree = RStarTree.bulk_load(pts, max_entries=16)
        engine = NWCEngine(tree, Scheme.NWC_PLUS)
        region = Rect(100, 100, 900, 900)
        query = KNWCQuery.make(500, 500, 80, 80, n=4, k=3, m=1)
        result = engine.knwc(query, region=region)
        assert result.max_pairwise_overlap() <= 1 or len(result.groups) <= 1
        for group in result.groups:
            for p in group.objects:
                assert region.contains_object(p)

    def test_matches_filtered_baseline(self):
        pts = make_points([(i * 7 % 150, i * 13 % 150) for i in range(60)])
        tree = RStarTree.bulk_load(pts, max_entries=8)
        region = Rect(20, 20, 120, 120)
        query = KNWCQuery.make(75, 75, 40, 40, n=3, k=2, m=0)
        boxed = NWCEngine(tree, Scheme.NWC).knwc(query, region=region)
        inside = [p for p in pts if region.contains_object(p)]
        tree2 = RStarTree.bulk_load(inside, max_entries=8)
        filtered = NWCEngine(tree2, Scheme.NWC).knwc(query)
        assert [round(d, 9) for d in boxed.distances] == [
            round(d, 9) for d in filtered.distances
        ]
