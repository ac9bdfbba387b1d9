"""Additional engine behaviours: stats counters, wiring, measures in
kNWC, and miscellaneous edge cases."""

import pytest

from repro.core import (
    DistanceMeasure,
    KNWCQuery,
    NWCEngine,
    NWCQuery,
    OptimizationFlags,
    Scheme,
)
from repro.geometry import PointObject, Rect, make_points
from repro.grid import DensityGrid, PrefixSumDensityGrid
from repro.index import IWPIndex, RStarTree
from tests.conftest import make_clustered_points, make_uniform_points


class TestWiring:
    def test_prebuilt_grid_and_iwp_are_used(self):
        pts = make_uniform_points(300, seed=401)
        tree = RStarTree.bulk_load(pts, max_entries=16)
        grid = DensityGrid.build(pts, Rect(0, 0, 1000, 1000), 25.0)
        iwp = IWPIndex(tree)
        engine = NWCEngine(tree, Scheme.NWC_STAR, grid=grid, iwp=iwp)
        assert engine.grid is grid
        assert engine.iwp is iwp

    def test_auto_grid_respects_cell_size(self):
        pts = make_uniform_points(200, seed=403)
        tree = RStarTree.bulk_load(pts, max_entries=16)
        engine = NWCEngine(tree, Scheme.DEP, grid_cell_size=100.0)
        assert engine.grid.cell_size == 100.0

    def test_explicit_extent_for_grid(self):
        pts = make_uniform_points(200, seed=405)
        tree = RStarTree.bulk_load(pts, max_entries=16)
        extent = Rect(-100, -100, 1100, 1100)
        engine = NWCEngine(tree, Scheme.DEP, extent=extent)
        assert engine.grid.extent == extent

    def test_prefix_sum_grid_accepted(self):
        pts = make_uniform_points(300, seed=407)
        tree = RStarTree.bulk_load(pts, max_entries=16)
        grid = PrefixSumDensityGrid.build(pts, Rect(0, 0, 1000, 1000), 25.0)
        engine = NWCEngine(tree, Scheme.DEP, grid=grid)
        result = engine.nwc(NWCQuery(500, 500, 200, 200, 3))
        assert result.found

    def test_non_dep_scheme_builds_no_grid(self):
        pts = make_uniform_points(100, seed=409)
        tree = RStarTree.bulk_load(pts, max_entries=16)
        engine = NWCEngine(tree, Scheme.NWC_PLUS)
        assert engine.grid is None and engine.iwp is None


class TestStatsCounters:
    def _engine(self, scheme):
        pts = make_clustered_points(600, clusters=4, seed=411)
        tree = RStarTree.bulk_load(pts, max_entries=16)
        return NWCEngine(tree, scheme, grid_cell_size=25.0)

    def test_window_query_counter(self):
        engine = self._engine(Scheme.NWC)
        result = engine.nwc(NWCQuery(500, 500, 60, 60, 3))
        assert result.stats["window_queries"] == engine.tree.size

    def test_srr_issues_fewer_window_queries(self):
        baseline = self._engine(Scheme.NWC)
        srr = self._engine(Scheme.SRR)
        q = NWCQuery(500, 500, 60, 60, 3)
        io_base = baseline.nwc(q).stats["window_queries"]
        io_srr = srr.nwc(q).stats["window_queries"]
        assert io_srr < io_base

    def test_qualified_windows_counted(self):
        engine = self._engine(Scheme.NWC_PLUS)
        result = engine.nwc(NWCQuery(500, 500, 80, 80, 2))
        assert result.stats["qualified_windows"] > 0
        assert result.stats["windows_evaluated"] >= result.stats["qualified_windows"]

    def test_consecutive_calls_report_equal_independent_counters(self):
        engine = self._engine(Scheme.NWC_PLUS)
        q = NWCQuery(500, 500, 60, 60, 3)
        first = engine.nwc(q)
        second = engine.nwc(q)
        assert first.node_accesses > 0
        assert second.stats == first.stats
        assert engine.tree.stats.node_accesses == 0


class TestMeasuresInKNWC:
    @pytest.mark.parametrize("measure", [DistanceMeasure.MIN, DistanceMeasure.AVG,
                                         DistanceMeasure.NEAREST_WINDOW],
                             ids=lambda m: m.value)
    def test_knwc_with_non_default_measures(self, measure):
        pts = make_clustered_points(300, clusters=3, seed=413)
        tree = RStarTree.bulk_load(pts, max_entries=16)
        engine = NWCEngine(tree, Scheme.NWC_PLUS)
        query = KNWCQuery(NWCQuery(500, 500, 80, 80, 3, measure), k=2, m=1)
        result = engine.knwc(query)
        assert list(result.distances) == sorted(result.distances)
        for group in result.groups:
            assert len(group.objects) == 3


class TestDegenerateInputs:
    def test_single_object_tree(self):
        tree = RStarTree.bulk_load(make_points([(5, 5)]), max_entries=8)
        engine = NWCEngine(tree, Scheme.NWC_PLUS)
        result = engine.nwc(NWCQuery(0, 0, 10, 10, 1))
        assert result.found and result.objects[0].oid == 0
        assert not engine.nwc(NWCQuery(0, 0, 10, 10, 2)).found

    def test_all_objects_identical_location(self):
        pts = [PointObject(i, 7.0, 7.0) for i in range(20)]
        tree = RStarTree.bulk_load(pts, max_entries=8)
        engine = NWCEngine(tree, Scheme.NWC_STAR, grid_cell_size=5.0)
        result = engine.nwc(NWCQuery(0, 0, 1, 1, 10))
        assert result.found
        assert len(result.objects) == 10
        assert result.distance == pytest.approx((2 * 49) ** 0.5)

    def test_query_far_outside_data_space(self):
        pts = make_clustered_points(200, seed=415)
        tree = RStarTree.bulk_load(pts, max_entries=16)
        engine = NWCEngine(tree, Scheme.NWC_PLUS)
        result = engine.nwc(NWCQuery(1e6, -1e6, 100, 100, 3))
        assert result.found  # still finds the globally nearest cluster

    def test_n_equals_dataset_size(self):
        pts = make_points([(i, i) for i in range(5)])
        tree = RStarTree.bulk_load(pts, max_entries=8)
        engine = NWCEngine(tree, Scheme.NWC_PLUS)
        result = engine.nwc(NWCQuery(0, 0, 10, 10, 5))
        assert result.found
        assert len(result.objects) == 5
