"""Small-scale checks of the paper's headline qualitative claims.

The benchmark suite regenerates every figure at experiment scale; these
tests pin the same *shapes* on workloads small enough for the unit-test
run, so a plain ``pytest tests/`` already certifies the reproduction's
core claims.
"""

import pytest

from repro.core import NWCEngine, NWCQuery, Scheme
from repro.datasets import gaussian, uniform
from repro.geometry import Rect
from repro.grid import DensityGrid
from repro.index import RStarTree
from repro.storage import StatsAggregator
from repro.workloads import data_biased_query_points
from tests.conftest import make_clustered_points, make_uniform_points


def mean_io(engine, queries):
    agg = StatsAggregator()
    for q in queries:
        agg.add(engine.nwc(q).stats)
    return agg.mean()


@pytest.fixture(scope="module")
def clustered_setup():
    pts = make_clustered_points(3000, clusters=6, spread=12, seed=501)
    tree = RStarTree.bulk_load(pts, max_entries=16)
    queries = [NWCQuery(x, 1000 - x, 30, 30, 6) for x in (200, 500, 800)]
    return pts, tree, queries


@pytest.fixture(scope="module")
def uniform_setup():
    # lam*l*w ~ 1.9 with n = 12: qualified windows are (essentially)
    # nonexistent, the regime where the paper's SRR/DIP degenerate and
    # DEP carries the load (Figs 11c / 12c).
    pts = make_uniform_points(3000, seed=503)
    tree = RStarTree.bulk_load(pts, max_entries=16)
    queries = [NWCQuery(x, x, 25, 25, 12) for x in (300, 500, 700)]
    return pts, tree, queries


class TestComplementarity:
    """Section 5.2: SRR/DIP excel on clustered data, DEP/IWP on
    near-uniform data, NWC* always wins."""

    def test_srr_dip_shine_on_clustered_data(self, clustered_setup):
        pts, tree, queries = clustered_setup
        io = {s: mean_io(NWCEngine(tree, s, grid_cell_size=25.0), queries)
              for s in (Scheme.NWC, Scheme.SRR, Scheme.DIP)}
        assert io[Scheme.SRR] < 0.25 * io[Scheme.NWC]
        assert io[Scheme.DIP] < 0.5 * io[Scheme.NWC]

    def test_dep_helps_where_srr_degenerates(self, uniform_setup):
        pts, tree, queries = uniform_setup
        # Windows too sparse to qualify: SRR degenerates to the baseline
        # (Fig 11c) while DEP still cancels window queries and saves I/O
        # (the paper reports an 18% cut in the same regime; finer grids
        # cut more).
        io_nwc = mean_io(NWCEngine(tree, Scheme.NWC), queries)
        io_srr = mean_io(NWCEngine(tree, Scheme.SRR), queries)
        engine_dep = NWCEngine(tree, Scheme.DEP, grid_cell_size=10.0)
        io_dep = mean_io(engine_dep, queries)
        assert io_srr == pytest.approx(io_nwc)  # degenerate (no pruning)
        assert io_dep < 0.85 * io_nwc
        cancelled = sum(
            engine_dep.nwc(q).stats["window_queries_cancelled"] for q in queries
        )
        assert cancelled > 0

    def test_nwc_star_wins_everywhere(self, clustered_setup, uniform_setup):
        for pts, tree, queries in (clustered_setup, uniform_setup):
            per_scheme = {
                s: mean_io(NWCEngine(tree, s, grid_cell_size=25.0), queries)
                for s in Scheme
            }
            best = min(per_scheme.values())
            assert per_scheme[Scheme.NWC_STAR] <= best * 1.5

    def test_nwc_plus_beats_its_components(self, clustered_setup):
        pts, tree, queries = clustered_setup
        io_srr = mean_io(NWCEngine(tree, Scheme.SRR), queries)
        io_dip = mean_io(NWCEngine(tree, Scheme.DIP), queries)
        io_plus = mean_io(NWCEngine(tree, Scheme.NWC_PLUS), queries)
        assert io_plus <= min(io_srr, io_dip) * 1.05


class TestGridGranularity:
    """Figure 9: finer grids prune better (except extreme clustering)."""

    def test_finer_grid_fewer_accesses(self, uniform_setup):
        pts, tree, queries = uniform_setup
        extent = Rect(0, 0, 1000, 1000)
        ios = []
        for cell in (10.0, 40.0, 160.0):
            grid = DensityGrid.build(pts, extent, cell)
            ios.append(mean_io(NWCEngine(tree, Scheme.DEP, grid=grid), queries))
        assert ios[0] <= ios[1] <= ios[2]


class TestBaselineFlatness:
    """Figure 11: the baseline visits everything regardless of n."""

    def test_nwc_constant_in_n(self, clustered_setup):
        pts, tree, queries = clustered_setup
        engine = NWCEngine(tree, Scheme.NWC)
        ios = []
        for n in (2, 8, 32):
            q = NWCQuery(500, 500, 30, 30, n)
            ios.append(engine.nwc(q).node_accesses)
        assert max(ios) <= 1.2 * min(ios)


class TestStorageNumbers:
    """Section 5.2: the density grid at cell 25 over the paper's space
    is 160,000 cells / ~312 KB."""

    def test_paper_grid_size(self):
        grid = DensityGrid(Rect(0, 0, 10_000, 10_000), 25.0)
        assert grid.cell_count == 160_000
        assert grid.storage_overhead_bytes() == 320_000
