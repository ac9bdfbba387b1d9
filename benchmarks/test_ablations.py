"""Ablation benches for design choices called out in DESIGN.md.

* kNWC maintenance: the paper's Steps 1-5 vs the exact greedy buffer.
* Tree construction: STR bulk load vs dynamic R* inserts — query I/O
  of the resulting trees should be in the same ballpark.
* Micro-benchmarks of the two hot substrate operations (window query
  and incremental NN) so substrate regressions surface in timings.
"""

import os

import pytest

from repro.core import KNWCQuery, NWCEngine, NWCQuery, Scheme
from repro.datasets import ny_like
from repro.geometry import Rect
from repro.index import RStarTree
from repro.workloads import data_biased_query_points

SCALE = float(os.environ.get("REPRO_SCALE", "0.05"))
CARD = max(1, int(255_259 * SCALE))


@pytest.fixture(scope="module")
def dataset():
    return ny_like(CARD)


@pytest.fixture(scope="module")
def tree(dataset):
    return RStarTree.bulk_load(dataset.points)


class TestKnwcMaintenanceAblation:
    def test_paper_vs_exact(self, benchmark, dataset, tree):
        (qx, qy) = data_biased_query_points(dataset, 1, seed=4)[0]
        query = KNWCQuery.make(qx, qy, 60, 60, n=6, k=4, m=2)
        engine = NWCEngine(tree, Scheme.NWC_PLUS)
        exact = engine.knwc(query, maintenance="exact")

        paper = benchmark(lambda: engine.knwc(query, maintenance="paper"))
        # Both respect Definition 3's structural constraints...
        assert paper.max_pairwise_overlap() <= 2 or len(paper.groups) <= 1
        assert list(paper.distances) == sorted(paper.distances)
        # ...and agree on the nearest group.
        if exact.groups and paper.groups:
            assert abs(paper.groups[0].distance - exact.groups[0].distance) < 1e-9


class TestLoadingAblation:
    def test_bulk_vs_dynamic_query_io(self, benchmark, dataset):
        sample = dataset.points[: min(6000, len(dataset.points))]
        bulk = RStarTree.bulk_load(sample)
        dynamic = RStarTree()
        dynamic.extend(sample)
        (qx, qy) = data_biased_query_points(dataset, 1, seed=5)[0]
        query = NWCQuery(qx, qy, 60, 60, 6)
        io_bulk = NWCEngine(bulk, Scheme.NWC_PLUS).nwc(query).node_accesses

        io_dynamic = benchmark(
            lambda: NWCEngine(dynamic, Scheme.NWC_PLUS).nwc(query).node_accesses
        )
        assert io_dynamic <= max(20 * io_bulk, 200)
        assert io_bulk <= max(20 * io_dynamic, 200)


class TestSubstrateMicrobench:
    def test_window_query_speed(self, benchmark, tree):
        rect = Rect(3000, 2500, 3400, 2900)
        result = benchmark(lambda: tree.window_query(rect, io=None))
        assert result is not None

    def test_incremental_nn_speed(self, benchmark, tree):
        def first_100():
            out = []
            for obj, dist, _ in tree.incremental_nearest(3200, 2800, io=None):
                out.append(obj)
                if len(out) == 100:
                    break
            return out

        assert len(benchmark(first_100)) == 100

    def test_nwc_star_query_speed(self, benchmark, dataset, tree):
        engine = NWCEngine(tree, Scheme.NWC_STAR)
        (qx, qy) = data_biased_query_points(dataset, 1, seed=6)[0]
        query = NWCQuery(qx, qy, 40, 40, 8)
        result = benchmark(lambda: engine.nwc(query))
        assert result.node_accesses > 0
