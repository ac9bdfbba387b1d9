"""End-to-end integration: datasets -> tree -> engine -> experiments,
plus persistence of the whole pipeline and the paper's headline claims
on small workloads."""

import pytest

from repro.core import KNWCQuery, NWCEngine, NWCQuery, Scheme
from repro.datasets import ca_like, gaussian, ny_like
from repro.eval import (
    EXPERIMENTS,
    BenchContext,
    reduction_rate,
    run_nwc_setting,
    window_scale_factor,
)
from repro.index import load_tree, save_tree, validate_tree
from repro.workloads import SweepPoint, data_biased_query_points

SCALE = 0.01  # ~625 CA-like / ~2,552 NY-like / ~2,500 Gaussian points


@pytest.fixture(scope="module")
def ny_context():
    return BenchContext.build(ny_like(int(255_259 * SCALE)))


class TestPipeline:
    def test_full_pipeline_on_ny_like(self, ny_context):
        wf = window_scale_factor(SCALE)
        point = SweepPoint().scaled_window(wf)
        qpts = data_biased_query_points(ny_context.dataset, 4, seed=1)
        rows = {}
        for scheme in (Scheme.NWC, Scheme.NWC_PLUS, Scheme.NWC_STAR):
            rows[scheme] = run_nwc_setting(ny_context, scheme, point, qpts)
        # Headline claim: the optimizations cut I/O dramatically on the
        # highly clustered dataset.
        assert reduction_rate(rows[Scheme.NWC]["node_accesses"],
                              rows[Scheme.NWC_STAR]["node_accesses"]) > 90.0
        assert rows[Scheme.NWC_PLUS]["node_accesses"] < rows[Scheme.NWC]["node_accesses"]

    def test_all_schemes_same_answers_on_real_like_data(self, ny_context):
        wf = window_scale_factor(SCALE)
        qpts = data_biased_query_points(ny_context.dataset, 3, seed=2)
        point = SweepPoint(n=4).scaled_window(wf)
        for qx, qy in qpts:
            query = NWCQuery(qx, qy, point.length, point.width, point.n)
            distances = set()
            for scheme in (Scheme.NWC, Scheme.SRR, Scheme.DIP, Scheme.DEP,
                           Scheme.IWP, Scheme.NWC_PLUS, Scheme.NWC_STAR):
                engine = ny_context.engine(scheme, point)
                distances.add(round(engine.nwc(query).distance, 6))
            assert len(distances) == 1

    def test_knwc_on_ca_like(self):
        context = BenchContext.build(ca_like(int(62_556 * SCALE)))
        wf = window_scale_factor(SCALE)
        point = SweepPoint(k=3, m=2).scaled_window(wf)
        qpts = data_biased_query_points(context.dataset, 3, seed=3)
        for qx, qy in qpts:
            query = KNWCQuery.make(qx, qy, point.length, point.width,
                                   n=point.n, k=point.k, m=point.m)
            plus = context.engine(Scheme.NWC_PLUS, point).knwc(query)
            star = context.engine(Scheme.NWC_STAR, point).knwc(query)
            assert [round(d, 6) for d in plus.distances] == [
                round(d, 6) for d in star.distances
            ]

    def test_persistence_of_experiment_tree(self, ny_context, tmp_path):
        path = tmp_path / "ny.tree"
        save_tree(ny_context.tree, path)
        loaded = load_tree(path)
        validate_tree(loaded)
        engine = NWCEngine(loaded, Scheme.NWC_PLUS)
        wf = window_scale_factor(SCALE)
        query = NWCQuery(3000, 3000, 8 * wf, 8 * wf, 8)
        original = NWCEngine(ny_context.tree, Scheme.NWC_PLUS).nwc(query)
        reloaded = engine.nwc(query)
        assert reloaded.distance == pytest.approx(original.distance)


class TestExperimentSmoke:
    def test_fig9_tiny_run_has_expected_shape(self):
        result = EXPERIMENTS["fig9"](scale=0.004, queries=2)
        assert len(result.rows) == 15  # 3 datasets x 5 grid sizes
        datasets = {row["dataset"] for row in result.rows}
        assert len(datasets) == 3
        assert all(row["node_accesses"] >= 0 for row in result.rows)

    def test_gaussian_sparse_window_finds_nothing(self):
        # Paper, Fig 12c: window 8 on the Gaussian dataset is too small
        # to contain 8 objects (the distribution is near-uniform).
        dataset = gaussian(cardinality=2500)
        context = BenchContext.build(dataset)
        qpts = data_biased_query_points(dataset, 3, seed=9)
        point = SweepPoint()  # n = 8, window 8 (UNSCALED on purpose)
        row = run_nwc_setting(context, Scheme.NWC_PLUS, point, qpts)
        assert row["found_fraction"] == 0.0
