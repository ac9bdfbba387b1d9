"""Unit tests for the evaluation harness (runner, experiments, reporting)."""

import pytest

from repro.core import Scheme
from repro.datasets import uniform
from repro.eval import (
    BenchContext,
    ExperimentResult,
    experiment_query_count,
    experiment_scale,
    format_table,
    paper_datasets,
    pivot_by_scheme,
    reduction_rate,
    run_knwc_setting,
    run_nwc_setting,
    save_csv,
    table2_datasets,
    table3_schemes,
    window_scale_factor,
)
from repro.workloads import SweepPoint, data_biased_query_points


TINY = 0.004  # ~250 CA-like / ~1000 NY-like / ~1000 Gaussian points


class TestRunnerConfig:
    def test_scale_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        assert experiment_scale() == 0.25
        monkeypatch.setenv("REPRO_SCALE", "2.0")
        with pytest.raises(ValueError):
            experiment_scale()

    def test_queries_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUERIES", "7")
        assert experiment_query_count() == 7
        monkeypatch.setenv("REPRO_QUERIES", "0")
        with pytest.raises(ValueError):
            experiment_query_count()

    def test_window_scale_factor(self):
        assert window_scale_factor(1.0) == 1.0
        assert window_scale_factor(0.25) == pytest.approx(2.0)


class TestBenchContext:
    def test_build_and_cache(self):
        ds = uniform(800, seed=1)
        ctx = BenchContext.build(ds)
        assert ctx.tree.size == 800
        grid_a = ctx.grid(25.0)
        assert ctx.grid(25.0) is grid_a  # cached
        assert ctx.grid(50.0) is not grid_a
        iwp_a = ctx.pointer_index()
        assert ctx.pointer_index() is iwp_a

    def test_engine_wiring(self):
        ds = uniform(500, seed=2)
        ctx = BenchContext.build(ds)
        point = SweepPoint()
        star = ctx.engine(Scheme.NWC_STAR, point)
        assert star.grid is ctx.grid(point.grid_cell)
        assert star._flat_iwp is ctx.flat_pointer_index()
        # The columnar engines read FlatIWP: no scalar pointer index.
        assert star.iwp is None and ctx.iwp is None
        plus = ctx.engine(Scheme.NWC_PLUS, point)
        assert plus.grid is None and plus.iwp is None
        assert plus._flat_iwp is None


class TestRunSettings:
    def test_run_nwc_setting_row(self):
        ds = uniform(600, seed=3)
        ctx = BenchContext.build(ds)
        qpts = data_biased_query_points(ds, 3, seed=4)
        row = run_nwc_setting(ctx, Scheme.NWC_PLUS, SweepPoint(n=2, length=300, width=300), qpts)
        assert row["node_accesses"] > 0
        assert row["found_fraction"] == 1.0

    def test_run_knwc_setting_row(self):
        ds = uniform(600, seed=5)
        ctx = BenchContext.build(ds)
        qpts = data_biased_query_points(ds, 3, seed=6)
        point = SweepPoint(n=2, length=300, width=300, k=2, m=1)
        row = run_knwc_setting(ctx, Scheme.NWC_PLUS, point, qpts)
        assert row["node_accesses"] > 0
        assert 0 <= row["avg_groups"] <= 2


class TestExperiments:
    def test_table2_rows(self):
        result = table2_datasets(scale=TINY)
        assert [r["dataset"] for r in result.rows] == [
            "CA-like", "NY-like", "Gaussian(std=2000)"
        ]
        assert all(r["cardinality"] > 0 for r in result.rows)

    def test_table3_matches_registry(self):
        result = table3_schemes()
        assert len(result.rows) == 7
        star = result.rows[-1]
        assert star["scheme"] == "NWC*"
        assert all(star[t] == "yes" for t in ("SRR", "DIP", "DEP", "IWP"))

    def test_paper_datasets_scaled(self):
        datasets = paper_datasets(TINY)
        assert len(datasets) == 3
        assert datasets[0].cardinality == int(62_556 * TINY)


class TestReporting:
    def _result(self):
        return ExperimentResult(
            "demo", "Demo", ["dataset", "n", "scheme", "node_accesses"],
            rows=[
                {"dataset": "D", "n": 8, "scheme": "NWC", "node_accesses": 100.0},
                {"dataset": "D", "n": 8, "scheme": "NWC*", "node_accesses": 5.0},
                {"dataset": "D", "n": 16, "scheme": "NWC", "node_accesses": 110.0},
                {"dataset": "D", "n": 16, "scheme": "NWC*", "node_accesses": 7.0},
            ],
            meta={"scale": 0.1},
        )

    def test_format_table(self):
        text = format_table(self._result())
        assert "Demo" in text and "node_accesses" in text
        assert "100.0" in text and "scale=0.1" in text

    def test_pivot_by_scheme(self):
        text = pivot_by_scheme(self._result(), "n")
        lines = text.splitlines()
        assert any("NWC*" in line for line in lines[:3])  # header row
        assert any(line.strip().startswith("D") and "100.0" in line for line in lines)

    def test_save_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        save_csv(self._result(), path)
        content = path.read_text().splitlines()
        assert content[0] == "dataset,n,scheme,node_accesses"
        assert len(content) == 5

    def test_reduction_rate(self):
        assert reduction_rate(100.0, 2.0) == pytest.approx(98.0)
        assert reduction_rate(0.0, 5.0) == 0.0

    def test_reduction_rate_zero_and_negative_baseline(self):
        """Regression: a degenerate baseline must yield 0.0, not ZeroDivisionError."""
        assert reduction_rate(0.0, 0.0) == 0.0
        assert reduction_rate(-1.0, 5.0) == 0.0

    def test_format_cell_stable_precision(self):
        from repro.eval.reporting import _format_cell
        assert _format_cell(100.0) == "100.0"
        assert _format_cell(123.456) == "123.5"
        assert _format_cell(0.0) == "0.0"
        # small magnitudes keep significant digits instead of rounding away
        assert _format_cell(0.05) == "0.05"
        assert _format_cell(-0.0125) == "-0.0125"
        # non-floats and non-finite floats pass through
        assert _format_cell(7) == "7"
        assert _format_cell("x") == "x"
        assert _format_cell(float("inf")) == "inf"
        assert _format_cell(float("nan")) == "nan"
