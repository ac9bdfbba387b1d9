"""Unit and integration tests for repro.obs.trace: span nesting, the
no-op tracer, I/O-delta conservation and the trace exporters."""

from __future__ import annotations

import io
import json

import pytest

from repro.core import NWCEngine, NWCQuery, KNWCQuery, Scheme
from repro.grid import DensityGrid
from repro.geometry import Rect
from repro.index import IWPIndex, RStarTree
from repro.obs import (
    ATTRIBUTION_KEYS,
    NULL_TRACER,
    MetricsRegistry,
    NullTracer,
    QueryTracer,
    Span,
    explain,
    format_span_tree,
    span_to_dict,
    write_jsonl,
)
from repro.storage import IOStats

from .conftest import make_clustered_points


# ----------------------------------------------------------------------
# Span mechanics
# ----------------------------------------------------------------------
class TestSpanNesting:
    def test_parent_child_structure(self):
        tracer = QueryTracer()
        root = tracer.start_span("query:nwc")
        search = tracer.start_span("search")
        wq = tracer.start_span("window_query", {"oid": 7})
        tracer.end_span(wq)
        tracer.end_span(search)
        tracer.end_span(root)
        assert tracer.roots == (root,)
        assert root.children == [search]
        assert search.children == [wq]
        assert wq.attrs == {"oid": 7}
        assert root.duration >= search.duration >= wq.duration >= 0.0

    def test_sibling_order_preserved(self):
        tracer = QueryTracer()
        root = tracer.start_span("root")
        for index in range(3):
            child = tracer.start_span(f"child{index}")
            tracer.end_span(child)
        tracer.end_span(root)
        assert [c.name for c in root.children] == ["child0", "child1", "child2"]

    def test_mismatched_end_raises(self):
        tracer = QueryTracer()
        a = tracer.start_span("a")
        tracer.start_span("b")
        with pytest.raises(RuntimeError, match="nesting violated"):
            tracer.end_span(a)

    def test_end_without_start_raises(self):
        with pytest.raises(RuntimeError, match="without a matching"):
            QueryTracer().end_span(None)

    def test_span_context_manager(self):
        tracer = QueryTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert tracer.last.name == "outer"
        assert tracer.last.children[0].name == "inner"

    def test_io_delta_captured(self):
        stats = IOStats()
        tracer = QueryTracer(stats=stats)
        outer = tracer.start_span("outer")
        stats.record_node(is_leaf=False)
        inner = tracer.start_span("inner")
        stats.record_node(is_leaf=True)
        tracer.end_span(inner)
        tracer.end_span(outer)
        assert outer.io == {"node_accesses": 2, "leaf_accesses": 1}
        assert inner.io == {"node_accesses": 1, "leaf_accesses": 1}
        assert outer.self_io["node_accesses"] == 1

    def test_counts_and_total_counts(self):
        root = Span("root")
        child = Span("child")
        root.children.append(child)
        root.count("srr_regions_shrunk")
        child.count("srr_regions_shrunk", 2)
        child.count("dip_nodes_pruned")
        assert root.total_counts() == {
            "srr_regions_shrunk": 3, "dip_nodes_pruned": 1,
        }

    def test_max_spans_cap_drops_but_stays_balanced(self):
        tracer = QueryTracer(max_spans=2)
        root = tracer.start_span("root")
        kept = tracer.start_span("kept")
        tracer.end_span(kept)
        dropped = tracer.start_span("dropped")
        assert dropped is None
        nested = tracer.start_span("nested-under-dropped")
        assert nested is None
        tracer.end_span(nested)
        tracer.end_span(dropped)
        tracer.end_span(root)
        assert tracer.dropped_spans == 2
        assert [c.name for c in root.children] == ["kept"]

    def test_max_spans_must_be_positive(self):
        with pytest.raises(ValueError):
            QueryTracer(max_spans=0)


class TestNullTracer:
    def test_is_disabled_noop(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        assert NULL_TRACER.start_span("x") is None
        NULL_TRACER.end_span(None)  # must not raise
        assert NULL_TRACER.roots == ()


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _tiny_trace() -> QueryTracer:
    stats = IOStats()
    tracer = QueryTracer(stats=stats)
    root = tracer.start_span("query:nwc", {"scheme": "NWC*"})
    stats.record_node(is_leaf=False)
    child = tracer.start_span("window_query", {"oid": 3})
    stats.record_node(is_leaf=True)
    tracer.end_span(child)
    root.count("srr_regions_shrunk", 4)
    tracer.end_span(root)
    return tracer


class TestExport:
    def test_format_span_tree(self):
        text = format_span_tree(_tiny_trace().last)
        assert "query:nwc" in text
        assert "└─ window_query" in text
        assert "node_accesses=2 (self=1)" in text
        assert "srr_regions_shrunk=4" in text

    def test_span_to_dict_roundtrips_through_json(self):
        data = span_to_dict(_tiny_trace().last)
        clone = json.loads(json.dumps(data))
        assert clone["name"] == "query:nwc"
        assert clone["children"][0]["io"]["node_accesses"] == 1

    def test_write_jsonl_to_path_appends(self, tmp_path):
        sink = tmp_path / "traces.jsonl"
        tracer = _tiny_trace()
        assert write_jsonl(tracer.roots, sink) == 1
        assert write_jsonl(tracer.roots, sink) == 1
        lines = sink.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["name"] == "query:nwc"

    def test_write_jsonl_to_file_object(self):
        buffer = io.StringIO()
        assert write_jsonl(_tiny_trace().roots, buffer) == 1
        assert json.loads(buffer.getvalue())["name"] == "query:nwc"

    def test_explain_reports_attribution(self):
        text = explain(_tiny_trace().last)
        assert "srr_regions_shrunk" in text
        assert "4" in text

    def test_explain_on_bare_span_mentions_nothing_fired(self):
        span = Span("query:nwc")
        assert "no optimization fired" in explain(span)

    def test_attribution_keys_unique_and_documented(self):
        names = [key for key, _ in ATTRIBUTION_KEYS]
        assert len(names) == len(set(names))
        assert all(desc for _, desc in ATTRIBUTION_KEYS)


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def obs_points():
    return make_clustered_points(500, seed=11)


@pytest.fixture(scope="module")
def obs_tree(obs_points):
    return RStarTree.bulk_load(obs_points, max_entries=16)


def _engine(tree, points, execution, tracer=None, metrics=None):
    extent = Rect(0.0, 0.0, 1100.0, 1100.0)
    return NWCEngine(
        tree,
        Scheme.NWC_STAR,
        grid=DensityGrid.build(points, extent, 50.0),
        iwp=IWPIndex(tree),
        extent=extent,
        execution=execution,
        tracer=tracer,
        metrics=metrics,
    )


QUERIES = [
    NWCQuery(500.0, 500.0, 80.0, 80.0, 4),
    NWCQuery(200.0, 750.0, 60.0, 60.0, 3),
    NWCQuery(900.0, 100.0, 120.0, 120.0, 5),
]


class TestEngineIntegration:
    @pytest.mark.parametrize("execution", ["python", "columnar"])
    def test_tracing_is_bit_identical(self, obs_tree, obs_points, execution):
        """Results and I/O counters must not change when tracing is on."""
        plain = _engine(obs_tree, obs_points, execution)
        traced = _engine(obs_tree, obs_points, execution,
                         tracer=QueryTracer(), metrics=MetricsRegistry())
        for query in QUERIES:
            a = plain.nwc(query)
            b = traced.nwc(query)
            assert a.stats == b.stats
            assert a.found == b.found
            if a.found:
                assert a.distance == b.distance
                assert [o.oid for o in a.objects] == [o.oid for o in b.objects]

    def test_modes_agree_under_tracing(self, obs_tree, obs_points):
        """Same stats, same attribution, same window-query spans (oid,
        distance and I/O delta each) in both execution modes."""
        results = {}
        for execution in ("python", "columnar"):
            tracer = QueryTracer()
            engine = _engine(obs_tree, obs_points, execution, tracer=tracer)
            stats = [engine.nwc(q).stats for q in QUERIES]
            walks = [(span.attrs["oid"], span.attrs["dist"], span.io)
                     for root in tracer.roots
                     for span in root.children[0].children]
            results[execution] = (stats, [r.counts for r in tracer.roots], walks)
        assert results["python"] == results["columnar"]

    def test_one_member_fetch_whoever_watches(self, obs_tree, obs_points):
        """The scalar path fetches a region's members one way — IWP start
        set, then the descent from it — with a tracer attached, a
        registry attached, or neither: same answers, same full IOStats,
        equal to columnar, and the root descents it reports avoided are
        the ones it always reported."""
        def answers(execution, **observers):
            engine = _engine(obs_tree, obs_points, execution, **observers)
            return [(r.stats, r.distance, [o.oid for o in r.objects])
                    for r in map(engine.nwc, QUERIES)]

        tracer, registry = QueryTracer(), MetricsRegistry()
        plain = answers("python")
        assert answers("python", tracer=tracer) == plain
        assert answers("python", metrics=registry) == plain
        assert answers("columnar") == plain
        assert [root.counts.get("iwp_root_descents_avoided", 0)
                for root in tracer.roots] == [0, 1, 4]
        events = registry.to_dict()["nwc_opt_events_total"]["values"]
        assert events['{event="iwp_root_descents_avoided"}'] == 5

    def test_root_span_io_matches_result_stats(self, obs_tree, obs_points):
        tracer = QueryTracer()
        engine = _engine(obs_tree, obs_points, "columnar", tracer=tracer)
        result = engine.nwc(QUERIES[0])
        root = tracer.last
        assert root.name == "query:nwc"
        nonzero = {k: v for k, v in result.stats.items() if v}
        assert root.io == nonzero

    @pytest.mark.parametrize("execution", ["python", "columnar"])
    def test_span_tree_io_is_conservative(self, obs_tree, obs_points, execution):
        """Parent I/O == own work + sum of children, recursively."""
        tracer = QueryTracer()
        engine = _engine(obs_tree, obs_points, execution, tracer=tracer)
        engine.nwc(QUERIES[0])

        def check(span):
            for key, total in span.io.items():
                self_share = span.self_io.get(key, 0)
                child_share = sum(c.io.get(key, 0) for c in span.children)
                assert self_share + child_share == total
                assert self_share >= 0
            for child in span.children:
                check(child)

        check(tracer.last)
        # A window-query span's I/O is exactly its own tree walk: every
        # node access under the search span that is not a frontier pop.
        search = tracer.last.children[0]
        assert search.name == "search"
        walks = [c for c in search.children if c.name == "window_query"]
        assert walks and all(w.children[0].name == "enumerate" for w in walks)
        assert (sum(w.io.get("node_accesses", 0) for w in walks)
                == search.io["node_accesses"] - search.self_io["node_accesses"])

    @pytest.mark.parametrize("execution", ["python", "columnar"])
    def test_attribution_fires_on_star_scheme(self, obs_tree, obs_points,
                                              execution):
        tracer = QueryTracer()
        engine = _engine(obs_tree, obs_points, execution, tracer=tracer)
        for query in QUERIES:
            engine.nwc(query)
        totals = {}
        for root in tracer.roots:
            for key, value in root.total_counts().items():
                totals[key] = totals.get(key, 0) + value
        assert totals.get("srr_regions_shrunk", 0) > 0
        assert totals.get("iwp_root_descents_avoided", 0) > 0

    def test_knwc_traced(self, obs_tree, obs_points):
        tracer = QueryTracer()
        engine = _engine(obs_tree, obs_points, "columnar", tracer=tracer)
        query = KNWCQuery.make(500.0, 500.0, 80.0, 80.0, 3, 2, 0)
        plain = _engine(obs_tree, obs_points, "columnar").knwc(query)
        traced = engine.knwc(query)
        assert traced.stats == plain.stats
        assert tracer.last.name == "query:knwc"
        assert tracer.last.io == {k: v for k, v in traced.stats.items() if v}

    def test_engine_metrics_populated(self, obs_tree, obs_points):
        registry = MetricsRegistry()
        engine = _engine(obs_tree, obs_points, "columnar", metrics=registry)
        for query in QUERIES:
            engine.nwc(query)
        text = registry.dump_metrics()
        assert 'nwc_queries_total{kind="nwc"} 3' in text
        assert "nwc_query_seconds_count" in text
        data = registry.to_dict()
        assert data["nwc_query_node_accesses"]["values"][""]["count"] == 3.0

    def test_one_registry_spans_components(self, obs_tree, obs_points, tmp_path):
        """Engine and page file share one registry."""
        from repro.storage import PageFile
        registry = MetricsRegistry()
        engine = _engine(obs_tree, obs_points, "columnar", metrics=registry)
        engine.nwc(QUERIES[0])
        with PageFile(tmp_path / "pages.db", page_size=128, create=True,
                      metrics=registry) as file:
            page = file.allocate()
            file.write_page(page, b"x")
        text = registry.dump_metrics()
        assert "nwc_queries_total" in text
        assert "page_write_seconds_count" in text
