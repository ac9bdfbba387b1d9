"""Cross-process tracing and fleet metrics over a live shard fleet.

Boots the same three-worker fleet as ``test_shard_serve`` and checks
the observability tentpole end to end: traced queries answer
bit-identically to untraced ones, the coordinator's stitched root span
conserves I/O (root deltas == sum of shard subtree deltas == the
response's reported stats; pruned shards contribute exactly zero),
RPC spans attribute engine vs net/queue time per shard, and the
fleet-scope metrics scrape merges every worker coherently.
"""

from __future__ import annotations

import pytest

from repro.obs import explain, format_span_tree, span_from_dict, span_to_dict
from repro.obs.context import TraceContext, new_span_id, new_trace_id
from tests.test_shard_serve import L, SHARDS, W, Fleet


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    fleet = Fleet(tmp_path_factory.mktemp("trace-fleet"))
    yield fleet
    fleet.stop()


def wire():
    return TraceContext(new_trace_id(), new_span_id()).to_wire()


def rpc_children(root):
    return [c for c in root["children"] if c["name"].startswith("rpc:")]


class TestTracedQueries:
    def test_nwc_traced_answers_bit_identically(self, fleet):
        plain = fleet.client.nwc(500, 500, L, W, 3)
        traced = fleet.client.nwc(500, 500, L, W, 3, trace=wire())
        assert traced["result"] == plain["result"]
        assert traced["cached"] is False

    def test_knwc_traced_answers_bit_identically(self, fleet):
        plain = fleet.client.knwc(480, 520, L, W, 3, 2, 1)
        traced = fleet.client.knwc(480, 520, L, W, 3, 2, 1, trace=wire())
        assert traced["result"] == plain["result"]

    def test_traced_request_bypasses_cache_both_ways(self, fleet):
        # Prime the coordinator cache, then trace the same query: the
        # traced run must hit real engines (cached: False, trace
        # attached), and must not have poisoned the cache either way —
        # the next untraced request still hits.
        fleet.client.nwc(250, 250, L, W, 2)
        primed = fleet.client.nwc(250, 250, L, W, 2)
        assert primed["cached"] is True
        traced = fleet.client.nwc(250, 250, L, W, 2, trace=wire())
        assert traced["cached"] is False
        assert traced["trace"]["span"] is not None
        assert traced["result"] == primed["result"]
        again = fleet.client.nwc(250, 250, L, W, 2)
        assert again["cached"] is True

    def test_unsampled_context_is_passthrough(self, fleet):
        ctx = dict(wire())
        ctx["sampled"] = False
        response = fleet.client.nwc(600, 400, L, W, 2, trace=ctx)
        assert "trace" not in response


class TestConservation:
    def test_nwc_root_io_equals_shard_sum_and_stats(self, fleet):
        ctx = wire()
        response = fleet.client.nwc(500, 500, L, W, 3, trace=ctx)
        envelope = response["trace"]
        assert envelope["trace_id"] == ctx["trace_id"]
        assert envelope["parent"] == ctx["span_id"]
        root = envelope["span"]
        rpcs = rpc_children(root)
        for key in root["io"]:
            assert root["io"][key] == sum(
                c["io"].get(key, 0) for c in rpcs), key
        assert root["io"]["node_accesses"] == \
            response["stats"]["node_accesses"]

    def test_knwc_root_io_equals_shard_sum_and_stats(self, fleet):
        # k = 8 outgrows a shard's first page of k instances: some shard
        # answers several pages, each its own RPC span and subtree.
        response = fleet.client.knwc(500, 500, L, W, 2, 8, 0, trace=wire())
        root = response["trace"]["span"]
        rpcs = rpc_children(root)
        paged = [c["attrs"]["shard"] for c in rpcs]
        assert len(paged) > len(set(paged))
        for key in root["io"]:
            assert root["io"][key] == sum(
                c["io"].get(key, 0) for c in rpcs), key
        assert root["io"]["node_accesses"] == \
            response["stats"]["node_accesses"]

    def test_pruned_shards_contribute_zero_spans(self, fleet):
        # A corner query prunes the far shards: the trace carries one
        # RPC span per *contacted* shard only, so skipped shards
        # contribute exactly zero I/O to the stitched root.
        response = fleet.client.nwc(5, 5, L, W, 2, trace=wire())
        meta = response["shards"]
        assert meta["skipped"] > 0
        rpcs = rpc_children(response["trace"]["span"])
        assert len(rpcs) == meta["fanout"]
        shards_seen = {c["attrs"]["shard"] for c in rpcs}
        assert len(shards_seen) == meta["fanout"] <= SHARDS

    def test_rpc_spans_attribute_engine_vs_net_time(self, fleet):
        response = fleet.client.nwc(500, 500, L, W, 3, trace=wire())
        root = response["trace"]["span"]
        assert root["attrs"]["sharded"] is True
        assert root["attrs"]["shards"] == SHARDS
        stages = set()
        for child in rpc_children(root):
            attrs = child["attrs"]
            stages.add(attrs["stage"])
            assert attrs["rpc_s"] >= attrs["engine_s"] >= 0.0
            assert attrs["net_s"] == pytest.approx(
                attrs["rpc_s"] - attrs["engine_s"])
            # RPC wall time is the span's duration.
            assert child["duration_s"] == attrs["rpc_s"]
        assert "probe" in stages

    def test_trace_round_trips_and_renders(self, fleet):
        response = fleet.client.nwc(500, 500, L, W, 3, trace=wire())
        root = span_from_dict(response["trace"]["span"])
        assert span_to_dict(root) == response["trace"]["span"]
        tree = format_span_tree(root)
        assert "query:nwc" in tree and "rpc:knwc_pool" in tree
        text = explain(root)
        assert "per-shard attribution" in text


class TestFleetMetrics:
    def test_fleet_scope_merges_every_worker(self, fleet):
        fleet.client.nwc(500, 500, L, W, 3)
        response = fleet.client.metrics(scope="fleet")
        assert response["shards_scraped"] == SHARDS
        assert response["unreachable"] == []
        merged = response["metrics"]["serve_requests_total"]["values"]
        rolled = response["rollup"]["serve_requests_total"]["values"]
        # Merge coherence: label-dropped rollup preserves the total.
        assert sum(merged.values()) == pytest.approx(sum(rolled.values()))
        # Every fragment of the merged view carries its shard label.
        assert all('shard="' in labels for labels in merged)
        assert not any('shard="' in labels for labels in rolled)

    def test_fleet_scope_prometheus_and_state_forms(self, fleet):
        text = fleet.client.metrics(fmt="prometheus", scope="fleet")["text"]
        assert 'shard="coordinator"' in text
        assert 'shard="0"' in text
        state = fleet.client.metrics(fmt="state", scope="fleet")["state"]
        assert state["v"] == 1

    def test_worker_rejects_fleet_scope(self, fleet):
        from repro.serve.client import RemoteError, ServeClient

        worker = fleet.workers[0]
        with ServeClient(worker.host, worker.port) as client:
            with pytest.raises(RemoteError) as excinfo:
                client.metrics(scope="fleet")
        assert excinfo.value.code == "bad_request"


class TestSingleServerTrace:
    def test_plain_query_server_conserves_io(self, fleet):
        """The same trace wire format works on one shard worker
        directly (it is a QueryServer): root I/O == reported stats."""
        from repro.serve.client import ServeClient

        worker = fleet.workers[0]
        with ServeClient(worker.host, worker.port) as client:
            response = client.nwc(500, 500, L, W, 2, trace=wire())
        root = response["trace"]["span"]
        assert root["io"]["node_accesses"] == \
            response["stats"]["node_accesses"]
        assert response["cached"] is False
