"""Integration tests for the query server: served answers vs direct
engine calls, cache behaviour across updates, admission control,
deadlines, scheduling fairness and the load generator's verification
loop."""

from __future__ import annotations

import asyncio
import contextlib
import threading

import pytest

from repro.core import KNWCQuery, NWCEngine, NWCQuery, Scheme
from repro.datasets import Dataset
from repro.geometry import PointObject
from repro.index import RStarTree, load_tree
from repro.obs.context import TraceContext, new_span_id, new_trace_id
from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    DeadlineError,
    LoadgenConfig,
    OverloadedError,
    RemoteError,
    ServeClient,
    ServeConfig,
    ServerThread,
    protocol,
    run_loadgen,
)
from repro.serve.loadgen import _Worker
from repro.serve.server import DeadlineExceeded, ReadWriteScheduler
from tests.conftest import make_uniform_points

POINTS = make_uniform_points(400, span=1000.0, seed=101)


def _engine(points=POINTS, **kwargs) -> NWCEngine:
    tree = RStarTree.bulk_load(list(points), max_entries=16)
    return NWCEngine(tree, Scheme.NWC_STAR, **kwargs)


@pytest.fixture()
def served():
    """A running server plus a twin engine over the same points."""
    with ServerThread(_engine(), ServeConfig(port=0)) as thread:
        with ServeClient(port=thread.port) as client:
            yield client, thread, _engine()


class TestQueryServing:
    def test_nwc_bit_identical_to_direct_engine(self, served):
        client, _, twin = served
        for qx, qy in [(200, 300), (700, 100), (500, 500)]:
            response = client.nwc(qx, qy, 80, 80, 4)
            direct = protocol.serialize_nwc(
                twin.nwc(NWCQuery(qx, qy, 80, 80, 4)))
            assert response["result"] == direct
            assert response["cached"] is False
            assert response["stats"]["node_accesses"] >= 0

    def test_knwc_bit_identical_to_direct_engine(self, served):
        client, _, twin = served
        response = client.knwc(400, 400, 100, 100, 3, 3, 1)
        direct = protocol.serialize_knwc(
            twin.knwc(KNWCQuery.make(400, 400, 100, 100, 3, 3, 1)))
        assert response["result"] == direct

    def test_repeat_query_hits_cache_identically(self, served):
        client, _, _ = served
        first = client.nwc(300, 300, 80, 80, 4)
        second = client.nwc(300, 300, 80, 80, 4)
        assert first["cached"] is False and second["cached"] is True
        assert first["result"] == second["result"]
        assert first["version"] == second["version"]

    def test_distinct_measures_cached_separately(self, served):
        client, _, _ = served
        a = client.nwc(300, 300, 80, 80, 4, measure="max")
        b = client.nwc(300, 300, 80, 80, 4, measure="avg")
        assert b["cached"] is False
        assert a["result"] != b["result"] or a["result"]["group"] is None

    def test_request_id_echoed(self, served):
        client, _, _ = served
        response = client.call({"op": "health", "id": "req-42"})
        assert response["id"] == "req-42"


class TestUpdatesAndCache:
    def test_insert_bumps_version_and_answers_change(self, served):
        client, _, twin = served
        query = (500.0, 500.0, 40.0, 40.0, 4)
        before = client.nwc(*query)
        planted = [PointObject(500_000 + i, 503.0 + i, 503.0)
                   for i in range(4)]
        for obj in planted:
            response = client.insert(obj.oid, obj.x, obj.y)
            twin.insert(obj)
        assert response["version"] == 4
        after = client.nwc(*query)
        assert after["cached"] is False  # nearby insert invalidated it
        assert after["version"] == 4
        assert after["result"] == protocol.serialize_nwc(
            twin.nwc(NWCQuery(*query)))
        oids = {o[0] for o in after["result"]["group"]["objects"]}
        assert oids == {p.oid for p in planted}

    def test_far_update_preserves_cache_hit_and_identity(self, served):
        client, _, twin = served
        query = (100.0, 100.0, 40.0, 40.0, 3)
        first = client.nwc(*query)
        obj = PointObject(600_000, 950.0, 950.0)  # far from the query
        client.insert(obj.oid, obj.x, obj.y)
        twin.insert(obj)
        second = client.nwc(*query)
        assert second["cached"] is True  # carried across the update
        assert second["version"] == 1  # ...to the new version
        assert second["result"] == protocol.serialize_nwc(
            twin.nwc(NWCQuery(*query)))

    def test_delete_of_winning_member_invalidates(self, served):
        client, _, twin = served
        query = (500.0, 500.0, 120.0, 120.0, 4)
        first = client.nwc(*query)
        assert first["result"]["found"]
        oid, x, y = first["result"]["group"]["objects"][0]
        response = client.delete(oid, x, y)
        assert response["deleted"] is True
        assert twin.delete(PointObject(oid, x, y))
        second = client.nwc(*query)
        assert second["cached"] is False
        assert second["result"] == protocol.serialize_nwc(
            twin.nwc(NWCQuery(*query)))

    def test_delete_miss_keeps_version(self, served):
        client, _, _ = served
        response = client.delete(987_654, 1.0, 2.0)
        assert response["deleted"] is False
        assert response["version"] == 0


class TestAdmissionControl:
    @contextlib.contextmanager
    def _slot_held(self, **config):
        """A one-slot server whose slot an NWC query holds, blocked in
        the engine, until ``release`` is set or the block exits."""
        engine = _engine()
        real = engine.nwc
        started, release = threading.Event(), threading.Event()
        def blocking_nwc(query, **kw):
            started.set()
            release.wait()
            return real(query, **kw)
        engine.nwc = blocking_nwc
        def occupy():
            with ServeClient(port=thread.port) as c:
                c.nwc(200, 200, 60, 60, 3)
        config = ServeConfig(port=0, max_inflight=1, **config)
        with ServerThread(engine, config) as thread:
            blocker = threading.Thread(target=occupy)
            blocker.start()
            try:
                assert started.wait(30)
                yield thread, blocker, release
            finally:
                release.set()
                blocker.join()

    def test_overloaded_when_system_full(self):
        with self._slot_held(max_queue=0) as (thread, blocker, release):
            with ServeClient(port=thread.port) as client:
                with pytest.raises(OverloadedError):
                    client.nwc(300, 300, 60, 60, 3)
            release.set()
            blocker.join()
            # The slot freed up; the same request now succeeds.
            with ServeClient(port=thread.port) as client:
                assert client.nwc(300, 300, 60, 60, 3)["ok"]

    def test_deadline_exceeded_while_queued(self):
        with self._slot_held(max_queue=8) as (thread, blocker, _):
            with ServeClient(port=thread.port) as client:
                with pytest.raises(DeadlineError):
                    client.nwc(300, 300, 60, 60, 3, deadline_ms=100)
            # Answered at its deadline, while the slot holder still blocks.
            assert blocker.is_alive()

    def test_bad_deadline_rejected(self, served):
        client, _, _ = served
        with pytest.raises(RemoteError):
            client.nwc(1, 1, 10, 10, 2, deadline_ms=-5)


class TestTracedReads:
    def test_sampled_nwc_answers_while_another_reader_holds_a_slot(self):
        """A sampled trace is an ordinary reader: it runs on a copy of
        the engine carrying its own tracer, so it is answered — span
        tree and all — while a kNWC query holds a read slot, blocked in
        the engine until the test releases it."""
        engine = _engine()
        real = engine.knwc
        started, release = threading.Event(), threading.Event()

        def blocking_knwc(query, **kw):
            started.set()
            release.wait()
            return real(query, **kw)

        engine.knwc = blocking_knwc
        config = ServeConfig(port=0, max_inflight=2)
        with ServerThread(engine, config) as thread:
            def occupy():
                with ServeClient(port=thread.port) as c:
                    c.knwc(400, 400, 100, 100, 3, 3, 1)
            blocker = threading.Thread(target=occupy)
            blocker.start()
            try:
                assert started.wait(30)
                with ServeClient(port=thread.port) as client:
                    # The deadline only bounds a failure: a traced read
                    # that waited for the writer's slot would expire.
                    response = client.nwc(
                        200, 300, 80, 80, 4, deadline_ms=10_000,
                        trace=TraceContext(new_trace_id(),
                                           new_span_id()).to_wire())
                assert blocker.is_alive() and not release.is_set()
            finally:
                release.set()
                blocker.join(30)
        assert not blocker.is_alive()
        direct = _engine().nwc(NWCQuery(200, 300, 80, 80, 4))
        assert response["result"] == protocol.serialize_nwc(direct)
        root = response["trace"]["span"]
        assert root["name"] == "query:nwc"
        assert root["io"]["node_accesses"] == direct.node_accesses
        assert [child["name"] for child in root["children"]] == ["search"]
        # The engine the server owns still carries no tracer.
        assert not engine.tracer.enabled


class TestProtocolErrors:
    def test_unknown_op(self, served):
        client, _, _ = served
        with pytest.raises(RemoteError) as info:
            client.call({"op": "teleport"})
        assert info.value.code == "bad_request"

    def test_malformed_json(self, served):
        client, _, _ = served
        client._file.write(b"{not json\n")
        client._file.flush()
        response = protocol.decode_line(client._file.readline())
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"

    def test_missing_fields(self, served):
        client, _, _ = served
        with pytest.raises(RemoteError) as info:
            client.call({"op": "nwc", "x": 1})
        assert info.value.code == "bad_request"

    def test_oversized_line_rejected(self, served):
        client, _, _ = served
        client._file.write(b'{"op": "health", "pad": "' +
                           b"x" * protocol.MAX_LINE_BYTES + b'"}\n')
        client._file.flush()
        line = client._file.readline()
        assert line  # server answers before closing
        response = protocol.decode_line(line)
        assert response["error"]["code"] == "bad_request"


class TestMaintenanceOps:
    def test_health_reports_state(self, served):
        client, _, _ = served
        health = client.health()
        assert health["status"] == "serving"
        assert health["size"] == len(POINTS)
        assert health["version"] == 0
        assert health["cache"]["hits"] == 0

    def test_metrics_json_and_prometheus(self, served):
        client, _, _ = served
        client.nwc(100, 100, 50, 50, 3)
        client.nwc(100, 100, 50, 50, 3)
        data = client.metrics("json")["metrics"]
        values = data["serve_requests_total"]["values"]
        assert values['{op="nwc",outcome="ok"}'] == 2
        cache_values = data["nwc_cache_events_total"]["values"]
        assert cache_values['{layer="serve",outcome="hit"}'] == 1
        text = client.metrics("prometheus")["text"]
        assert "serve_requests_total" in text
        assert "serve_request_seconds" in text
        with pytest.raises(RemoteError):
            client.metrics("xml")

    def test_snapshot_roundtrips(self, served, tmp_path):
        client, thread, _ = served
        client.insert(700_000, 10.0, 20.0)
        path = tmp_path / "snapshot.db"
        response = client.snapshot(str(path))
        assert response["version"] == 1
        restored = load_tree(str(path))
        assert restored.size == len(POINTS) + 1


class TestScheduler:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_readers_share_writer_excludes(self):
        async def main():
            sched = ReadWriteScheduler(max_readers=4)
            async with sched.read():
                async with sched.read():
                    assert sched.active_readers == 2
            assert sched.active_readers == 0
            async with sched.write():
                assert sched.writer_active
            assert not sched.writer_active
        self._run(main())

    def test_waiting_writer_blocks_later_readers(self):
        async def main():
            sched = ReadWriteScheduler(max_readers=4)
            order = []
            await sched.acquire(False)  # a running reader
            writer = asyncio.ensure_future(sched.acquire(True))
            await asyncio.sleep(0)
            reader = asyncio.ensure_future(sched.acquire(False))
            await asyncio.sleep(0)
            writer.add_done_callback(lambda _: order.append("writer"))
            reader.add_done_callback(lambda _: order.append("reader"))
            assert not writer.done() and not reader.done()  # FIFO held
            sched.release(False)
            await writer
            sched.release(True)
            await reader
            sched.release(False)
            assert order == ["writer", "reader"]
        self._run(main())

    def test_acquire_deadline_raises_and_leaves_queue_clean(self):
        async def main():
            sched = ReadWriteScheduler(max_readers=1)
            await sched.acquire(False)
            loop = asyncio.get_running_loop()
            with pytest.raises(DeadlineExceeded):
                await sched.acquire(True, deadline=loop.time() + 0.05)
            sched.release(False)
            # The dead waiter must not wedge later acquisitions.
            await asyncio.wait_for(sched.acquire(True), timeout=1.0)
            sched.release(True)
        self._run(main())


class TestLoadgen:
    def test_mixed_load_verified_bit_identical(self):
        dataset = Dataset("serve-test", tuple(POINTS))
        with ServerThread(_engine(), ServeConfig(port=0)) as thread:
            report = run_loadgen(
                LoadgenConfig(port=thread.port, workers=3,
                              requests_per_worker=40, query_pool=10, seed=5),
                dataset, verify_engine=_engine(),
            )
        assert report.requests == 120
        assert report.errors == 0
        assert report.mismatches == 0, report.mismatch_examples
        assert report.verified > 0
        assert report.cache_hits > 0  # pooled queries repeat
        assert report.qps > 0
        d = report.to_dict()
        assert d["latency"]["p95_ms"] >= d["latency"]["p50_ms"]

    def test_doctored_node_accesses_is_a_mismatch(self):
        dataset = Dataset("serve-test", tuple(POINTS))
        worker = _Worker(0, LoadgenConfig(query_pool=4), dataset,
                         twin=_engine(), stop_at=None)
        result = worker.twin.nwc(NWCQuery(500.0, 500.0, 60.0, 60.0, 3))
        expected = protocol.serialize_nwc(result)
        accesses = result.node_accesses
        for cached, served, mismatches in ((False, accesses, 0),
                                           (True, accesses + 1, 0),
                                           (False, accesses + 1, 1)):
            response = {"ok": True, "op": "nwc", "cached": cached,
                        "result": expected,
                        "stats": {"node_accesses": served}}
            worker._verify(response, expected, accesses, {"op": "nwc"})
            assert len(worker.mismatches) == mismatches
        assert worker.mismatches[0]["node_accesses"] == [accesses + 1,
                                                         accesses]

    def test_loadgen_metrics_and_format(self):
        dataset = Dataset("serve-test", tuple(POINTS))
        registry = MetricsRegistry()
        with ServerThread(_engine(), ServeConfig(port=0)) as thread:
            report = run_loadgen(
                LoadgenConfig(port=thread.port, workers=2,
                              requests_per_worker=15, query_pool=6, seed=9),
                dataset, metrics=registry,
            )
        assert "loadgen_request_seconds" in registry.to_dict()
        text = report.format()
        assert "throughput" in text and "hit rate" in text


class TestServerThreadLifecycle:
    def test_stop_is_idempotent_and_rebindable(self):
        thread = ServerThread(_engine(), ServeConfig(port=0))
        thread.start()
        port = thread.port
        with ServeClient(port=port) as client:
            assert client.health()["ok"]
        thread.stop()
        thread.stop()  # no-op
        # The port is released: a fresh server can bind it again.
        with ServerThread(_engine(), ServeConfig(port=port)) as again:
            with ServeClient(port=again.port) as client:
                assert client.health()["ok"]

    def test_stop_closes_an_idle_connection_at_once(self):
        # An idle connection holds no request, so the drain never waits
        # on it: with a 600 s grace period, stop() still returns with
        # the loop thread gone (the join timeout is only a hang guard).
        thread = ServerThread(_engine(), ServeConfig(port=0,
                                                     drain_timeout_s=600.0))
        thread.start()
        loop_thread = thread._thread
        with ServeClient(port=thread.port) as client:
            assert client.health()["ok"]
            thread.stop()
            assert not loop_thread.is_alive()

    def test_bind_failure_surfaces(self):
        with ServerThread(_engine(), ServeConfig(port=0)) as thread:
            with pytest.raises(OSError):
                ServerThread(_engine(), ServeConfig(port=thread.port)).start()
