"""Integration tests for standing queries on the single-engine query
server: registration bit-identity, shielded suppression, notification
correctness under interleaved update streams, resume semantics, the
loadgen subscriber verification loop and client lifecycle edges."""

from __future__ import annotations

import random

import pytest

from repro.check import Twin
from repro.core import KNWCQuery, NWCEngine, NWCQuery, Scheme
from repro.datasets import Dataset
from repro.geometry import PointObject
from repro.index import RStarTree
from repro.serve import (
    ConnectionLostError,
    LoadgenConfig,
    ServeClient,
    ServeConfig,
    ServerThread,
    protocol,
    run_loadgen,
)
from tests.conftest import make_uniform_points

POINTS = make_uniform_points(400, span=1000.0, seed=101)


def _engine() -> NWCEngine:
    tree = RStarTree.bulk_load(list(POINTS), max_entries=16)
    return NWCEngine(tree, Scheme.NWC_STAR)


@pytest.fixture()
def served():
    with ServerThread(_engine(), ServeConfig(port=0)) as thread:
        yield thread


class TestSubscribeLifecycle:
    def test_ack_bit_identical_to_fresh_query(self, served):
        twin = _engine()
        with ServeClient(port=served.port) as client:
            stream = client.subscribe(300.0, 300.0, 80.0, 80.0, 4)
            expected = protocol.serialize_nwc(
                twin.nwc(NWCQuery(300.0, 300.0, 80.0, 80.0, 4)))
            assert stream.result == expected
            assert stream.revision == 1
            assert stream.sub_id.startswith("sub-")

    def test_knwc_ack_bit_identical(self, served):
        twin = _engine()
        with ServeClient(port=served.port) as client:
            stream = client.subscribe(300.0, 300.0, 80.0, 80.0, 4, k=3, m=1)
            expected = protocol.serialize_knwc(twin.knwc(
                KNWCQuery(NWCQuery(300.0, 300.0, 80.0, 80.0, 4), 3, 1)))
            assert stream.result == expected

    def test_notify_shield_and_unsubscribe(self, served):
        twin = _engine()
        query = NWCQuery(300.0, 300.0, 80.0, 80.0, 4)
        with ServeClient(port=served.port) as sub_client, \
                ServeClient(port=served.port) as upd:
            stream = sub_client.subscribe(300.0, 300.0, 80.0, 80.0, 4)

            # In-window insert: the answer changes; the pushed frame is
            # bit-identical to a fresh query at that version.
            ack = upd.insert(9001, 301.0, 301.0)
            twin.insert(PointObject(9001, 301.0, 301.0))
            frame = stream.poll(timeout_s=5.0)
            assert frame is not None
            assert frame["revision"] == 2
            assert frame["version"] == ack["version"]
            assert frame["result"] == protocol.serialize_nwc(twin.nwc(query))
            assert stream.revision == 2  # mirror advanced

            # Far-away insert: shielded, no notification.
            upd.insert(9002, 950.0, 950.0)
            assert stream.poll(timeout_s=0.4) is None

            # Deleting the cluster point flips the answer back.
            twin.delete(PointObject(9001, 301.0, 301.0))
            upd.delete(9001, 301.0, 301.0)
            frame = stream.poll(timeout_s=5.0)
            assert frame is not None and frame["revision"] == 3
            assert frame["result"] == protocol.serialize_nwc(twin.nwc(query))

            # After unsubscribe (from any connection) pushes stop.
            assert upd.unsubscribe(stream.sub_id)["removed"] is True
            upd.insert(9003, 302.0, 302.0)
            assert stream.poll(timeout_s=0.4) is None
            assert upd.unsubscribe(stream.sub_id)["removed"] is False

    def test_resume_preserves_revision_and_result(self, served):
        with ServeClient(port=served.port) as first, \
                ServeClient(port=served.port) as upd:
            stream = first.subscribe(300.0, 300.0, 80.0, 80.0, 4,
                                     sub="standing-1")
            upd.insert(9001, 301.0, 301.0)
            frame = stream.poll(timeout_s=5.0)
            assert frame is not None and frame["revision"] == 2
        # The connection died but the subscription survives; the same
        # id resumes it with the current answer and revision.
        with ServeClient(port=served.port) as second, \
                ServeClient(port=served.port) as upd:
            resumed = second.subscribe(300.0, 300.0, 80.0, 80.0, 4,
                                       sub="standing-1")
            assert resumed.ack.get("resumed") is True
            assert resumed.revision == 2
            assert resumed.result == frame["result"]
            # And the resumed connection receives subsequent pushes.
            upd.delete(9001, 301.0, 301.0)
            follow = resumed.poll(timeout_s=5.0)
            assert follow is not None and follow["revision"] == 3

    def test_revisions_monotone_under_interleaved_updates(self, served):
        rng = random.Random(42)
        twin = Twin(_engine())
        queries = [NWCQuery(260.0 + 90.0 * i, 300.0, 80.0, 80.0, 4)
                   for i in range(3)]
        with ServeClient(port=served.port) as sub_client, \
                ServeClient(port=served.port) as upd:
            streams = [sub_client.subscribe(q.qx, q.qy, q.length, q.width,
                                            q.n)
                       for q in queries]
            for stream, query in zip(streams, queries):
                twin.check_subscribe(query, stream.ack)
            live: list[PointObject] = []
            for i in range(40):
                if live and rng.random() < 0.4:
                    obj = live.pop(rng.randrange(len(live)))
                    twin.check_update("delete", obj,
                                      upd.delete(obj.oid, obj.x, obj.y))
                else:
                    obj = PointObject(20000 + i, rng.uniform(200.0, 600.0),
                                      rng.uniform(250.0, 350.0))
                    twin.check_update("insert", obj,
                                      upd.insert(obj.oid, obj.x, obj.y))
                    live.append(obj)
            assert twin.pending() > 0  # the stream actually churned
            # Drain everything: each frame must be the next change of
            # its subscription.  poll() returns frames for every
            # subscription on the connection, whichever stream object
            # it is called through.
            deadline_polls = 0
            while twin.pending():
                frame = streams[0].poll(timeout_s=1.0)
                if frame is None:
                    deadline_polls += 1
                    assert deadline_polls < 10, twin.pending()
                    continue
                twin.check_frame(frame)
            # One frame per answer change, the last one the final
            # fresh answer.
            twin.check_delivery(exact=True)
            assert twin.mismatches == 0, twin.examples


class TestLoadgenSubscriptions:
    def test_verified_run_zero_missed_zero_spurious(self, served):
        dataset = Dataset("serve-test", tuple(POINTS))
        report = run_loadgen(
            LoadgenConfig(port=served.port, workers=2,
                          requests_per_worker=50, query_pool=8, seed=11,
                          subscriptions=6, verify_subs=True),
            dataset, verify_engine=_engine(),
        )
        assert report.errors == 0
        assert report.subscriptions == 6
        assert report.sub_missed == 0, report.mismatch_examples
        assert report.sub_spurious == 0, report.mismatch_examples
        assert report.mismatches == 0, report.mismatch_examples
        assert "subscriptions: 6 registered" in report.format()

    def test_verify_subs_requires_twin(self, served):
        dataset = Dataset("serve-test", tuple(POINTS))
        with pytest.raises(ValueError, match="verify_subs"):
            run_loadgen(LoadgenConfig(port=served.port, subscriptions=2,
                                      verify_subs=True), dataset)


class TestClientLifecycle:
    def test_close_is_idempotent(self, served):
        client = ServeClient(port=served.port)
        assert client.health()["ok"]
        client.close()
        client.close()  # second close must be a no-op

    def test_exit_swallows_lost_connection(self, served):
        # Stopping the server while the client holds a connection must
        # not turn the with-block exit into an error.
        with ServeClient(port=served.port) as client:
            assert client.health()["ok"]
            served.stop()

    def test_close_after_connection_lost(self, served):
        client = ServeClient(port=served.port)
        assert client.health()["ok"]
        served.stop()
        with pytest.raises(ConnectionLostError):
            client.health()
        client.close()
        client.close()
