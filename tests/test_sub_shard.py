"""Fleet-wide standing queries: subscriptions indexed by the
coordinator itself, probed with every routed update, re-gathered by
scatter and pushed bit-identical to fresh scatter-gather queries.

The TCP fleet checks the client-visible lifecycle; the loopback cases
drive a coordinator and in-process workers through
:class:`tests.test_serve_pipeline._LoopbackLink` (no sockets, no
clock) and count re-evaluations and the frames workers receive.
"""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.serve import protocol
from repro.serve import server as serve_server
from repro.serve.client import ServeClient
from repro.shard import ShardCallError
from tests.test_serve_pipeline import POINTS, _build, _LoopbackLink
from tests.test_shard_serve import SHARDS, Fleet


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    fleet = Fleet(tmp_path_factory.mktemp("subfleet"))
    yield fleet
    fleet.stop()


def _worker_sub_counts(fleet) -> list[int]:
    return [len(worker.server.subs) for worker in fleet.workers]


def _reevals(coordinator) -> float:
    return coordinator._m_sub_reevals.value


def test_subscription_lifecycle_through_the_fleet(fleet):
    host, port = fleet.coordinator.host, fleet.coordinator.port
    upd = fleet.client
    with ServeClient(host, port) as sub_client:
        stream = sub_client.subscribe(300.0, 300.0, 40.0, 30.0, 4)

        # Registration: the ack equals a one-shot query, the
        # coordinator owns the subscription, workers hold nothing.
        assert stream.result == upd.nwc(300.0, 300.0, 40.0, 30.0, 4)["result"]
        assert stream.revision == 1
        assert upd.health()["subscriptions"] == 1
        assert _worker_sub_counts(fleet) == [0] * SHARDS

        # An insert that beats the current best: the pushed frame is
        # bit-identical to a fresh scatter-gather at that version.
        ack = upd.insert(9001, 301.0, 301.0)
        frame = stream.poll(timeout_s=10.0)
        assert frame is not None
        assert frame["revision"] == 2
        assert frame["version"] == ack["version"]
        assert frame["result"] == \
            upd.nwc(300.0, 300.0, 40.0, 30.0, 4)["result"]

        # A far insert is inside no subscription's shield: nothing is
        # re-gathered (the ack leaves after the reconcile pass).
        before = _reevals(fleet.coordinator.server)
        upd.insert(9002, 950.0, 950.0)
        assert _reevals(fleet.coordinator.server) == before

        # Deleting the cluster point flips the answer back.
        original = stream.ack["result"]
        upd.delete(9001, 301.0, 301.0)
        frame = stream.poll(timeout_s=10.0)
        assert frame is not None and frame["revision"] == 3
        assert frame["result"] == original

        # kNWC standing queries ride the same machinery and match the
        # coordinator's exact-kNWC canon.
        with ServeClient(host, port) as k_client:
            k_stream = k_client.subscribe(500.0, 500.0, 40.0, 30.0, 3,
                                          k=2, m=1)
            assert k_stream.result == \
                upd.knwc(500.0, 500.0, 40.0, 30.0, 3, 2, 1)["result"]
            assert upd.health()["subscriptions"] == 2
            assert _worker_sub_counts(fleet) == [0] * SHARDS
            assert upd.unsubscribe(k_stream.sub_id)["removed"] is True

        # Unsubscribe drops the coordinator entry; an insert at the
        # old query point re-gathers nothing.
        assert upd.unsubscribe(stream.sub_id)["removed"] is True
        assert upd.unsubscribe(stream.sub_id)["removed"] is False
        assert upd.health()["subscriptions"] == 0
        before = _reevals(fleet.coordinator.server)
        upd.insert(9003, 302.0, 302.0)
        assert _reevals(fleet.coordinator.server) == before


def test_resume_on_coordinator(fleet):
    host, port = fleet.coordinator.host, fleet.coordinator.port
    upd = fleet.client
    with ServeClient(host, port) as first:
        stream = first.subscribe(600.0, 600.0, 40.0, 30.0, 3,
                                 sub="fleet-standing")
        baseline = stream.result
        revision = stream.revision
    # The streaming connection died; the subscription survives on the
    # coordinator and the same id resumes it.
    with ServeClient(host, port) as second:
        resumed = second.subscribe(600.0, 600.0, 40.0, 30.0, 3,
                                   sub="fleet-standing")
        assert resumed.ack.get("resumed") is True
        assert resumed.revision == revision
        assert resumed.result == baseline
        # The resumed connection is the push target again.
        upd.insert(9004, 601.0, 601.0)
        upd.insert(9005, 600.0, 599.0)
        upd.insert(9006, 599.0, 600.0)
        frame = resumed.poll(timeout_s=10.0)
        assert frame is not None and frame["revision"] == revision + 1
    assert upd.unsubscribe("fleet-standing")["removed"] is True


# ----------------------------------------------------------------------
# Loopback cases: coordinator + two in-process workers, clock-free
# ----------------------------------------------------------------------
_QUERY = {"length": 40.0, "width": 30.0, "n": 2}
#: The frames a worker may receive while fleet subscriptions run.
_SCATTER_AND_UPDATES = {"knwc_pool", "insert", "delete"}


class _Conn:
    """Push-target stand-in: records the ``notify`` frames it gets."""

    closed = False

    def __init__(self) -> None:
        self.subs: set[str] = set()
        self.frames: list[dict] = []

    def send(self, frame) -> bool:
        self.frames.append(frame)
        return True


class _CountingLink(_LoopbackLink):
    """Loopback link that logs every frame's op and raises
    :class:`ShardCallError` for ``fail_on`` (a torn write)."""

    def __init__(self, index, worker, ops: list[str]) -> None:
        super().__init__(index, worker)
        self.ops = ops
        self.fail_on: str | None = None

    async def call(self, payload, deadline=None):
        self.ops.append(payload["op"])
        if payload["op"] == self.fail_on:
            raise ShardCallError(self.index, "unavailable", "injected")
        return await super().call(payload, deadline)


def _loopback(tmp_path, scenario):
    """Run ``scenario(coordinator, send, ops, conn)`` on a fresh loop.
    ``send(op, **fields)`` dispatches one frame to the coordinator from
    a connection whose pushes land in ``conn.frames``; ``ops`` lists
    every frame the workers received."""
    async def main():
        coordinator, everything = _build("ShardCoordinator", tmp_path)
        ops: list[str] = []
        coordinator.links = [_CountingLink(i, link.worker, ops)
                             for i, link in enumerate(coordinator.links)]
        conn = _Conn()
        token = serve_server._CURRENT_CONN.set(conn)

        async def send(op, **fields):
            return await coordinator._handle_line(
                protocol.encode_line({"op": op, **fields}))

        try:
            await scenario(coordinator, send, ops, conn)
        finally:
            serve_server._CURRENT_CONN.reset(token)
            for each in everything:
                await each.drain()

    asyncio.run(main())


def _inside(sub, x, y, radius) -> bool:
    return math.hypot(x - sub.qx, y - sub.qy) <= radius


def test_loopback_subscribe_sends_workers_only_scatter_frames(tmp_path):
    async def scenario(coordinator, send, ops, conn):
        for fields in ({"sub": "a-nwc"}, {"sub": "a-knwc", "k": 2, "m": 1}):
            ack = await send("subscribe", x=300.0, y=300.0, **_QUERY,
                             **fields)
            assert ack["ok"] is True and ack["revision"] == 1
        assert (await send("unsubscribe", sub="a-nwc"))["removed"] is True
        assert set(ops) == {"knwc_pool"}, ops
        assert [len(link.worker.subs) for link in coordinator.links] == [0, 0]
        assert len(coordinator.subs) == 1

    _loopback(tmp_path, scenario)


def test_loopback_update_reevaluates_only_shielding_subs(tmp_path):
    async def scenario(coordinator, send, ops, conn):
        for sub_id, x, y in (("near", 250.0, 250.0), ("far", 750.0, 750.0)):
            ack = await send("subscribe", sub=sub_id, x=x, y=y, **_QUERY)
            assert ack["ok"] is True and ack["result"]["found"] is True
        near, far = coordinator.subs.get("near"), coordinator.subs.get("far")
        inside, outside = (250.5, 250.5), (250.0, 750.0)
        assert not _inside(far, *inside, far.insert_radius)
        for sub in (near, far):
            assert not _inside(sub, *outside, sub.insert_radius)

        before = _reevals(coordinator)
        ack = await send("insert", oid=800_001, x=inside[0], y=inside[1])
        assert ack["ok"] is True
        assert _reevals(coordinator) == before + 1
        assert near.version == ack["version"] and far.version < ack["version"]

        before = _reevals(coordinator)
        assert (await send("insert", oid=800_002, x=outside[0],
                           y=outside[1]))["ok"] is True
        assert _reevals(coordinator) == before
        assert set(ops) <= _SCATTER_AND_UPDATES, ops

    _loopback(tmp_path, scenario)


def test_loopback_torn_write_forces_one_full_pass(tmp_path):
    async def scenario(coordinator, send, ops, conn):
        manifest = coordinator.manifest
        # A query point in the halo band: inserts there go to both
        # shards; the owner applies, the other link fails.
        x, y = manifest.owned_interval(0)[1] - 1.0, 500.0
        assert manifest.affected(x) == (0, 1)
        for sub_id, qx, qy in (("halo", x, y), ("far", 200.0, 850.0)):
            ack = await send("subscribe", sub=sub_id, x=qx, y=qy, **_QUERY)
            assert ack["ok"] is True
        halo = coordinator.subs.get("halo")
        before_answer = halo.result
        coordinator.links[1].fail_on = "insert"
        for i in range(_QUERY["n"]):
            torn = await send("insert", oid=810_000 + i, x=x - 0.1 * i,
                              y=y + 0.1)
            assert torn["error"]["code"] == "shard_unavailable"
        coordinator.links[1].fail_on = None
        assert coordinator.subs.stale is True
        assert conn.frames == []

        # The next applied update re-evaluates every subscription,
        # wherever it lands, and pushes the torn writes' effect.
        outside = (850.0, 150.0)
        for sub in coordinator.subs.subscriptions():
            assert not _inside(sub, *outside, sub.insert_radius)
        before = _reevals(coordinator)
        ack = await send("insert", oid=810_100, x=outside[0], y=outside[1])
        assert ack["ok"] is True
        assert _reevals(coordinator) == before + 2
        assert coordinator.subs.stale is False
        assert halo.result != before_answer
        assert halo.result["group"]["distance"] < 1.0
        [frame] = conn.frames
        assert frame["sub"] == "halo" and frame["version"] == ack["version"]
        fresh = await send("nwc", x=x, y=y, **_QUERY)
        assert frame["result"] == fresh["result"]

        # The update after that goes back to probing.
        for sub in coordinator.subs.subscriptions():
            assert not _inside(sub, 850.0, 160.0, sub.insert_radius)
        before = _reevals(coordinator)
        assert (await send("insert", oid=810_101, x=850.0,
                           y=160.0))["ok"] is True
        assert _reevals(coordinator) == before
        assert set(ops) <= _SCATTER_AND_UPDATES, ops

    _loopback(tmp_path, scenario)


def test_loopback_delete_below_n_pushes_size_threshold(tmp_path):
    async def scenario(coordinator, send, ops, conn):
        size = coordinator.size
        assert size == len(POINTS)
        ack = await send("subscribe", sub="whole", x=500.0, y=500.0,
                         **(_QUERY | {"n": size}))
        assert ack["ok"] is True and ack["result"]["found"] is False
        assert ack["result"]["reason"] != "n exceeds dataset size"
        victim = POINTS[0]
        before = _reevals(coordinator)
        deleted = await send("delete", oid=victim.oid, x=victim.x,
                             y=victim.y)
        assert deleted["deleted"] is True and deleted["size"] == size - 1
        assert _reevals(coordinator) == before + 1
        [frame] = conn.frames
        assert frame["revision"] == 2
        assert frame["version"] == deleted["version"]
        assert frame["result"]["reason"] == "n exceeds dataset size"

    _loopback(tmp_path, scenario)


def test_fleet_writes_match_the_single_engine_server(tmp_path):
    """One op script through a single-engine server and a 2-shard
    coordinator over the same points: the same acks (the fleet's
    ``shards`` routing field aside) and the same ``notify`` frames, one
    for one — both servers run the one shared write step."""
    nwc_at, knwc_at, far = (300.0, 500.0), (650.0, 400.0), (950.0, 50.0)

    async def run(kind):
        (tmp_path / kind).mkdir()
        server, everything = _build(kind, tmp_path / kind)
        conn = _Conn()
        token = serve_server._CURRENT_CONN.set(conn)
        acks = []

        async def send(op, **fields):
            ack = await server._handle_line(
                protocol.encode_line({"op": op, **fields}))
            assert ack["ok"] is True, ack
            acks.append(ack)
            return ack

        try:
            await send("subscribe", sub="p-nwc", x=nwc_at[0], y=nwc_at[1],
                       **_QUERY)
            await send("subscribe", sub="p-knwc", x=knwc_at[0],
                       y=knwc_at[1], k=2, m=1, **_QUERY)
            await send("insert", oid=820_001, x=nwc_at[0] + 0.5,
                       y=nwc_at[1] + 0.5)
            for sub in server.subs.subscriptions():
                assert not _inside(sub, *far, sub.insert_radius)
            await send("insert", oid=820_002, x=far[0], y=far[1])
            oid, x, y = \
                server.subs.get("p-nwc").result["group"]["objects"][-1]
            assert (await send("delete", oid=oid, x=x, y=y))["deleted"]
            assert not (await send("delete", oid=820_999, x=far[0],
                                   y=far[1] + 1.0))["deleted"]
            assert (await send("unsubscribe", sub="p-nwc"))["removed"]
        finally:
            serve_server._CURRENT_CONN.reset(token)
            for each in everything:
                await each.drain()
        return acks, conn.frames

    single_acks, single_frames = asyncio.run(run("QueryServer"))
    fleet_acks, fleet_frames = asyncio.run(run("ShardCoordinator"))
    for single, fleet in zip(single_acks, fleet_acks, strict=True):
        assert "shards" not in single
        if fleet["op"] in ("insert", "delete"):
            assert fleet.pop("shards")
        assert fleet == single
    assert [frame["sub"] for frame in single_frames] == ["p-nwc", "p-nwc"]
    assert fleet_frames == single_frames
