"""End-to-end sharded serving: worker fleet + coordinator over TCP.

Boots three shard workers and a coordinator in-process, plus a
single-engine oracle server, then checks: answer identity through the
full protocol stack, update routing by partition ownership, the
coordinator's semantic cache with shard-aware shield invalidation,
fan-in health, the fleet checkpoint's accounting, typed
window/maintenance rejections, degraded partial-mode answers when a
worker dies, and the torn write a deadline leaves behind.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core import NWCEngine
from repro.core.measures import DistanceMeasure
from repro.core.query import KNWCQuery, NWCQuery
from repro.core.schemes import Scheme
from repro.geometry import Rect
from repro.index import RStarTree
from repro.obs.context import TraceContext, new_span_id, new_trace_id
from repro.serve import protocol
from repro.serve.client import (
    DeadlineError,
    RemoteError,
    ServeClient,
    ShardUnavailableError,
    wait_until_healthy,
)
from repro.serve.server import DeadlineExceeded, ServerThread, ServingThread
from repro.shard import (
    build_shard_server,
    coordinator_thread,
    partition_dataset,
)
from tests.conftest import make_uniform_points

EXTENT = Rect(0, 0, 1000, 1000)
POINTS = make_uniform_points(400, span=1000.0, seed=101)
L, W = 40.0, 30.0
SHARDS = 3


class Fleet:
    def __init__(self, tmp_path, shards=SHARDS, points=POINTS,
                 durable=False):
        self.manifest = partition_dataset(points, shards, L, tmp_path,
                                          EXTENT, cell_size=25.0)
        self.workers = []
        addresses = []
        for i in range(shards):
            state_dir = None
            if durable:
                state_dir = str(tmp_path / f"state-{i}")
                os.mkdir(state_dir)
            thread = ServingThread(build_shard_server(
                self.manifest, str(tmp_path), i, state_dir=state_dir)).start()
            self.workers.append(thread)
            addresses.append((thread.host, thread.port))
        self.coordinator = coordinator_thread(
            self.manifest, addresses).start()
        wait_until_healthy(self.coordinator.host, self.coordinator.port,
                           shards=shards)
        self.client = ServeClient(self.coordinator.host,
                                  self.coordinator.port)

    def stop(self):
        self.client.close()
        self.coordinator.stop()
        for worker in self.workers:
            worker.stop()


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    fleet = Fleet(tmp_path_factory.mktemp("fleet"))
    yield fleet
    fleet.stop()


@pytest.fixture(scope="module")
def oracle():
    engine = NWCEngine(RStarTree.bulk_load(list(POINTS)),
                       scheme=Scheme.NWC_STAR, extent=EXTENT,
                       execution="columnar")
    thread = ServerThread(engine).start()
    client = ServeClient(thread.host, thread.port)
    yield client
    client.close()
    thread.stop()


@pytest.fixture(scope="module")
def baseline():
    # Exact-kNWC canon: the unpruned baseline engine (Definition 3's
    # greedy selection; NWC_STAR may pick a different equal-distance
    # group on ties, the coordinator's paged merge never does).
    return NWCEngine(RStarTree.bulk_load(list(POINTS)),
                     scheme=Scheme.NWC, extent=EXTENT)


def test_nwc_identity_through_the_stack(fleet, oracle):
    rng = random.Random(1001)
    found = 0
    for _ in range(20):
        x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
        n = rng.randint(2, 4)
        measure = rng.choice(["max", "min", "avg", "nearest_window"])
        got = fleet.client.nwc(x, y, L, W, n, measure=measure)
        want = oracle.nwc(x, y, L, W, n, measure=measure)
        if measure == "nearest_window":
            assert got["result"]["found"] == want["result"]["found"]
            if want["result"]["found"]:
                assert got["result"]["group"]["distance"] == \
                    want["result"]["group"]["distance"]
        else:
            assert got["result"] == want["result"]
        found += bool(want["result"]["found"])
        assert got["shards"]["fanout"] + got["shards"]["skipped"] <= SHARDS
    assert found > 0


def test_knwc_identity_through_the_stack(fleet, baseline):
    rng = random.Random(2002)
    for _ in range(20):
        x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
        n = rng.randint(2, 4)
        k = rng.randint(1, 4)
        m = rng.choice((0, n - 1))
        measure = rng.choice(["max", "min", "avg", "nearest_window"])
        got = fleet.client.knwc(x, y, L, W, n, k, m=m, measure=measure)
        query = KNWCQuery(NWCQuery(x, y, L, W, n, DistanceMeasure(measure)),
                          k, m)
        assert got["result"] == protocol.serialize_knwc(baseline.knwc(query))


def test_updates_route_by_ownership(fleet):
    before = fleet.client.health()
    x, y = 500.0, 500.0
    response = fleet.client.insert(31337, x, y)
    assert response["version"] == before["version"] + 1
    assert response["size"] == before["size"] + 1
    assert tuple(response["shards"]) == fleet.manifest.affected(x)
    assert fleet.manifest.route(x) in response["shards"]

    response = fleet.client.delete(31337, x, y)
    assert response["deleted"] is True
    assert response["size"] == before["size"]

    # Deleting again is a routed no-op: acknowledged, nothing removed.
    response = fleet.client.delete(31337, x, y)
    assert response["deleted"] is False
    assert response["size"] == before["size"]


def test_update_dedupe_by_request_id(fleet):
    payload = {"op": "insert", "oid": 31338, "x": 10.0, "y": 10.0,
               "req": "fleet-dedupe-1"}
    first = fleet.client.call(dict(payload))
    replay = fleet.client.call(dict(payload))
    assert replay.get("deduped") is True
    assert replay["version"] == first["version"]
    fleet.client.delete(31338, 10.0, 10.0)


def test_coordinator_cache_and_shield_invalidation(fleet):
    query = dict(x=200.0, y=200.0, n=2)
    first = fleet.client.nwc(query["x"], query["y"], L, W, query["n"])
    assert first["cached"] is False
    assert fleet.client.nwc(query["x"], query["y"], L, W,
                            query["n"])["cached"] is True

    # A far-away insert bumps the version but stays outside the shield
    # radius: the cached answer remains provably valid and is kept.
    fleet.client.insert(31339, 950.0, 950.0)
    again = fleet.client.nwc(query["x"], query["y"], L, W, query["n"])
    assert again["cached"] is True

    # An insert at the query point invalidates it.
    fleet.client.insert(31340, query["x"], query["y"])
    assert fleet.client.nwc(query["x"], query["y"], L, W,
                            query["n"])["cached"] is False

    fleet.client.delete(31339, 950.0, 950.0)
    fleet.client.delete(31340, query["x"], query["y"])


def test_health_fans_in_every_shard(fleet):
    health = fleet.client.health()
    assert health["status"] == "serving"
    assert len(health["shards"]) == SHARDS
    assert all(entry["status"] == "serving" for entry in health["shards"])
    assert sum(entry["owned_size"] for entry in health["shards"]) == \
        health["size"]


def test_fleet_checkpoint_is_counted_and_timed(tmp_path):
    fleet = Fleet(tmp_path, shards=2, durable=True,
                  points=make_uniform_points(120, seed=909))
    try:
        fleet.client.insert(31341, 500.0, 500.0)
        response = fleet.client.call({"op": "checkpoint"})
        assert [entry["shard"] for entry in response["shards"]] == [0, 1]
        assert all(entry["checkpoint"] for entry in response["shards"])
        # Accounted like the single server's checkpoint: one cycle, one
        # latency observation.
        families = fleet.client.metrics()["metrics"]
        assert families["serve_checkpoints_total"]["values"][""] == 1.0
        latency = families["serve_request_seconds"]["values"]
        assert latency['{op="checkpoint",source="engine"}']["count"] == 1
    finally:
        fleet.stop()


def test_shard_metric_families_exported(fleet):
    families = fleet.client.metrics()["metrics"]
    for name in ("shard_prune_skips_total", "shard_fanout",
                 "shard_partial_results_total"):
        assert name in families


def test_window_longer_than_halo_is_rejected(fleet):
    for op in ("nwc", "subscribe"):
        with pytest.raises(RemoteError) as excinfo:
            fleet.client.call({"op": op, "x": 500.0, "y": 500.0,
                               "length": L * 10, "width": W, "n": 2})
        assert excinfo.value.code == "bad_request"
    assert fleet.client.health()["subscriptions"] == 0


def test_non_exact_maintenance_is_rejected(fleet):
    for op in ("knwc", "subscribe"):
        for maintenance in ("lazy", "paper"):
            with pytest.raises(RemoteError) as excinfo:
                fleet.client.call({"op": op, "x": 500.0, "y": 500.0,
                                   "length": L, "width": W, "n": 2, "k": 2,
                                   "maintenance": maintenance})
            assert excinfo.value.code == "bad_request"
    assert fleet.client.health()["subscriptions"] == 0


def test_n_exceeding_dataset_size_short_circuits(fleet):
    response = fleet.client.nwc(500.0, 500.0, L, W, 10_000)
    assert response["result"]["found"] is False
    assert response["result"]["reason"] == "n exceeds dataset size"
    assert response["shards"]["fanout"] == 0


def test_dead_worker_partial_mode(tmp_path):
    fleet = Fleet(tmp_path, shards=2,
                  points=make_uniform_points(120, seed=909))
    try:
        # Kill the worker owning the right band; a mid-dataset query
        # must fan out to it.
        fleet.workers[1].stop()
        with pytest.raises(ShardUnavailableError):
            fleet.client.nwc(500.0, 500.0, L, W, 2)
        degraded = fleet.client.call({
            "op": "nwc", "x": 500.0, "y": 500.0, "length": L, "width": W,
            "n": 2, "partial": True,
        })
        assert degraded["partial"] is True
        assert degraded["shards"]["failed"] == [1]
        # Degraded answers are never cached.
        assert degraded["cached"] is False
        # kNWC: the lost shard's stream ends; the merge goes on without it.
        with pytest.raises(ShardUnavailableError):
            fleet.client.knwc(500.0, 500.0, L, W, 2, 2)
        degraded = fleet.client.call({
            "op": "knwc", "x": 500.0, "y": 500.0, "length": L, "width": W,
            "n": 2, "k": 2, "partial": True,
        })
        assert degraded["partial"] is True
        assert degraded["shards"]["failed"] == [1]
        assert degraded["result"]["groups"]
        health = fleet.client.health()
        statuses = {entry["shard"]: entry["status"]
                    for entry in health["shards"]}
        assert statuses[1] == "unreachable"
    finally:
        fleet.stop()


def test_deadline_on_one_update_target_is_a_torn_write(tmp_path):
    """An insert whose deadline passes on one target after another
    target applied it changed the dataset: the version must advance and
    the cached answer go, exactly as for an unreachable shard.  The
    client still reads ``deadline_exceeded``.  Clock-free: the expiry is
    raised by a patched link, not waited for."""
    fleet = Fleet(tmp_path, shards=2,
                  points=make_uniform_points(120, seed=909))
    try:
        coordinator = fleet.coordinator.server
        # A query point in the halo band: inserts there go to both
        # shards; the owner applies, the other link's deadline "passes".
        x = fleet.manifest.owned_interval(0)[1] - 1.0
        y, n = 500.0, 3
        targets = fleet.manifest.affected(x)
        assert targets == (0, 1) and fleet.manifest.route(x) == 0

        before = fleet.client.nwc(x, y, L, W, n)
        assert fleet.client.nwc(x, y, L, W, n)["cached"] is True

        link = coordinator.links[1]
        real_call = link.call

        async def expired_on_insert(payload, deadline=None):
            if payload.get("op") == "insert":
                raise DeadlineExceeded
            return await real_call(payload, deadline)

        link.call = expired_on_insert
        try:
            for i in range(n):
                with pytest.raises(DeadlineError):
                    fleet.client.insert(41_000 + i, x - 0.1 * i, y + 0.1)
        finally:
            link.call = real_call

        after = fleet.client.nwc(x, y, L, W, n)
        assert after["version"] == before["version"] + n
        assert after["cached"] is False
        # Every served frame == a fresh query at the version it
        # carries: a sampled trace bypasses the cache.
        fresh = fleet.client.nwc(
            x, y, L, W, n,
            trace=TraceContext(new_trace_id(), new_span_id()).to_wire())
        assert after["result"] == fresh["result"]
        assert after["result"]["group"]["distance"] < 1.0
        if before["result"]["found"]:
            assert before["result"]["group"]["distance"] > 1.0
    finally:
        fleet.stop()
