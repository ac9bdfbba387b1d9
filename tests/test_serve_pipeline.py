"""Request-pipeline conformance: one skeleton, three server classes.

Every op of :class:`QueryServer`, :class:`ShardServer` and
:class:`ShardCoordinator` (``health``/``metrics`` aside — they are never
refused) must run the same admission, deadline and dedupe stages, and
account for the outcome exactly once.  Clock-free: requests are handed
straight to ``_handle_line`` on one event loop (the coordinator reaches
its two in-process workers through a loopback link), the admission
state is set by hand, and nothing sleeps or times out.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import NWCEngine, Scheme
from repro.geometry import Rect
from repro.index import RStarTree
from repro.serve import DurabilityConfig, QueryServer, protocol, recover
from repro.shard import (
    ShardCallError,
    ShardCoordinator,
    build_shard_server,
    partition_dataset,
)
from repro.shard.worker import ShardServer
from tests.conftest import make_uniform_points

EXTENT = Rect(0, 0, 1000, 1000)
POINTS = make_uniform_points(200, span=1000.0, seed=77)
L, W = 40.0, 30.0

_QUERY = {"x": 500.0, "y": 500.0, "length": L, "width": W, "n": 2}
_POINT = {"oid": 900_001, "x": 510.0, "y": 500.0}


def _payloads(tmp_path) -> dict[str, dict]:
    """One well-formed request per op (no ``req``: added where needed)."""
    return {
        "nwc": dict(_QUERY),
        "knwc": dict(_QUERY, k=2, m=0),
        "knwc_pool": dict(_QUERY, limit=1),
        "insert": dict(_POINT),
        "delete": dict(_POINT),
        "subscribe": dict(_QUERY, sub="conformance"),
        "unsubscribe": {"sub": "conformance"},
        "snapshot": {"path": str(tmp_path / "snapshot.tree")},
        "checkpoint": {},
    }


#: The ops that run through ``_write_op`` (idempotent under ``req``).
WRITE_OPS = ("insert", "delete", "subscribe", "unsubscribe")


class _LoopbackLink:
    """:class:`~repro.shard.ShardLink` stand-in: hands the frame to an
    in-process worker's dispatch on the caller's event loop."""

    def __init__(self, index: int, worker: ShardServer) -> None:
        self.index = index
        self.worker = worker

    async def call(self, payload, deadline=None):
        response = await self.worker._handle_line(
            protocol.encode_line(payload))
        if not response.get("ok"):
            error = response["error"]
            raise ShardCallError(self.index, error["code"], error["message"])
        return response

    def close(self) -> None:
        pass


def _durable_engine(state_dir):
    state_dir.mkdir()

    def make_engine(tree):
        if tree is None:
            tree = RStarTree.bulk_load(list(POINTS), max_entries=16)
        return NWCEngine(tree, Scheme.NWC_STAR)

    return recover(DurabilityConfig(state_dir=str(state_dir), fsync="never"),
                   make_engine)


def _workers(tmp_path, shards):
    manifest = partition_dataset(POINTS, shards, L, tmp_path, EXTENT,
                                 cell_size=25.0)
    workers = []
    for i in range(shards):
        state_dir = tmp_path / f"state-{i}"
        state_dir.mkdir()
        workers.append(build_shard_server(manifest, str(tmp_path), i,
                                          state_dir=str(state_dir)))
    return manifest, workers


def _build(kind: str, tmp_path):
    """``(server, every server to drain afterwards)``."""
    if kind == "QueryServer":
        engine, durable = _durable_engine(tmp_path / "state")
        server = QueryServer(engine, durable=durable)
        return server, [server]
    if kind == "ShardServer":
        _manifest, workers = _workers(tmp_path, 1)
        return workers[0], workers
    manifest, workers = _workers(tmp_path, 2)
    coordinator = ShardCoordinator(
        manifest, [("127.0.0.1", 0)] * len(workers))
    coordinator.links = [_LoopbackLink(i, worker)
                         for i, worker in enumerate(workers)]
    coordinator.size = sum(worker.owned_size for worker in workers)
    return coordinator, [coordinator, *workers]


_CLASSES = {"QueryServer": QueryServer, "ShardServer": ShardServer,
            "ShardCoordinator": ShardCoordinator}

CASES = [(kind, op) for kind, cls in _CLASSES.items()
         for op in cls._HANDLERS if op not in ("health", "metrics")]


def _drive(kind, tmp_path, scenario):
    """Run ``scenario(server, send)`` on a fresh loop; ``send(op,
    **fields)`` dispatches one request frame and returns the response."""
    async def main():
        server, everything = _build(kind, tmp_path)
        payloads = _payloads(tmp_path)

        async def send(op, **fields):
            frame = {"op": op, **payloads[op], **fields}
            return await server._handle_line(protocol.encode_line(frame))

        try:
            await scenario(server, send)
        finally:
            for each in everything:
                await each.drain()

    asyncio.run(main())


def _count(server, op, outcome) -> float:
    return server._m_requests[(op, outcome)].value


@pytest.mark.parametrize("kind,op", CASES)
def test_admission_refusals_are_counted_once(kind, op, tmp_path):
    async def scenario(server, send):
        limit = server.config.max_inflight + server.config.max_queue
        for outcome, attr, armed, idle in (
            ("overloaded", "_active", limit, 0),
            ("draining", "_draining", True, False),
        ):
            before = {key: counter.value
                      for key, counter in server._m_requests.items()}
            setattr(server, attr, armed)
            try:
                response = await send(op)
            finally:
                setattr(server, attr, idle)
            assert response["ok"] is False
            assert response["error"]["code"] == outcome
            moved = {key: counter.value - before[key]
                     for key, counter in server._m_requests.items()
                     if counter.value != before[key]}
            assert moved == {(op, outcome): 1.0}
            # A refused request never held a place in the system.
            assert server._active == 0

    _drive(kind, tmp_path, scenario)


@pytest.mark.parametrize("kind,op", CASES)
def test_malformed_deadline_is_a_bad_request(kind, op, tmp_path):
    async def scenario(server, send):
        for bad in (-5, 0, "soon", True):
            before = _count(server, op, "bad_request")
            response = await send(op, deadline_ms=bad)
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
            assert "deadline_ms" in response["error"]["message"]
            assert _count(server, op, "bad_request") == before + 1
        assert server._active == 0

    _drive(kind, tmp_path, scenario)


@pytest.mark.parametrize(
    "kind,op", [case for case in CASES if case[1] in WRITE_OPS])
def test_repeated_request_id_replays_the_stored_ack(kind, op, tmp_path):
    async def scenario(server, send):
        # Give removals something to remove, so the replayed ack is
        # distinguishable from a fresh no-op.
        setup = {"delete": "insert", "unsubscribe": "subscribe"}.get(op)
        if setup is not None:
            assert (await send(setup))["ok"] is True
        version = server.version
        deduped = server._m_deduped.value
        first = await send(op, req=f"conformance-{op}", id=1)
        assert first["ok"] is True and "deduped" not in first
        applied = server.version
        replay = await send(op, req=f"conformance-{op}", id=2)
        assert replay.pop("deduped") is True
        # The stored ack, verbatim — only the correlation id is the
        # retry's own.
        assert replay.pop("id") == 2 and first.pop("id") == 1
        assert replay == first
        # Applied once: the retry moved nothing.
        assert server.version == applied
        assert applied - version == (1 if op in ("insert", "delete") else 0)
        assert server._m_deduped.value == deduped + 1
        if op in ("delete", "unsubscribe"):
            assert first["deleted" if op == "delete" else "removed"] is True

    _drive(kind, tmp_path, scenario)


@pytest.mark.parametrize("kind,ops", [
    ("QueryServer", [("nwc", {}, "nwc"), ("knwc", {}, "knwc")]),
    # A page without ``k`` is NWC's page.
    ("ShardServer", [("knwc_pool", {}, "nwc"),
                     ("knwc_pool", {"k": 2, "m": 0}, "knwc")]),
])
def test_engine_runs_observe_query_seconds(kind, ops, tmp_path):
    """One ``nwc_query_seconds{kind}`` observation per engine run, none
    for a cache hit (scatter ops are never cached)."""
    async def scenario(server, send):
        for op, fields, label in ops:
            histogram = server.metrics.histogram(
                "nwc_query_seconds", labels={"kind": label})
            first = await send(op, **fields)
            assert first["ok"] is True and not first.get("cached")
            assert histogram.count == 1
            if kind == "QueryServer":
                assert (await send(op))["cached"] is True
                assert histogram.count == 1

    _drive(kind, tmp_path, scenario)


def test_worker_answers_retired_sub_track_as_unknown(tmp_path):
    """A worker has no ``sub_track`` op (the coordinator indexes fleet
    subscriptions itself): ``bad_request``, counted once as unknown."""
    async def scenario(server, send):
        before = _count(server, "unknown", "bad_request")
        response = await server._handle_line(protocol.encode_line(
            {"op": "sub_track", "sub": "sentinel", "x": 500.0, "y": 500.0,
             "n": 2, "ins": "always", "del": 75.0}))
        assert response["error"]["code"] == "bad_request"
        assert "unknown op" in response["error"]["message"]
        assert _count(server, "unknown", "bad_request") == before + 1

    _drive("ShardServer", tmp_path, scenario)
