"""The bytes a response leaves the server as.

Two properties of the outbound path: an answer's wire text is encoded
once and spliced into every response that carries it — byte-identical
to encoding the plain dict — and a connection writes a frame straight
to the transport when nothing is ahead of it, falling back to its FIFO
queue otherwise.  The ``_Connection`` tests run over a fake transport
on one event loop and never wait on a clock.
"""

from __future__ import annotations

import asyncio
import json
import socket

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NWCEngine, Scheme
from repro.index import RStarTree
from repro.serve import ServeConfig, ServerThread, protocol
from repro.serve import server as server_module
from repro.serve.server import CONN_QUEUE_LIMIT, QueryServer
from tests.conftest import make_uniform_points

POINTS = make_uniform_points(300, span=1000.0, seed=31)


def _engine() -> NWCEngine:
    return NWCEngine(RStarTree.bulk_load(list(POINTS), max_entries=16),
                     Scheme.NWC_STAR)


def _plain_line(obj) -> bytes:
    return (json.dumps(obj, separators=(",", ":"), sort_keys=True)
            + "\n").encode()


# ----------------------------------------------------------------------
# Byte identity of the spliced result
# ----------------------------------------------------------------------
_floats = st.floats(allow_nan=False)
_group = st.fixed_dictionaries({
    "distance": _floats,
    "objects": st.lists(st.tuples(st.integers(), _floats, _floats).map(list),
                        max_size=6),
    "window": st.lists(_floats, min_size=4, max_size=4),
})
_reason = st.one_of(st.none(), st.text(max_size=12))
_nwc_result = st.fixed_dictionaries({
    "found": st.booleans(), "group": st.one_of(st.none(), _group),
    "reason": _reason})
_knwc_result = st.fixed_dictionaries({
    "groups": st.lists(_group, max_size=4), "reason": _reason})
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _floats,
              st.text(max_size=8)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner,
                                            max_size=3)),
    max_leaves=8)
_request_id = st.one_of(st.text(), st.integers(), st.none(),
                        st.sampled_from(["ключ-é", "請求-7", "😀"]))
#: Keys sorting before (cached, id, ok, op, partial) and after (shards,
#: stats, trace, version) ``result``.
_extras = st.fixed_dictionaries({}, optional={
    "cached": st.booleans(), "id": _request_id, "ok": st.booleans(),
    "op": st.sampled_from(["nwc", "knwc"]), "partial": st.booleans(),
    "shards": _json, "stats": st.fixed_dictionaries(
        {"node_accesses": st.integers(min_value=0)}),
    "trace": _json, "version": st.integers(min_value=0)})


class TestSplicedResult:
    @settings(max_examples=200, deadline=None)
    @given(result=st.one_of(_nwc_result, _knwc_result), extras=_extras)
    def test_spliced_line_equals_plain_encoding(self, result, extras):
        envelope = extras | {"result": protocol.encode_result(result)}
        assert protocol.encode_line(envelope) == _plain_line(
            extras | {"result": result})

    def test_encoded_result_reads_as_the_plain_dict(self):
        payload = {"found": False, "group": None, "reason": "é"}
        encoded = protocol.encode_result(payload)
        assert encoded == payload and isinstance(encoded, dict)
        assert encoded.wire == json.dumps(payload, separators=(",", ":"),
                                          sort_keys=True)

    def test_hit_line_over_a_raw_socket(self):
        with ServerThread(_engine(), ServeConfig(port=0)) as thread:
            with socket.create_connection((thread.host, thread.port)) as sock:
                stream = sock.makefile("rwb")
                lines = []
                for request in ({"op": "nwc", "id": "é-1"},
                                {"op": "knwc", "k": 3, "m": 1, "id": 2}):
                    request |= {"x": 400.0, "y": 500.0, "length": 90.0,
                                "width": 90.0, "n": 3}
                    for _ in range(2):
                        stream.write(protocol.encode_line(request))
                        stream.flush()
                        lines.append(stream.readline())
        decoded = [protocol.decode_line(line) for line in lines]
        assert [d["cached"] for d in decoded] == [False, True] * 2
        for line, response in zip(lines, decoded):
            assert line == protocol.encode_line(response)
        assert decoded[0]["result"]["found"] and decoded[2]["result"]["groups"]


# ----------------------------------------------------------------------
# Inline writes
# ----------------------------------------------------------------------
class _Transport:
    """Write-buffer stand-in: ``buffered`` bytes not yet handed to the
    socket."""

    def __init__(self) -> None:
        self.buffered = 0
        self.closing = False

    def get_write_buffer_size(self) -> int:
        return self.buffered

    def is_closing(self) -> bool:
        return self.closing


class _Writer:
    """``StreamWriter`` stand-in that records every write; while paused
    the buffer holds bytes and ``drain`` waits for :meth:`resume`."""

    def __init__(self) -> None:
        self.transport = _Transport()
        self.lines: list[bytes] = []
        self._flowing = asyncio.Event()
        self._flowing.set()

    def write(self, data: bytes) -> None:
        self.lines.append(data)

    def pause(self) -> None:
        self.transport.buffered = 1
        self._flowing.clear()

    def resume(self) -> None:
        self.transport.buffered = 0
        self._flowing.set()

    async def drain(self) -> None:
        if self.transport.closing:
            raise ConnectionResetError("connection lost")
        await self._flowing.wait()

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


async def _settle() -> None:
    """Let every ready task run (no clock involved)."""
    for _ in range(10):
        await asyncio.sleep(0)


def _frame(i: int) -> dict:
    return {"ok": True, "op": "insert", "version": i}


class TestInlineWrites:
    def test_empty_queue_writes_inline_in_order(self):
        async def scenario():
            writer = _Writer()
            conn = server_module._Connection(writer)
            frames = [_frame(i) for i in range(5)]
            for frame in frames:
                assert conn.send(frame)
            # Written before the sender task ever ran.
            assert writer.lines == [protocol.encode_line(f) for f in frames]
            await conn.aclose()
            assert len(writer.lines) == len(frames)

        asyncio.run(scenario())

    def test_paused_transport_queues_and_flushes_fifo(self):
        async def scenario():
            writer = _Writer()
            conn = server_module._Connection(writer)
            writer.pause()
            notify = protocol.notify_frame("s1", "nwc", 2, 7, {"found": False})
            ack = _frame(7)
            assert conn.send(notify) and conn.send(ack)
            assert writer.lines == []  # both queued behind the buffer
            await _settle()
            # The sender wrote the notification and waits in its drain.
            assert writer.lines == [protocol.encode_line(notify)]
            writer.resume()
            await _settle()
            assert writer.lines == [protocol.encode_line(f)
                                    for f in (notify, ack)]

            writer.pause()
            held, late, inline = _frame(8), _frame(9), _frame(10)
            assert conn.send(held)
            await _settle()
            # Queue empty, buffer flushed, but the sender's drain has not
            # returned: the next frame still goes behind it.
            writer.transport.buffered = 0
            assert conn.send(late)
            assert writer.lines[-1] == protocol.encode_line(held)
            writer.resume()
            await _settle()
            assert writer.lines[-1] == protocol.encode_line(late)
            assert conn.send(inline)  # nothing ahead again: inline
            assert writer.lines[-1] == protocol.encode_line(inline)
            await conn.aclose()

        asyncio.run(scenario())

    def test_aclose_flushes_the_queue(self):
        async def scenario():
            writer = _Writer()
            conn = server_module._Connection(writer)
            writer.pause()
            frames = [_frame(i) for i in range(3)]
            for frame in frames:
                assert conn.send(frame)
            writer.resume()
            await conn.aclose()
            assert writer.lines == [protocol.encode_line(f) for f in frames]
            assert not conn.send(_frame(3))

        asyncio.run(scenario())

    def test_overflow_closes_the_connection(self):
        async def scenario():
            writer = _Writer()
            conn = server_module._Connection(writer)
            writer.pause()
            for i in range(CONN_QUEUE_LIMIT):
                assert conn.send(_frame(i))
            assert not conn.send(_frame(CONN_QUEUE_LIMIT))
            assert conn.closed and not conn.send(_frame(0))
            await conn.aclose()

        asyncio.run(scenario())

    def test_closing_transport_closes_the_connection(self):
        async def scenario():
            writer = _Writer()
            conn = server_module._Connection(writer)
            writer.transport.closing = True
            assert conn.send(_frame(0))  # queued: the drain sees the loss
            await _settle()
            assert conn.closed and not conn.send(_frame(1))
            await conn.aclose()

        asyncio.run(scenario())

    def test_cache_hits_never_touch_the_queue(self, monkeypatch):
        connections = []

        class CountingConnection(server_module._Connection):
            def __init__(self, writer) -> None:
                super().__init__(writer)
                self.queued = 0
                put = self._queue.put_nowait

                def counting_put(frame) -> None:
                    self.queued += frame is not None
                    put(frame)

                self._queue.put_nowait = counting_put
                connections.append(self)

        monkeypatch.setattr(server_module, "_Connection", CountingConnection)
        request = protocol.encode_line({
            "op": "nwc", "x": 400.0, "y": 500.0, "length": 90.0,
            "width": 90.0, "n": 3})

        async def scenario():
            server = QueryServer(_engine(), ServeConfig(port=0))
            reader = asyncio.StreamReader()
            reader.feed_data(request * 101)
            reader.feed_eof()
            writer = _Writer()
            try:
                await asyncio.get_running_loop().create_task(
                    server._on_connection(reader, writer))
            finally:
                await server.drain()
            responses = [protocol.decode_line(line) for line in writer.lines]
            assert [r["cached"] for r in responses] == [False] + [True] * 100
            assert len(connections) == 1 and connections[0].queued == 0

        asyncio.run(scenario())
