"""Concurrent NWC/kNWC query server.

One :class:`QueryServer` owns one :class:`~repro.core.engine.NWCEngine`
and serves it over TCP (newline-delimited JSON, see
:mod:`repro.serve.protocol`).  Three mechanisms make a single
in-process engine safe and predictable under concurrent clients:

* **Single-writer / many-reader scheduling** —
  :class:`ReadWriteScheduler` is a FIFO-fair asyncio lock: queries and
  snapshots run concurrently (up to ``max_inflight``, each on an
  executor thread; the engine's query paths only read the index), while
  ``insert``/``delete`` run exclusively.  FIFO ordering means a waiting
  writer blocks later readers, so writers cannot starve.  DEP/IWP
  structure rebuilds are forced *inside* the write critical section, so
  readers never pay (or race on) a lazy rebuild.
* **Admission control** — at most ``max_inflight + max_queue`` requests
  may be in the system; beyond that the server answers ``overloaded``
  immediately instead of queueing unboundedly.  Each request also
  carries a deadline (client-supplied ``deadline_ms`` or the server
  default); a request still waiting for the scheduler when its deadline
  passes is answered ``deadline_exceeded`` without touching the engine.
* **Update-aware result caching** — answers are cached per full query
  description and dataset version (:mod:`repro.serve.cache`); updates
  carry entries forward or invalidate them by the shield-radius rule,
  so a cache hit is always bit-identical to recomputing at the current
  version.

A fourth mechanism makes acknowledgements *durable* when the server is
built over a :class:`~repro.serve.durability.DurableState`:

* **Write-ahead logging** — inside the exclusive write slot, every
  ``insert``/``delete`` is appended to the WAL *before* it is applied
  (and long before the ack leaves the server); on boot,
  :func:`~repro.serve.durability.recover` replays the log tail over the
  latest checkpoint, so a ``kill -9`` loses nothing that was
  acknowledged.  Updates carrying a client request id (``req``) are
  deduplicated against the WAL-backed id map, making client retries
  idempotent.  The ``checkpoint`` op (and the ``checkpoint_every``
  auto-trigger) saves the tree, repoints ``CURRENT`` and compacts the
  log.

On SIGINT/SIGTERM the server drains: it stops accepting connections,
answers new requests with ``draining``, waits up to
``drain_timeout_s`` for in-flight work, then closes (syncing the WAL).
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import copy
import dataclasses
import os
import signal
import threading
import time
import uuid
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Awaitable, Callable

from ..core import NWCEngine, NWCError
from ..core.engine import query_seconds
from ..index import save_tree
from ..obs.context import TraceContext
from ..obs.fleet import registry_state
from ..obs.metrics import MetricsRegistry
from ..obs.slo import SLORecorder, default_objectives
from ..obs.trace import QueryTracer, span_to_dict
from ..storage import StorageError
from ..storage.wal import crash_point
from ..sub import Subscription, SubscriptionIndex, subscription_from_record
from ..sub.runtime import evaluate_subscription, register, unregister
from . import protocol
from .cache import DEFAULT_CACHE_ENTRIES, ResultCache
from .durability import DEDUPE_ENTRIES, DurableState, apply_record
from .protocol import ProtocolError, error_response

__all__ = ["DeadlineExceeded", "LineProtocolServer", "ReadWriteScheduler",
           "Refused", "ServeConfig", "QueryServer", "ServerThread",
           "ServingThread"]


class DeadlineExceeded(Exception):
    """A request's deadline passed while it waited for the scheduler."""


class Refused(Exception):
    """A request the server declines to run: ``overloaded`` / ``draining``
    from admission control, ``shard_unavailable`` from a coordinator
    body.  Always raised, never returned — ``_handle_line`` turns it
    into the error frame and the ``serve_requests_total`` outcome."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


#: The connection a handler is serving, so ``subscribe`` can attach the
#: push target without threading it through every handler signature.
#: Task-local: each connection runs in its own asyncio task.
_CURRENT_CONN: contextvars.ContextVar["_Connection | None"] = \
    contextvars.ContextVar("repro_serve_conn", default=None)

#: Outbound frames a connection may have queued before it counts as a
#: slow consumer and is disconnected (subscriptions stay registered —
#: the client resubscribes and resumes at the current revision).
CONN_QUEUE_LIMIT = 1024


class _Connection:
    """One client connection's outbound side: frames written inline
    when nothing is ahead of them, else a FIFO frame queue drained by a
    dedicated sender task.

    Request responses and push notifications share one order on the
    wire — exactly their ``send`` order: a frame is written straight to
    the transport only when no frame is queued, the sender is not
    waiting in a drain and the transport's write buffer is empty, and
    is queued behind the others otherwise.  Because notifications are
    sent inside the exclusive write slot, a subscriber can never
    observe a notification reordered against an ack it raced with.
    ``send`` never blocks the caller: a consumer whose queue overflows
    (:data:`CONN_QUEUE_LIMIT`) is marked closed and dropped instead of
    back-pressuring the write path.
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self._transport = writer.transport
        self._queue: asyncio.Queue[dict[str, Any] | None] = \
            asyncio.Queue(maxsize=CONN_QUEUE_LIMIT)
        #: The sender has written a frame and not finished its drain.
        self._writing = False
        self.closed = False
        #: Ids of subscriptions attached to this connection.
        self.subs: set[str] = set()
        self._sender = asyncio.get_running_loop().create_task(self._drain())

    def send(self, frame: dict[str, Any]) -> bool:
        """Write or enqueue one outbound frame; ``False`` when the
        connection is closed or too far behind (the frame is then
        dropped)."""
        if self.closed:
            return False
        # A closing transport drops writes silently: such frames take
        # the queue, whose drain notices the loss and closes ``self``.
        if (not self._writing and self._queue.empty()
                and not self._transport.get_write_buffer_size()
                and not self._transport.is_closing()):
            self._writer.write(protocol.encode_line(frame))
            return True
        try:
            self._queue.put_nowait(frame)
        except asyncio.QueueFull:
            self.closed = True
            return False
        return True

    async def _drain(self) -> None:
        while True:
            frame = await self._queue.get()
            if frame is None:
                break
            self._writing = True
            try:
                self._writer.write(protocol.encode_line(frame))
                await self._writer.drain()
            except (ConnectionError, OSError):
                self.closed = True
                break
            finally:
                self._writing = False

    async def aclose(self) -> None:
        """Flush queued frames (up to a close sentinel) and close."""
        self.closed = True
        if not self._sender.done():
            try:
                self._queue.put_nowait(None)
            except asyncio.QueueFull:
                self._sender.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._sender
        with contextlib.suppress(ConnectionError, OSError):
            self._writer.close()
            with contextlib.suppress(asyncio.CancelledError):
                await self._writer.wait_closed()


@dataclass(frozen=True, slots=True)
class ServeConfig:
    """Tunables of one server instance.

    Attributes:
        host: Bind address.
        port: Bind port (0 = ephemeral; see ``QueryServer.port``).
        max_inflight: Concurrent engine operations (reader slots and
            executor threads).
        max_queue: Requests allowed to wait beyond ``max_inflight``
            before admission control answers ``overloaded``.
        deadline_s: Default per-request deadline (overridable per
            request via ``deadline_ms``).
        cache_entries: Result-cache capacity (0 disables caching).
        drain_timeout_s: Grace period for in-flight requests at
            shutdown (an idle connection is closed at once).
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 4
    max_queue: int = 64
    deadline_s: float = 10.0
    cache_entries: int = DEFAULT_CACHE_ENTRIES
    drain_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if self.max_queue < 0:
            raise ValueError("max_queue must be non-negative")
        if self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")


class ReadWriteScheduler:
    """FIFO-fair single-writer / many-reader asyncio scheduler.

    Waiters are granted strictly in arrival order: readers are admitted
    while no writer is active or queued ahead of them (up to
    ``max_readers`` at once); a writer waits for exclusive access and,
    sitting at the queue head, holds back every later arrival.  This is
    the textbook writer-preference discipline that keeps a stream of
    cheap reads from starving updates.

    ``acquire`` takes an optional absolute deadline (event-loop time);
    expiry raises :class:`DeadlineExceeded` and leaves the queue clean.
    """

    def __init__(self, max_readers: int) -> None:
        if max_readers < 1:
            raise ValueError("max_readers must be at least 1")
        self._max_readers = max_readers
        self._readers = 0
        self._writer_active = False
        self._waiters: deque[tuple[asyncio.Future, bool]] = deque()

    @property
    def active_readers(self) -> int:
        return self._readers

    @property
    def writer_active(self) -> bool:
        return self._writer_active

    @property
    def waiting(self) -> int:
        return sum(1 for fut, _ in self._waiters if not fut.done())

    def _grant(self) -> None:
        while self._waiters:
            fut, is_writer = self._waiters[0]
            if fut.done():  # cancelled or already granted; sweep it
                self._waiters.popleft()
                continue
            if is_writer:
                if not self._writer_active and self._readers == 0:
                    self._writer_active = True
                    self._waiters.popleft()
                    fut.set_result(None)
                break  # a queued writer holds back everything behind it
            if self._writer_active or self._readers >= self._max_readers:
                break
            self._readers += 1
            self._waiters.popleft()
            fut.set_result(None)

    async def acquire(self, is_writer: bool, deadline: float | None = None) -> None:
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        self._waiters.append((fut, is_writer))
        self._grant()
        if fut.done():
            return
        timeout = None if deadline is None else max(0.0, deadline - loop.time())
        try:
            await asyncio.wait_for(fut, timeout)
        except asyncio.TimeoutError:
            if fut.done() and not fut.cancelled():
                # Granted in the same tick the timeout fired: give the
                # slot back instead of leaking it.
                self.release(is_writer)
            else:
                self._grant()  # sweep our dead waiter, wake the next
            raise DeadlineExceeded from None
        except asyncio.CancelledError:
            if fut.done() and not fut.cancelled():
                self.release(is_writer)
            else:
                self._grant()
            raise

    def release(self, is_writer: bool) -> None:
        if is_writer:
            self._writer_active = False
        else:
            self._readers -= 1
        self._grant()

    @contextlib.asynccontextmanager
    async def read(self, deadline: float | None = None):
        await self.acquire(False, deadline)
        try:
            yield
        finally:
            self.release(False)

    @contextlib.asynccontextmanager
    async def write(self, deadline: float | None = None):
        await self.acquire(True, deadline)
        try:
            yield
        finally:
            self.release(True)


class LineProtocolServer:
    """Transport, dispatch and the request pipeline of every NDJSON server.

    Owns everything that is *not* about a local engine: the asyncio
    TCP listener and per-connection line loop, handler dispatch with
    error mapping and request-id echo, the FIFO read/write scheduler,
    the blocking-work executor, the request-id dedupe map, the
    auto-checkpoint trigger, the request/latency metric families — and
    the request skeleton itself (admission, deadline, slot, dedupe,
    cache, accounting), written once as three shapes: :meth:`_answer_query`
    for cached queries, :meth:`_write_op` for idempotent writes and
    :meth:`_read_op` for uncached reads (DESIGN.md "Request pipeline") —
    and the write handlers, which differ between classes only in the
    :meth:`_log`, :meth:`_apply` and :meth:`_evaluate_subscription` hooks.

    Subclasses — :class:`QueryServer` (one engine),
    :class:`~repro.shard.worker.ShardServer` (one shard) and
    :class:`~repro.shard.coordinator.ShardCoordinator` (no engine at
    all) — contribute a ``_HANDLERS`` table whose handlers parse the
    request and supply the stage body, and may extend ``_OPS`` /
    ``_OUTCOMES`` so the metric families cover their extra ops.
    """

    _OPS: tuple[str, ...] = (
        "nwc", "knwc", "insert", "delete", "snapshot", "checkpoint",
        "health", "metrics", "subscribe", "unsubscribe", "unknown",
    )
    _OUTCOMES: tuple[str, ...] = (
        "ok", "bad_request", "overloaded", "deadline_exceeded",
        "draining", "internal",
    )
    _LATENCY_OPS: tuple[str, ...] = (
        "nwc", "knwc", "insert", "delete", "snapshot", "checkpoint",
        "subscribe", "unsubscribe",
    )
    _HANDLERS: dict[str, Callable[["LineProtocolServer", dict], Awaitable[dict]]] = {}

    def __init__(self, config: ServeConfig | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        self.config = config or ServeConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.engine: NWCEngine | None = None
        self.cache: ResultCache | None = None
        #: Standing queries (recovered from the WAL on durable servers).
        self.subs = SubscriptionIndex()
        self.durable: DurableState | None = None
        self.version = 0
        self._dedupe: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._checkpoint_lock = asyncio.Lock()
        self._auto_checkpoint_task: asyncio.Task | None = None
        self._scheduler = ReadWriteScheduler(self.config.max_inflight)
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_inflight,
            thread_name_prefix="repro-serve",
        )
        self._active = 0
        self._draining = False
        self._stop_event = asyncio.Event()
        self._started = time.monotonic()
        self._server: asyncio.base_events.Server | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        # Connection tasks parked between requests (see drain).
        self._idle: set[asyncio.Task] = set()
        m = self.metrics
        self._m_requests = {
            (op, outcome): m.counter(
                "serve_requests_total", "Requests by op and outcome",
                labels={"op": op, "outcome": outcome},
            )
            for op in type(self)._OPS
            for outcome in type(self)._OUTCOMES
        }
        self._m_latency = {
            (op, source): m.histogram(
                "serve_request_seconds", "Server-side request latency",
                labels={"op": op, "source": source},
            )
            for op in type(self)._LATENCY_OPS
            for source in ("engine", "cache")
        }
        self._m_deduped = m.counter(
            "serve_deduped_total",
            "Update requests answered from the request-id dedupe map")
        self._m_checkpoints = m.counter(
            "serve_checkpoints_total", "Checkpoint-and-compact cycles")
        self._g_queue = m.gauge("serve_queue_depth",
                                "Requests waiting for an engine slot")
        self._g_inflight = m.gauge("serve_inflight",
                                   "Requests holding an engine slot")
        self._g_connections = m.gauge("serve_connections", "Open connections")
        self._g_version = m.gauge("serve_dataset_version",
                                  "Monotone dataset version")
        self._g_cache_entries = m.gauge("serve_cache_entries",
                                        "Live result-cache entries")
        self._g_sub_active = m.gauge("sub_active", "Live subscriptions")
        self._m_sub_notify = m.counter(
            "sub_notifications_total", "Subscription notifications pushed")
        self._m_sub_dropped = m.counter(
            "sub_dropped_total",
            "Notifications not delivered (detached or slow subscriber)")
        self._m_sub_reevals = m.counter(
            "sub_reevals_total", "Standing queries re-evaluated by updates")
        self._h_sub_reeval = m.histogram(
            "sub_reeval_seconds",
            "Subscription re-evaluation time per affecting update")
        self.slo = SLORecorder(
            m, default_objectives(type(self)._LATENCY_OPS))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port,
            limit=protocol.MAX_LINE_BYTES,
        )

    async def serve_forever(self, handle_signals: bool = True) -> None:
        """Run until :meth:`shutdown` (or SIGINT/SIGTERM) then drain."""
        if self._server is None:
            await self.start()
        if handle_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                with contextlib.suppress(NotImplementedError, RuntimeError):
                    loop.add_signal_handler(sig, self._stop_event.set)
        await self._stop_event.wait()
        await self.drain()

    def shutdown(self) -> None:
        """Ask :meth:`serve_forever` to drain and return (thread-safe
        only via ``loop.call_soon_threadsafe``)."""
        self._stop_event.set()

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, finish in-flight requests,
        close every connection — an idle one at once (its queued frames
        still flushed), so it never extends the wait."""
        self._draining = True
        if self._server is not None:
            self._server.close()
        for task in self._idle:
            task.cancel()
        pending = [t for t in self._conn_tasks if not t.done()]
        if pending:
            done, still = await asyncio.wait(
                pending, timeout=self.config.drain_timeout_s
            )
            for task in still:
                task.cancel()
            if still:
                await asyncio.gather(*still, return_exceptions=True)
        if self._server is not None:
            # Last: from Python 3.12.1 it waits for open connections too.
            await self._server.wait_closed()
        if self._auto_checkpoint_task is not None:
            with contextlib.suppress(asyncio.CancelledError):
                await self._auto_checkpoint_task
        self._executor.shutdown(wait=False)
        if self.durable is not None:
            self.durable.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)
        conn = _Connection(writer)
        token = _CURRENT_CONN.set(conn)
        self._g_connections.inc()
        try:
            while not self._draining:
                self._idle.add(task)
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.CancelledError):
                    break  # a cancel is the drain closing an idle connection
                except ValueError:  # line longer than the stream limit
                    conn.send(error_response("bad_request",
                                             "request too large"))
                    break
                finally:
                    self._idle.discard(task)
                if not line or conn.closed:
                    break
                response = await self._handle_line(line)
                if not conn.send(response):
                    break
        finally:
            _CURRENT_CONN.reset(token)
            self._g_connections.dec()
            self._detach_connection(conn)
            with contextlib.suppress(asyncio.CancelledError):
                await conn.aclose()

    def _detach_connection(self, conn: "_Connection") -> None:
        """Unhook a closing connection from the subscriptions attached
        to it (the subscriptions themselves stay registered — standing
        queries outlive connections)."""
        for sub_id in conn.subs:
            sub = self.subs.get(sub_id)
            if sub is not None and sub.conn is conn:
                sub.conn = None
        conn.subs.clear()

    def _push_notifications(self, changed: list[Subscription]) -> None:
        """Enqueue one ``notify`` frame per changed subscription on its
        subscriber's connection.  Called inside the exclusive write
        slot, so frames land on each connection's queue in dataset-
        version order.  Detached (or slow, see :class:`_Connection`)
        subscribers only cost a counter — the subscription stays
        current and the client resumes at the live revision when it
        resubscribes."""
        for sub in changed:
            frame = protocol.notify_frame(sub.sub_id, sub.kind,
                                          sub.revision, sub.version,
                                          sub.result)
            conn = sub.conn
            if conn is not None and conn.send(frame):
                self._m_sub_notify.inc()
            else:
                if conn is not None:  # overflowed: detach for good
                    conn.subs.discard(sub.sub_id)
                    sub.conn = None
                self._m_sub_dropped.inc()

    def _attach_subscription(self, sub: Subscription) -> None:
        """Point a subscription's push target at the connection whose
        request is being handled (re-attach steals from a previous
        connection: last subscriber wins)."""
        conn = _CURRENT_CONN.get()
        if conn is None or conn.closed:
            return
        previous = sub.conn
        if previous is not None and previous is not conn:
            previous.subs.discard(sub.sub_id)
        sub.conn = conn
        conn.subs.add(sub.sub_id)

    def _reattach_replayed(self, ack: dict[str, Any]) -> None:
        """``subscribe``'s ``on_replay``: the retry of an acked subscribe
        re-attaches the (new) connection before the ack is replayed."""
        existing = self.subs.get(ack.get("sub"))
        if existing is not None:
            self._attach_subscription(existing)

    def _resume_subscription(self, sub: Subscription) -> dict[str, Any]:
        """Resume: same standing query, new connection — the client
        reads the current answer and revision and keeps counting from
        there (continuity across both client reconnects and server
        restarts)."""
        self._attach_subscription(sub)
        return {"ok": True, "op": "subscribe", "sub": sub.sub_id,
                "kind": sub.kind, "version": self.version,
                "revision": sub.revision, "result": sub.result,
                "resumed": True}

    async def _handle_line(self, line: bytes) -> dict[str, Any]:
        try:
            payload = protocol.decode_line(line)
        except ProtocolError as exc:
            self._m_requests[("unknown", "bad_request")].inc()
            return error_response("bad_request", str(exc))
        request_id = payload.get("id")
        op = payload.get("op")
        handler = self._HANDLERS.get(op)
        if handler is None:
            self._m_requests[("unknown", "bad_request")].inc()
            return error_response("bad_request", f"unknown op {op!r}", request_id)
        start = time.perf_counter()
        try:
            response = await handler(self, payload)
            outcome = "ok" if response.get("ok") else response["error"]["code"]
        except ProtocolError as exc:
            response, outcome = error_response("bad_request", str(exc)), "bad_request"
        except Refused as exc:
            response, outcome = error_response(exc.code, str(exc)), exc.code
        except DeadlineExceeded:
            response, outcome = error_response(
                "deadline_exceeded", "deadline passed before execution"
            ), "deadline_exceeded"
        except (NWCError, StorageError, ValueError, OSError) as exc:
            response, outcome = error_response(
                "internal", f"{type(exc).__name__}: {exc}"
            ), "internal"
        self._m_requests[(op, outcome)].inc()
        self.slo.record(op, time.perf_counter() - start, error=(outcome != "ok"))
        if request_id is not None:
            response["id"] = request_id
        return response

    # ------------------------------------------------------------------
    # Admission + deadlines
    # ------------------------------------------------------------------
    def _deadline(self, payload: dict[str, Any]) -> float:
        raw = payload.get("deadline_ms")
        seconds = self.config.deadline_s
        if raw is not None:
            if not isinstance(raw, (int, float)) or isinstance(raw, bool) or raw <= 0:
                raise ProtocolError("deadline_ms must be a positive number")
            seconds = float(raw) / 1000.0
        return asyncio.get_running_loop().time() + seconds

    @contextlib.contextmanager
    def _admitted(self):
        """Admission control: one of the ``max_inflight + max_queue``
        places in the system for the duration of the block, or
        :class:`Refused` (``draining`` / ``overloaded``) when there is
        none."""
        if self._draining:
            raise Refused("draining", "server is shutting down")
        limit = self.config.max_inflight + self.config.max_queue
        if self._active >= limit:
            raise Refused(
                "overloaded",
                f"{self._active} requests in flight (limit {limit})")
        self._active += 1
        self._refresh_pressure_gauges()
        try:
            yield
        finally:
            self._active -= 1
            self._refresh_pressure_gauges()

    def _refresh_pressure_gauges(self) -> None:
        inflight = self._scheduler.active_readers + (
            1 if self._scheduler.writer_active else 0
        )
        self._g_inflight.set(inflight)
        self._g_queue.set(max(0, self._active - inflight))

    async def _run(self, fn: Callable, *args) -> Any:
        """Run blocking engine work on the executor."""
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args
        )

    # ------------------------------------------------------------------
    # Request-id dedupe (idempotent update retries)
    # ------------------------------------------------------------------
    def _deduped(self, request_id: str | None) -> dict[str, Any] | None:
        """The remembered ack of an already-applied request id, if any."""
        if request_id is None:
            return None
        stored = self._dedupe.get(request_id)
        if stored is None:
            return None
        self._dedupe.move_to_end(request_id)
        self._m_deduped.inc()
        # A copy: _handle_line stamps the connection's correlation id
        # onto the response, which must not leak into the stored ack.
        return dict(stored) | {"deduped": True}

    def _remember(self, request_id: str | None,
                  response: dict[str, Any]) -> None:
        """LRU-record an acknowledged update for idempotent retries."""
        if request_id is None:
            return
        self._dedupe[request_id] = dict(response)
        self._dedupe.move_to_end(request_id)
        while len(self._dedupe) > DEDUPE_ENTRIES:
            self._dedupe.popitem(last=False)

    def _note_durable_record(self) -> None:
        """Count one logged update towards the auto-checkpoint trigger."""
        durable = self.durable
        if durable is None:
            return
        durable.records_since_checkpoint += 1
        if (durable.config.checkpoint_every > 0
                and durable.records_since_checkpoint
                >= durable.config.checkpoint_every
                and self._auto_checkpoint_task is None
                and not self._draining):
            task = asyncio.get_running_loop().create_task(
                self._auto_checkpoint())
            self._auto_checkpoint_task = task

    async def _auto_checkpoint(self) -> None:
        try:
            await self._HANDLERS["checkpoint"](self, {})
        except (DeadlineExceeded, Refused, NWCError, StorageError,
                ValueError, OSError):
            # Leave records_since_checkpoint high; the next update
            # re-arms the trigger and retries.
            pass
        finally:
            self._auto_checkpoint_task = None

    # ------------------------------------------------------------------
    # The request pipeline (DESIGN.md "Request pipeline")
    # ------------------------------------------------------------------
    async def _answer_query(self, payload: dict[str, Any], op: str,
                            key: tuple, qx: float, qy: float, n: int,
                            evaluate: Callable) -> dict[str, Any]:
        """A cached query: trace context → admit → cache lookup →
        deadline → slot → ``evaluate`` → encode → cache fill → latency.

        ``await evaluate(deadline, ctx)`` runs inside a read slot
        (``ctx`` is the sampled trace context or ``None``; a traced
        query is an ordinary reader) and returns ``(answer,
        radii, extras)``: the serialized ``result``, the ``(insert,
        delete)`` shield radii to cache it under — ``None`` for an
        answer that must not be cached (traced, partial) — and the
        remaining response fields (``stats``, ``trace``, ``shards``…).
        A sampled trace bypasses the cache so it always shows a real
        run."""
        ctx = protocol.parse_trace(payload)
        if ctx is not None and not ctx.sampled:
            ctx = None
        start = time.perf_counter()
        with self._admitted():
            if ctx is None:
                cached = self.cache.get(key, self.version)
                self._g_cache_entries.set(len(self.cache))
                if cached is not None:
                    self._m_latency[(op, "cache")].observe(
                        time.perf_counter() - start)
                    return {"ok": True, "op": op, "version": self.version,
                            "cached": True, "result": cached}
            deadline = self._deadline(payload)
            async with self._scheduler.read(deadline):
                self._refresh_pressure_gauges()
                version = self.version  # stable while the slot is held
                answer, radii, extras = await evaluate(deadline, ctx)
            # Encoded once: this response and every later hit send the
            # stored text (see protocol.EncodedResult).
            answer = protocol.encode_result(answer)
            if radii is not None:
                self.cache.put(key, version, answer, qx, qy, n, *radii)
                self._g_cache_entries.set(len(self.cache))
            self._m_latency[(op, "engine")].observe(time.perf_counter() - start)
            return {"ok": True, "op": op, "version": version,
                    "cached": False, "result": answer, **extras}

    async def _write_op(self, payload: dict[str, Any], op: str,
                        body: Callable,
                        on_replay: Callable | None = None) -> dict[str, Any]:
        """An idempotent write: request id → admit → deadline → exclusive
        slot → dedupe → ``body`` → remember → durable-record count →
        gauges → latency → ``before_ack``.

        ``await body(deadline, request_id)`` applies the change inside
        the slot (logging it first on a durable server) and returns the
        ack; it raises :class:`Refused` rather than returning an error
        frame, so nothing refused is ever remembered.  A retried request
        id gets the stored ack back (``on_replay(ack)`` first, for side
        effects the retry still needs).  A ``resumed`` ack changed
        nothing: it is neither remembered nor counted."""
        request_id = protocol.parse_request_id(payload)
        start = time.perf_counter()
        with self._admitted():
            deadline = self._deadline(payload)
            async with self._scheduler.write(deadline):
                self._refresh_pressure_gauges()
                response = self._deduped(request_id)
                if response is not None:
                    if on_replay is not None:
                        on_replay(response)
                    return response
                response = await body(deadline, request_id)
                if response.get("resumed"):
                    return response
                self._remember(request_id, response)
                self._note_durable_record()
            self._g_version.set(self.version)
            self._g_cache_entries.set(len(self.cache))
            self._m_latency[(op, "engine")].observe(time.perf_counter() - start)
            crash_point("before_ack")
            return response

    async def _read_op(self, payload: dict[str, Any], op: str,
                       body: Callable) -> dict[str, Any]:
        """An uncached read: admit → deadline → read slot → ``body`` →
        latency.  ``await body()`` returns the response."""
        start = time.perf_counter()
        with self._admitted():
            deadline = self._deadline(payload)
            async with self._scheduler.read(deadline):
                self._refresh_pressure_gauges()
                response = await body()
            self._m_latency[(op, "engine")].observe(time.perf_counter() - start)
            return response

    # ------------------------------------------------------------------
    # Write ops, shared over hooks: _log, _apply, _evaluate_subscription
    # ------------------------------------------------------------------
    async def _log(self, record: dict[str, Any],
                   request_id: str | None) -> None:
        """Append one record to the WAL (no-op without one), stamped
        with the client's request id so recovery rebuilds the dedupe
        map."""
        if request_id is not None:
            record["req"] = request_id
        if self.durable is not None:
            await self._run(self.durable.wal.append, record)

    async def _evaluate_subscription(self, sub: Subscription,
                                     deadline: float
                                     ) -> tuple[dict[str, Any], float, float]:
        """One fresh evaluation of ``sub`` inside the write slot:
        ``(result payload, insert_radius, delete_radius)`` — the exact
        ``result`` a one-shot query op would return."""
        raise NotImplementedError

    async def _apply(self, record: dict[str, Any], deadline: float) -> tuple:
        """Apply one logged update and reconcile the standing queries:
        ``(version, ack, changed, reevals, reeval_s)``, as
        :func:`~repro.serve.durability.apply_record` returns them."""
        raise NotImplementedError

    async def _op_update(self, payload: dict[str, Any]) -> dict[str, Any]:
        """``insert`` / ``delete``: log the record, :meth:`_apply` it,
        advance version and cache, push the changed answers."""
        obj = protocol.parse_point(payload)
        op = payload["op"]

        async def body(deadline, request_id):
            # Durability contract: the record is on disk (per fsync
            # policy) before the dataset changes, and long before the
            # ack leaves the server.  A delete is logged even when it
            # turns out to be a no-op: replay recomputes the same
            # outcome, and the dedupe map must remember *every*
            # acknowledged id.
            record = {"op": op, "oid": obj.oid, "x": obj.x, "y": obj.y}
            await self._log(record, request_id)
            version, ack, changed, reevals, reeval_s = await self._apply(
                record, deadline)
            self._advance_version(record, version, ack["size"])
            if reevals:
                self._m_sub_reevals.inc(reevals)
                self._h_sub_reeval.observe(reeval_s)
            self._push_notifications(changed)
            return ack

        return await self._write_op(payload, op, body)

    def _advance_version(self, record: dict[str, Any], version: int,
                         size: int) -> None:
        """Move to dataset ``version`` after ``record``, carrying cached
        answers forward or invalidating them at the new ``size``."""
        if version == self.version:
            return
        self.version = version
        if record["op"] == "insert":
            self.cache.note_insert(record["x"], record["y"], version)
        else:
            self.cache.note_delete(record["x"], record["y"], version, size)

    async def _op_subscribe(self, payload: dict[str, Any]) -> dict[str, Any]:
        sub_id = protocol.parse_subscription_id(payload)
        kind, spec = protocol.parse_subscription(payload)

        async def body(deadline, request_id):
            existing = self.subs.get(sub_id)
            if existing is not None:
                return self._resume_subscription(existing)
            record = {"op": "subscribe",
                      "sub": sub_id or f"sub-{uuid.uuid4().hex[:16]}",
                      "kind": kind, **spec}
            # Built from the record it logs and registered by the step
            # recovery replays it with (sub.runtime.register).  Same
            # durability contract as updates: the registration is on
            # disk before the ack leaves, and the replay re-evaluates at
            # the same point in the record stream, so revisions
            # continue rather than fork.
            sub = subscription_from_record(record)
            await self._log(record, request_id)
            ack = register(self.subs, sub,
                           await self._evaluate_subscription(sub, deadline),
                           self.version)
            self._attach_subscription(sub)
            self._g_sub_active.set(len(self.subs))
            return ack

        return await self._write_op(payload, "subscribe", body,
                                    self._reattach_replayed)

    async def _op_unsubscribe(self, payload: dict[str, Any]) -> dict[str, Any]:
        sub_id = protocol.parse_subscription_id(payload, required=True)

        async def body(deadline, request_id):
            # Logged even when the id is unknown: like no-op
            # deletes, replay recomputes the same outcome and the
            # dedupe map must remember every acknowledged id.
            await self._log({"op": "unsubscribe", "sub": sub_id}, request_id)
            ack = unregister(self.subs, sub_id, self.version)
            self._g_sub_active.set(len(self.subs))
            return ack

        return await self._write_op(payload, "unsubscribe", body)

    # ------------------------------------------------------------------
    # Generic ops
    # ------------------------------------------------------------------
    async def _op_metrics(self, payload: dict[str, Any]) -> dict[str, Any]:
        scope = payload.get("scope", "local")
        if scope != "local":
            raise ProtocolError(
                f"metrics scope {scope!r} is not served here — 'fleet' "
                "requires a shard coordinator")
        self._refresh_pressure_gauges()
        self._g_version.set(self.version)
        if self.cache is not None:
            self._g_cache_entries.set(len(self.cache))
        fmt = payload.get("format", "json")
        if fmt == "prometheus":
            return {"ok": True, "op": "metrics", "format": fmt,
                    "text": self.metrics.dump_metrics()}
        if fmt == "json":
            return {"ok": True, "op": "metrics", "format": fmt,
                    "metrics": self.metrics.to_dict()}
        if fmt == "state":
            # The lossless structural form fleet aggregation merges
            # (to_dict() summarizes histograms, which cannot be merged).
            return {"ok": True, "op": "metrics", "format": fmt,
                    "state": registry_state(self.metrics)}
        raise ProtocolError(f"unknown metrics format {fmt!r}")

    def _health(self, size: int) -> dict[str, Any]:
        """The ``health`` fields every server reports."""
        return {
            "ok": True,
            "op": "health",
            "status": "draining" if self._draining else "serving",
            "version": self.version,
            "size": size,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "active": self._active,
            "max_inflight": self.config.max_inflight,
            "max_queue": self.config.max_queue,
            "cache": dataclasses.asdict(self.cache.stats())
                     | {"hit_rate": self.cache.stats().hit_rate},
            "subscriptions": len(self.subs),
        }

    @staticmethod
    def _trace_envelope(ctx: TraceContext, root, dropped: int) -> dict[str, Any]:
        """The response ``trace`` field: the recorded subtree, parented
        at the caller's span id."""
        return {
            "trace_id": ctx.trace_id,
            "parent": ctx.span_id,
            "span": span_to_dict(root) if root is not None else None,
            "dropped_spans": dropped,
        }


class QueryServer(LineProtocolServer):
    """The serving layer around one engine; see the module docstring."""

    def __init__(
        self,
        engine: NWCEngine,
        config: ServeConfig | None = None,
        metrics: MetricsRegistry | None = None,
        durable: DurableState | None = None,
    ) -> None:
        """Args:
            engine: The engine to serve.  The server takes ownership:
                nothing else may mutate the engine (or its tree) while
                the server runs.  Build it with ``metrics=None`` — the
                serve layer records its own metrics from the event-loop
                thread, which keeps recording race-free.
            config: Server tunables (defaults: :class:`ServeConfig`).
            metrics: Registry backing the ``metrics`` op; created on
                demand otherwise.
            durable: WAL-backed durable state from
                :func:`~repro.serve.durability.recover`; ``None`` serves
                purely in-memory (acks do not survive a crash).  When
                given, ``engine`` must be the engine that same
                ``recover`` call rebuilt.
        """
        super().__init__(config, metrics)
        self.engine = engine
        self.cache = ResultCache(max_entries=self.config.cache_entries,
                                 metrics=self.metrics)
        self.durable = durable
        if durable is not None:
            self.version = durable.recovery.version
            self._dedupe = durable.dedupe
        # Standing queries: recovered alongside the engine on durable
        # servers (revision continuity across kill -9), fresh otherwise.
        self.subs: SubscriptionIndex = (
            durable.subs if durable is not None else SubscriptionIndex())
        self._g_sub_active.set(len(self.subs))
        self._m_query_seconds = {kind: query_seconds(self.metrics, kind)
                                 for kind in ("nwc", "knwc")}

    # ------------------------------------------------------------------
    # Query ops
    # ------------------------------------------------------------------
    async def _op_nwc(self, payload: dict[str, Any]) -> dict[str, Any]:
        query = protocol.parse_nwc(payload)
        key = ("nwc", query.qx, query.qy, query.length, query.width,
               query.n, query.measure.value)
        return await self._answer_query(
            payload, "nwc", key, query.qx, query.qy, query.n,
            lambda deadline, ctx: self._evaluate(
                ctx, "nwc", lambda engine: engine.nwc(query),
                protocol.serialize_nwc,
                lambda result: protocol.shield_radii_nwc(query, result)))

    async def _op_knwc(self, payload: dict[str, Any]) -> dict[str, Any]:
        query, maintenance = protocol.parse_knwc(payload)
        base = query.base
        key = ("knwc", base.qx, base.qy, base.length, base.width, base.n,
               base.measure.value, query.k, query.m, maintenance)
        return await self._answer_query(
            payload, "knwc", key, base.qx, base.qy, base.n,
            lambda deadline, ctx: self._evaluate(
                ctx, "knwc",
                lambda engine: engine.knwc(query, maintenance=maintenance),
                protocol.serialize_knwc,
                lambda result: protocol.shield_radii_knwc(query, result)))

    async def _evaluate(self, ctx, kind, run, serialize, radii):
        """The ``evaluate`` stage of a local query: one engine run,
        serialized while the slot is still held."""
        result, traced = await self._run_engine(run, ctx, kind)
        return (serialize(result), None if traced else radii(result),
                {"stats": {"node_accesses": result.node_accesses}, **traced})

    async def _run_engine(self, run: Callable, ctx: TraceContext | None,
                          kind: str) -> tuple[Any, dict[str, Any]]:
        """``run(engine)`` on the executor → ``(value, response
        fields)``: no fields, or — for a sampled trace context — the
        ``trace`` envelope.  A sampled request runs on a shallow copy of
        the engine that carries its own :class:`QueryTracer`: a query
        writes nothing on the engine, so the copy reads the same
        snapshot and the request is an ordinary reader.  Observes
        ``nwc_query_seconds{kind}`` once, on the loop thread."""
        start = time.perf_counter()
        if ctx is None or not ctx.sampled:
            value, fields = await self._run(run, self.engine), {}
        else:
            engine = copy.copy(self.engine)
            engine.tracer = tracer = QueryTracer()
            value = await self._run(run, engine)
            fields = {"trace": self._trace_envelope(
                ctx, tracer.last, tracer.dropped_spans)}
        self._m_query_seconds[kind].observe(time.perf_counter() - start)
        return value, fields

    # ------------------------------------------------------------------
    # Write hooks
    # ------------------------------------------------------------------
    async def _apply(self, record, deadline):
        """:func:`~repro.serve.durability.apply_record` on the executor
        — the step recovery replays, so the ack sent here is the ack a
        restart rebuilds — then a refresh of the derived structures
        (splice the edited leaves into the flat snapshot, rebuild
        FlatIWP), so readers never trigger (or race on) a lazy
        refresh."""
        def step():
            applied = apply_record(self.engine, self.version, record,
                                   self.subs)
            self.engine._refresh_structures()
            return applied

        return await self._run(step)

    async def _evaluate_subscription(self, sub, deadline):
        """One engine run on the executor."""
        return await self._run(evaluate_subscription, self.engine, sub)

    # ------------------------------------------------------------------
    # Maintenance ops
    # ------------------------------------------------------------------
    async def _op_snapshot(self, payload: dict[str, Any]) -> dict[str, Any]:
        path = payload.get("path")
        if not isinstance(path, str) or not path:
            raise ProtocolError("snapshot needs a 'path' string")

        async def body():
            # A snapshot only reads the tree; the crash-safe save
            # (tmp+fsync+rename) runs under a shared slot.
            version = self.version
            await self._run(save_tree, self.engine.tree, path)
            return {"ok": True, "op": "snapshot", "version": version,
                    "path": path}

        return await self._read_op(payload, "snapshot", body)

    async def _op_checkpoint(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Checkpoint-then-compact: tree → ``CURRENT`` → WAL truncation.

        Phase 1 runs under a *read* slot (saving the tree only reads
        it; concurrent queries keep flowing), phase 2 under the
        exclusive write slot (repointing ``CURRENT`` and rewriting the
        WAL must not race an append).  Updates landing between the
        phases are safe: the checkpoint anchors at the sequence number
        captured in phase 1 and compaction keeps every later record.
        """
        if self.durable is None:
            raise ProtocolError(
                "checkpoint requires a durable server (start with a "
                "state directory)")
        start = time.perf_counter()
        with self._admitted():
            deadline = self._deadline(payload)
            async with self._checkpoint_lock:
                durable = self.durable
                async with self._scheduler.read(deadline):
                    self._refresh_pressure_gauges()
                    version = self.version
                    seq = durable.wal.last_seq
                    # Captured under the same slot as (seq, version):
                    # replaying records > seq over this state re-runs
                    # exactly the re-evaluations the live server ran,
                    # so revisions stay continuous.
                    subs_state = self.subs.to_state()
                    path = durable.state.checkpoint_path(seq)
                    await self._run(save_tree, self.engine.tree, path)
                crash_point("mid_checkpoint")
                name = os.path.basename(path)
                async with self._scheduler.write(deadline):
                    self._refresh_pressure_gauges()
                    await self._run(durable.state.write_current, name, seq,
                                    version, self._dedupe, subs_state)
                    dropped = await self._run(durable.wal.compact, seq,
                                              version)
                    durable.records_since_checkpoint = \
                        durable.wal.record_count
                pruned = await self._run(durable.state.prune_checkpoints,
                                         name)
            self._m_checkpoints.inc()
            self._m_latency[("checkpoint", "engine")].observe(
                time.perf_counter() - start)
            return {"ok": True, "op": "checkpoint", "version": version,
                    "seq": seq, "checkpoint": name,
                    "wal_records_dropped": dropped,
                    "checkpoints_pruned": pruned}

    async def _op_health(self, payload: dict[str, Any]) -> dict[str, Any]:
        response = self._health(self.engine.tree.size)
        durable = self.durable
        if durable is not None:
            response["durability"] = {
                "fsync": durable.config.fsync,
                "last_seq": durable.wal.last_seq,
                "wal_records": durable.wal.record_count,
                "records_since_checkpoint":
                    durable.records_since_checkpoint,
                "dedupe_entries": len(self._dedupe),
                "recovery": durable.recovery.to_dict(),
            }
        return response

    _HANDLERS: dict[str, Callable[["LineProtocolServer", dict], Awaitable[dict]]] = {
        "nwc": _op_nwc,
        "knwc": _op_knwc,
        "insert": LineProtocolServer._op_update,
        "delete": LineProtocolServer._op_update,
        "snapshot": _op_snapshot,
        "checkpoint": _op_checkpoint,
        "health": _op_health,
        "metrics": LineProtocolServer._op_metrics,
        "subscribe": LineProtocolServer._op_subscribe,
        "unsubscribe": LineProtocolServer._op_unsubscribe,
    }


class ServingThread:
    """Any :class:`LineProtocolServer` on a background thread's loop.

    The in-process harness tests and benchmarks use: ``start()`` returns
    once the socket is bound (exposing ``host``/``port``), ``stop()``
    drains and joins.  Also usable as a context manager.
    """

    def __init__(self, server: LineProtocolServer) -> None:
        self.server = server
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready: threading.Event | None = None
        self.host = self.server.config.host
        self.port: int | None = None

    def start(self) -> "ServingThread":
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self._thread = threading.Thread(
            target=self._main, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._failure is not None:
            raise self._failure
        assert self.port is not None, "server failed to start"
        return self

    def _main(self) -> None:
        async def run():
            try:
                await self.server.start()
                self.port = self.server.port
                self._loop = asyncio.get_running_loop()
            except BaseException as exc:  # surface bind errors to start()
                self._failure = exc
                self._ready.set()
                return
            self._ready.set()
            await self.server.serve_forever(handle_signals=False)

        with contextlib.suppress(asyncio.CancelledError):
            asyncio.run(run())

    def stop(self) -> None:
        if self._loop is not None and self._thread is not None:
            self._loop.call_soon_threadsafe(self.server.shutdown)
            self._thread.join(timeout=30.0)
            self._thread = None

    def __enter__(self) -> "ServingThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class ServerThread(ServingThread):
    """A :class:`QueryServer` on a background thread (see
    :class:`ServingThread`); kept as the convenience constructor the
    tests and benchmarks were written against."""

    def __init__(self, engine: NWCEngine, config: ServeConfig | None = None,
                 metrics: MetricsRegistry | None = None,
                 durable: DurableState | None = None) -> None:
        super().__init__(QueryServer(engine, config=config, metrics=metrics,
                                     durable=durable))
