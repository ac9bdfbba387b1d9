"""Scatter-gather coordinator: the sharded engine's client-facing face.

A :class:`ShardCoordinator` speaks the exact NDJSON protocol of a
single-engine :class:`~repro.serve.server.QueryServer` — same ops, same
response shapes, bit-identical ``result`` payloads — but owns no engine.
Instead it holds one :class:`ShardLink` (a pooled, retrying asyncio
connection) per shard worker and answers queries by paged scatter-
gather (see :mod:`repro.shard.merge` for the correctness argument).
Both query kinds run one loop over :class:`~repro.shard.merge.KNWCPager`
(NWC is its ``k = 1``): read each shard's candidate stream in rank
order, ask a shard for its next page (``knwc_pool``) only when the
k-way merge cannot place another group without it — the nearest shard
alone first — and stop at the ``k``-th acceptance of the greedy
selection.  A page that would complete the answer carries a
``ceiling`` one ulp above the group it would complete it with, so the
shard prunes everything that cannot beat it; shards never asked count
as prune skips (``shard_prune_skips_total``).  For NWC that is a probe
of the nearest shard, then a fan-out seeded with its answer.

Updates run the write step every server shares (``_op_update``); the
coordinator's ``_apply`` routes them by stored-band membership: every
shard whose band (owned ± halo) contains the object applies the update
through its own WAL, under the coordinator's exclusive write slot.  The
update-aware semantic cache lives here — shard workers skip caching
scatter ops — keyed on the coordinator's dataset version and
invalidated with the same shield radii as the single-engine server, so
a cache hit is bit-identical to re-scattering.

A shard that stays unreachable after retries surfaces as the typed
``shard_unavailable`` error; clients that prefer availability over
exactness may send ``"partial": true`` on queries to accept merged
results over the reachable shards (flagged ``"partial": true`` in the
response and never cached).

**Fleet subscriptions** (standing queries, see :mod:`repro.sub`) live
in the coordinator's own :class:`~repro.sub.SubscriptionIndex`:
``subscribe`` evaluates through the scatter path, and after every
applied update ``_apply`` re-gathers the subscriptions the index names
due, pushing ``notify`` frames bit-identical to re-querying at the new
fleet version.  Workers hold no subscription state.  A torn write or a
failed re-evaluation marks the index ``stale``: the next update
re-evaluates every fleet subscription (delayed, never wrong).  There is
no coordinator WAL: a coordinator restart loses fleet subscriptions.

The coordinator is also the fleet's observability hub.  A sampled
``trace`` context on a query bypasses the cache, forwards a child
context on every shard RPC, and stitches the workers' returned span
subtrees under one root whose RPC spans split wall time into engine vs
net/queue and whose I/O deltas are the key-wise **sum of the shard
subtrees** — the cross-process form of the tracer's conservation
invariant (pruned and failed shards contribute exactly zero).  And
``metrics {"scope": "fleet"}`` scatter-scrapes every worker's registry
in the lossless ``state`` form and merges them (exactly — fixed
histogram buckets) under a ``shard`` label, with a label-dropped
``rollup`` so fleet totals appear once.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import random
import time
import uuid
from collections import deque
from dataclasses import dataclass
from typing import Any

from ..core.results import KNWCResult, NWCResult
from ..obs.context import TraceContext
from ..obs.fleet import merge_fleet, registry_state, rollup
from ..obs.trace import Span, span_from_dict
from ..serve import protocol
from ..serve.backoff import BackoffPolicy
from ..serve.cache import ResultCache
from ..serve.protocol import ProtocolError
from ..serve.server import (DeadlineExceeded, LineProtocolServer, Refused,
                            ServeConfig, ServingThread)
from ..sub import Subscription, advance
from . import merge
from .partition import ShardManifest

__all__ = ["CoordinatorConfig", "ShardCallError", "ShardCoordinator",
           "ShardLink", "coordinator_thread"]


#: Read-buffer limit for coordinator→worker links.  Client request
#: lines are capped at :data:`~repro.serve.protocol.MAX_LINE_BYTES`
#: (1 MiB), but a worker's ``knwc_pool`` *response* grows with its page
#: size × ``n`` serialized objects, and page sizes double per shard.
SHARD_LINE_BYTES = 64 << 20

#: Per-attempt socket timeout of a shard call without a client deadline
#: (health fan-in, boot).
SHARD_TIMEOUT_S = 10.0


class ShardCallError(Exception):
    """A shard request failed terminally (retries exhausted or a
    non-retryable shard-side error)."""

    def __init__(self, index: int, code: str, message: str) -> None:
        super().__init__(f"shard {index}: [{code}] {message}")
        self.index = index
        self.code = code


@dataclass(frozen=True, slots=True)
class CoordinatorConfig(ServeConfig):
    """Coordinator tunables (extends the common serve tunables).

    Attributes:
        shard_attempts: Tries per shard call before the request fails
            with ``shard_unavailable`` (reconnects count; a supervisor
            restarting a worker typically lands within the backoff).
        shard_backoff_s: Initial retry backoff between shard attempts.
    """

    shard_attempts: int = 4
    shard_backoff_s: float = 0.05

    def __post_init__(self) -> None:
        # slots=True rebuilds the class, breaking zero-argument super()
        # inside dataclass methods; name the base explicitly.
        ServeConfig.__post_init__(self)
        if self.shard_attempts < 1:
            raise ValueError("shard_attempts must be at least 1")


class ShardLink:
    """Pooled NDJSON connections to one shard worker (asyncio side).

    ``call`` opens connections on demand, reuses idle ones, and retries
    transport failures (plus ``draining``/``overloaded`` shard answers)
    with jittered backoff — safe because every forwarded op is either a
    pure read or an update carrying a request id the worker's WAL
    dedupes.  Terminal failures raise :class:`ShardCallError`; a client
    deadline expiring raises :class:`DeadlineExceeded`.
    """

    def __init__(self, index: int, host: str, port: int,
                 attempts: int = 4, backoff_s: float = 0.05,
                 timeout_s: float = 10.0) -> None:
        self.index = index
        self.host = host
        self.port = port
        self.attempts = attempts
        self.timeout_s = timeout_s
        self._backoff = BackoffPolicy(initial_s=backoff_s, max_s=1.0)
        self._rng = random.Random()
        self._free: deque[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = deque()

    async def call(self, payload: dict[str, Any],
                   deadline: float | None = None) -> dict[str, Any]:
        loop = asyncio.get_running_loop()
        last_error: Exception | None = None
        for attempt in range(self.attempts):
            if attempt:
                await asyncio.sleep(self._backoff.delay(attempt - 1, self._rng))
            if deadline is not None and loop.time() >= deadline:
                raise DeadlineExceeded
            budget = (self.timeout_s if deadline is None
                      else max(0.001, deadline - loop.time()))
            conn = None
            try:
                conn = await self._acquire(budget)
                reader, writer = conn
                writer.write(protocol.encode_line(payload))
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), budget)
                if not line:
                    raise ConnectionError("connection closed by shard")
                response = protocol.decode_line(line)
            except ProtocolError as exc:
                self._discard(conn)
                last_error = exc
                continue
            except ValueError as exc:
                # readline overran SHARD_LINE_BYTES: the response is
                # deterministic, a retry would overrun again.
                self._discard(conn)
                raise ShardCallError(
                    self.index, "internal",
                    f"response exceeded {SHARD_LINE_BYTES} bytes: {exc}",
                ) from exc
            except asyncio.TimeoutError:
                if conn is not None:
                    self._discard(conn)
                if deadline is not None:
                    raise DeadlineExceeded from None
                last_error = TimeoutError(
                    f"shard call timed out after {self.timeout_s}s")
                continue
            except (ConnectionError, OSError) as exc:
                if conn is not None:
                    self._discard(conn)
                last_error = exc
                continue
            self._release(conn)
            if response.get("ok"):
                return response
            error = response.get("error") or {}
            code = error.get("code", "internal")
            message = error.get("message", "unknown shard error")
            if code in ("draining", "overloaded"):
                last_error = ShardCallError(self.index, code, message)
                continue
            raise ShardCallError(self.index, code, message)
        raise ShardCallError(self.index, "unavailable",
                             f"after {self.attempts} attempt(s): {last_error}")

    async def _acquire(self, budget: float):
        while self._free:
            reader, writer = self._free.popleft()
            if not writer.is_closing():
                return reader, writer
        return await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port,
                                    limit=SHARD_LINE_BYTES),
            budget,
        )

    def _release(self, conn) -> None:
        self._free.append(conn)

    def _discard(self, conn) -> None:
        _reader, writer = conn
        with contextlib.suppress(Exception):
            writer.close()

    def close(self) -> None:
        while self._free:
            self._discard(self._free.popleft())


#: Render order of stitched RPC spans (matches scatter staging).
_STAGE_ORDER = {"probe": 0, "fanout": 1}


class _TraceRecorder:
    """Per-request collector that stitches shard subtrees into one trace.

    The coordinator cannot use :class:`~repro.obs.trace.QueryTracer`
    here — fan-out RPCs complete concurrently under ``asyncio.gather``,
    which would violate its strict stack nesting — so RPC spans are
    built by hand: one ``rpc:<op>`` span per successful shard call,
    carrying the worker's returned subtree as its only child and the
    subtree's I/O as its own (the RPC did no I/O itself).  ``finish``
    sums the children key-wise into the root, which makes the stitched
    root obey the same conservation invariant as an in-process trace:
    root I/O deltas == sum of shard-reported result stats, with pruned
    and failed shards contributing exactly zero.
    """

    __slots__ = ("ctx", "dropped", "_entries", "_seq", "_start")

    def __init__(self, ctx: TraceContext) -> None:
        self.ctx = ctx
        self.dropped = 0
        self._entries: list[tuple[int, int, int, Span]] = []
        self._seq = 0
        self._start = time.perf_counter()

    def record(self, stage: str, shard: int, op: str, rpc_s: float,
               response: dict[str, Any]) -> None:
        """Record one successful shard RPC and graft its subtree."""
        envelope = response.get("trace") or {}
        payload = envelope.get("span")
        child = span_from_dict(payload) if payload else None
        engine_s = child.duration if child is not None else 0.0
        span = Span(f"rpc:{op}", {
            "shard": shard,
            "stage": stage,
            "rpc_s": rpc_s,
            "engine_s": engine_s,
            "net_s": max(0.0, rpc_s - engine_s),
        })
        span.duration = rpc_s
        if child is not None:
            span.io = dict(child.io)
            span.children.append(child)
        self.dropped += int(envelope.get("dropped_spans") or 0)
        self._entries.append(
            (_STAGE_ORDER.get(stage, 9), shard, self._seq, span))
        self._seq += 1

    def finish(self, name: str, attrs: dict | None = None) -> Span:
        """The stitched root: children in (stage, shard) order, I/O
        summed key-wise over every recorded RPC span."""
        root = Span(name, attrs)
        root.duration = time.perf_counter() - self._start
        children = [entry[3] for entry in sorted(
            self._entries, key=lambda entry: entry[:3])]
        io: dict[str, int] = {}
        for span in children:
            for key, value in span.io.items():
                io[key] = io.get(key, 0) + value
        root.io = io
        root.children = children
        return root


class ShardCoordinator(LineProtocolServer):
    """The serving layer over a fleet of shard workers; no local engine.

    Args:
        manifest: The partition layout the workers were built from.
        addresses: One ``(host, port)`` per shard, in shard order.
        config: Coordinator tunables.
        metrics: Registry backing the ``metrics`` op (and the fan-out /
            prune counters).
    """

    _OUTCOMES = LineProtocolServer._OUTCOMES + ("shard_unavailable",)

    def __init__(self, manifest: ShardManifest,
                 addresses: list[tuple[str, int]],
                 config: CoordinatorConfig | None = None,
                 metrics=None) -> None:
        if len(addresses) != manifest.shard_count:
            raise ValueError(
                f"need {manifest.shard_count} shard addresses, "
                f"got {len(addresses)}")
        super().__init__(config or CoordinatorConfig(), metrics)
        self.manifest = manifest
        self.cache = ResultCache(max_entries=self.config.cache_entries,
                                 metrics=self.metrics)
        self.links = [
            ShardLink(i, host, port,
                      attempts=self.config.shard_attempts,
                      backoff_s=self.config.shard_backoff_s,
                      timeout_s=SHARD_TIMEOUT_S)
            for i, (host, port) in enumerate(addresses)
        ]
        self.size = 0
        self._size_known = False
        m = self.metrics
        self._m_prune_skips = m.counter(
            "shard_prune_skips_total",
            "Shards skipped because their distance lower bound exceeded "
            "the running best")
        self._m_fanout = m.histogram(
            "shard_fanout", "Shard workers contacted per query",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0))
        self._m_partial = m.counter(
            "shard_partial_results_total",
            "Queries answered degraded (partial=true) with shards down")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Fan in shard healths (strict: every worker must answer), then
        bind the client socket.

        Booting against live workers pins the coordinator's initial
        dataset version (the sum of shard versions — monotone across
        coordinator restarts because shards recover theirs from their
        WALs) and the global logical size (the sum of *owned* sizes;
        stored sizes would double-count halo copies).
        """
        healths = await asyncio.gather(
            *(link.call({"op": "health"}) for link in self.links)
        )
        self.version = sum(h["version"] for h in healths)
        self.size = sum(h["shard"]["owned_size"] for h in healths)
        self._size_known = True
        await super().start()

    async def drain(self) -> None:
        await super().drain()
        for link in self.links:
            link.close()

    # ------------------------------------------------------------------
    # Query ops
    # ------------------------------------------------------------------
    @staticmethod
    def _check_exact(maintenance: str) -> None:
        if maintenance != "exact":
            raise ProtocolError(
                "sharded serving supports maintenance='exact' only (the "
                "'paper' policy is offer-sequence dependent and has no "
                "shard-exact replay)")

    def _check_window(self, query) -> None:
        if query.length > self.manifest.halo:
            raise ProtocolError(
                f"window length {query.length} exceeds the partition halo "
                f"{self.manifest.halo}; repartition with a larger --halo")

    @staticmethod
    def _partial_requested(payload: dict[str, Any]) -> bool:
        partial = payload.get("partial", False)
        if not isinstance(partial, bool):
            raise ProtocolError("field 'partial' must be a boolean")
        return partial

    async def _shard_call(self, recorder: _TraceRecorder | None, stage: str,
                          index: int, payload: dict[str, Any],
                          deadline: float | None) -> dict[str, Any]:
        """One shard RPC, traced when ``recorder`` is set: forwards a
        child trace context and records an ``rpc:<op>`` span splitting
        wall time into worker engine time vs net/queue remainder."""
        if recorder is None:
            return await self.links[index].call(dict(payload), deadline)
        traced = dict(payload)
        traced["trace"] = recorder.ctx.child().to_wire()
        start = time.perf_counter()
        response = await self.links[index].call(traced, deadline)
        recorder.record(stage, index, str(payload.get("op")),
                        time.perf_counter() - start, response)
        return response

    async def _fan(self, calls: dict[int, Any],
                   lost: tuple = (ShardCallError,)
                   ) -> tuple[dict[int, dict[str, Any]], dict[int, Exception]]:
        """Await ``calls`` (shard index → shard-call awaitable)
        concurrently and sort the outcomes into ``(acks, failed)``:
        responses by shard, and the ``lost`` exceptions that count as
        "this shard did not answer".  Anything else — a deadline where
        only :class:`ShardCallError` is tolerated, a bug — propagates."""
        outcomes = await asyncio.gather(*calls.values(),
                                        return_exceptions=True)
        acks: dict[int, dict[str, Any]] = {}
        failed: dict[int, Exception] = {}
        for i, outcome in zip(calls, outcomes):
            if isinstance(outcome, lost):
                failed[i] = outcome
            elif isinstance(outcome, BaseException):
                raise outcome
            else:
                acks[i] = outcome
        return acks, failed

    def _fan_all(self, frame: dict[str, Any], deadline: float | None = None,
                 lost: tuple = (ShardCallError, DeadlineExceeded)):
        """:meth:`_fan` of one frame to every shard worker."""
        return self._fan({i: link.call(dict(frame), deadline)
                          for i, link in enumerate(self.links)}, lost)

    async def _op_nwc(self, payload: dict[str, Any]) -> dict[str, Any]:
        query = protocol.parse_nwc(payload)
        key = ("nwc", query.qx, query.qy, query.length, query.width,
               query.n, query.measure.value)
        return await self._answer_fleet_query(payload, "nwc", query, query,
                                              key)

    async def _op_knwc(self, payload: dict[str, Any]) -> dict[str, Any]:
        query, maintenance = protocol.parse_knwc(payload)
        self._check_exact(maintenance)
        base = query.base
        key = ("knwc", base.qx, base.qy, base.length, base.width, base.n,
               base.measure.value, query.k, query.m, maintenance)
        return await self._answer_fleet_query(payload, "knwc", query, base,
                                              key)

    def _answer_fleet_query(self, payload, kind, query, base, key):
        """The one query handler body: scatter, then refuse or flag a
        partial answer, then stitch the trace.  (A plain ``def`` handing
        back the pipeline's awaitable: no extra coroutine per request.)"""
        self._check_window(base)
        partial_ok = self._partial_requested(payload)

        async def evaluate(deadline, ctx):
            recorder = _TraceRecorder(ctx) if ctx is not None else None
            answer, radii, accesses, meta, failed = await self._evaluate(
                kind, query, deadline, recorder)
            if failed and not partial_ok:
                raise Refused("shard_unavailable",
                              f"shard(s) {sorted(failed)} unreachable")
            extras = {"stats": {"node_accesses": accesses}, "shards": meta}
            if failed:
                # Degraded answers are flagged and never cached.
                self._m_partial.inc()
                extras["shards"] = meta | {"failed": sorted(failed)}
                extras["partial"] = True
                radii = None
            if recorder is not None:
                root = recorder.finish(f"query:{kind}", {
                    "kind": kind, "sharded": True,
                    "shards": self.manifest.shard_count,
                    "fanout": meta["fanout"], "skipped": meta["skipped"],
                })
                extras["trace"] = self._trace_envelope(
                    ctx, root, recorder.dropped)
                radii = None
            return answer, radii, extras

        return self._answer_query(payload, kind, key, base.qx, base.qy,
                                  base.n, evaluate)

    async def _evaluate(self, kind: str, query, deadline: float | None,
                        recorder: _TraceRecorder | None = None):
        """One fresh scatter-gather evaluation, shared by one-shot
        queries and fleet subscriptions: ``(answer, radii, accesses,
        meta, failed)`` — the exact ``result`` payload of the wire
        response, the ``(insert, delete)`` shield radii that guard it,
        and the scatter's bookkeeping.  ``failed`` lists unreachable
        shards; the answer is then only partial."""
        base = query if kind == "nwc" else query.base
        if base.n > self.size:
            groups, accesses, failed = (), 0, []
            meta = {"fanout": 0, "skipped": self.manifest.shard_count}
            reason = "n exceeds dataset size"
        else:
            groups, accesses, meta, failed = await self._scatter(
                kind, query, deadline, recorder)
            reason = None
        if kind == "nwc":
            result = NWCResult(group=groups[0] if groups else None,
                               reason=reason)
            answer = protocol.serialize_nwc(result)
            radii = protocol.shield_radii_nwc(query, result)
        else:
            result = KNWCResult(groups=tuple(groups), reason=reason)
            answer = protocol.serialize_knwc(result)
            radii = protocol.shield_radii_knwc(query, result)
        return answer, radii, accesses, meta, failed

    async def _scatter(self, kind, query, deadline, recorder=None):
        """One fleet query by paging through each shard's rank order
        (see :class:`~repro.shard.merge.KNWCPager`; NWC is its ``k =
        1``): ``(groups, accesses, meta, failed)``.  A lost shard's
        stream ends where it stands."""
        base = query if kind == "nwc" else query.base
        pager = merge.KNWCPager(query, [self.manifest.owned_interval(i)
                                        for i in range(len(self.links))])
        request = {"op": "knwc_pool", "x": base.qx, "y": base.qy,
                   "length": base.length, "width": base.width, "n": base.n,
                   "measure": base.measure.value}
        if kind == "knwc":
            request |= {"k": query.k, "m": query.m}
        accesses = 0
        failed: list[int] = []
        stage = "probe"
        while pages := pager.requests():
            acks, lost = await self._fan({
                i: self._shard_call(recorder, stage, i, request | {
                    "after": after, "limit": limit,
                    "ceiling": ceiling if ceiling < math.inf else None},
                    deadline)
                for i, (after, limit, ceiling) in pages.items()})
            stage = "fanout"
            for i in lost:
                failed.append(i)
                pager.lose(i)
            for i, response in acks.items():
                pool = response["pool"]
                accesses += response.get("stats", {}).get("node_accesses", 0)
                pager.feed(i, [protocol.group_from_payload(g)
                               for g in pool["groups"]],
                           [tuple(o) for o in pool["orders"]],
                           pool["exhausted"])
        contacted = sum(1 for count in pager.pages if count)
        skipped = sum(1 for i, count in enumerate(pager.pages)
                      if not count and i not in failed)
        self._m_prune_skips.inc(skipped)
        self._m_fanout.observe(contacted)
        meta = {"fanout": contacted, "skipped": skipped}
        return pager.result(), accesses, meta, failed

    # ------------------------------------------------------------------
    # Write hooks
    # ------------------------------------------------------------------
    async def _apply(self, record: dict[str, Any], deadline: float) -> tuple:
        """Forward the record to every shard storing the object, then
        re-gather the fleet subscriptions the index names.  Each frame
        carries an idempotency id — the client's when given, a
        coordinator-generated one otherwise — so the per-shard WAL
        dedupe absorbs the link layer's retries."""
        op, x, y = record["op"], record["x"], record["y"]
        insert = op == "insert"
        frame = record | {"req": record.get("req")
                          or f"coord-{uuid.uuid4().hex[:20]}"}
        targets = self.manifest.affected(x)
        acks, failed = await self._fan(
            {i: self.links[i].call(dict(frame), deadline) for i in targets},
            lost=(ShardCallError, DeadlineExceeded))
        if failed:
            # A torn write: some shards may have applied, so the version
            # advances (invalidating cached answers it could affect) and
            # the standing queries go stale before the request fails.  A
            # retry with the same request id is absorbed by the shard
            # WAL dedupe.  A deadline that passed on one target is the
            # same torn write; the client reads ``deadline_exceeded``.
            self._advance_version(record, self.version + 1, self.size)
            self.subs.stale = True
            for error in failed.values():
                if isinstance(error, DeadlineExceeded):
                    raise error
            raise Refused("shard_unavailable",
                          f"{op} reached {len(acks)}/{len(targets)} "
                          f"shard(s); {sorted(failed)} down")
        applied = insert or bool(
            acks[self.manifest.route(x)].get("deleted"))
        ack = {"ok": True, "op": op}
        if not insert:
            ack["deleted"] = applied
        version, changed, reevals = self.version, [], 0
        start = time.perf_counter()
        if applied:
            version += 1
            self.size += 1 if insert else -1
            for sub in self.subs.due(op, x, y, self.size):
                try:
                    evaluation = await self._evaluate_subscription(
                        sub, deadline)
                except (Refused, DeadlineExceeded):
                    self.subs.stale = True  # delayed, never wrong
                    continue
                reevals += 1
                if advance(self.subs, sub, version, evaluation):
                    changed.append(sub)
        ack |= {"version": version, "size": self.size,
                "shards": list(targets)}
        return version, ack, changed, reevals, time.perf_counter() - start

    # ------------------------------------------------------------------
    # Fleet subscriptions (standing queries)
    # ------------------------------------------------------------------
    async def _evaluate_subscription(self, sub: Subscription,
                                     deadline: float | None
                                     ) -> tuple[dict[str, Any], float, float]:
        """One fresh scatter-gather evaluation of a fleet subscription.
        Refuses (``shard_unavailable``) when any shard is unreachable:
        a partial answer must never be pushed as a notification.  The
        window/maintenance checks of the query ops run here too, since
        the shared ``subscribe`` handler has no coordinator parse step."""
        self._check_exact(sub.maintenance)
        self._check_window(sub.query if sub.kind == "nwc" else sub.query.base)
        answer, radii, _accesses, _meta, failed = await self._evaluate(
            sub.kind, sub.query, deadline)
        if failed:
            raise Refused("shard_unavailable",
                          f"cannot evaluate subscription: shard(s) "
                          f"{sorted(failed)} unreachable")
        return answer, *radii

    # ------------------------------------------------------------------
    # Maintenance ops
    # ------------------------------------------------------------------
    async def _op_checkpoint(self, payload: dict[str, Any]) -> dict[str, Any]:
        start = time.perf_counter()
        with self._admitted():
            acks, failed = await self._fan_all(
                {"op": "checkpoint"}, self._deadline(payload),
                lost=(ShardCallError,))
            if failed:
                i = min(failed)
                raise Refused("shard_unavailable",
                              f"checkpoint failed on shard {i}: {failed[i]}")
            self._m_checkpoints.inc()
            self._m_latency[("checkpoint", "engine")].observe(
                time.perf_counter() - start)
            return {"ok": True, "op": "checkpoint", "version": self.version,
                    "shards": [{"shard": i, "seq": ack.get("seq"),
                                "checkpoint": ack.get("checkpoint")}
                               for i, ack in acks.items()]}

    async def _op_metrics(self, payload: dict[str, Any]) -> dict[str, Any]:
        scope = payload.get("scope", "local")
        if scope == "local":
            return await super()._op_metrics(payload)
        if scope != "fleet":
            raise ProtocolError(f"unknown metrics scope {scope!r}")
        fmt = payload.get("format", "json")
        if fmt not in ("json", "prometheus", "state"):
            raise ProtocolError(f"unknown metrics format {fmt!r}")
        self._refresh_pressure_gauges()
        self._g_version.set(self.version)
        if self.cache is not None:
            self._g_cache_entries.set(len(self.cache))
        acks, failed = await self._fan_all(
            {"op": "metrics", "format": "state"})
        scrapes: list[tuple[dict[str, str], dict]] = [
            ({"shard": "coordinator"}, registry_state(self.metrics)),
        ]
        scrapes.extend(({"shard": str(i)}, ack["state"])
                       for i, ack in acks.items())
        merged = merge_fleet(scrapes)
        response = {"ok": True, "op": "metrics", "scope": "fleet",
                    "format": fmt, "shards_scraped": len(acks),
                    "unreachable": sorted(failed)}
        if fmt == "prometheus":
            return response | {"text": merged.dump_metrics()}
        if fmt == "state":
            return response | {"state": registry_state(merged)}
        # JSON ships both views: the shard-labelled merge for per-shard
        # drill-down and the label-dropped rollup where each fleet-wide
        # counter appears exactly once.
        return response | {"metrics": merged.to_dict(),
                           "rollup": rollup(merged).to_dict()}

    async def _op_health(self, payload: dict[str, Any]) -> dict[str, Any]:
        acks, failed = await self._fan_all({"op": "health"})
        shards = [{"shard": i, "status": "unreachable"} if i in failed else {
            "shard": i,
            "status": acks[i].get("status"),
            "version": acks[i].get("version"),
            "size": acks[i].get("size"),
            "owned_size": acks[i].get("shard", {}).get("owned_size"),
            "wal_lag": acks[i].get("durability", {}).get(
                "records_since_checkpoint"),
        } for i in range(len(self.links))]
        return self._health(self.size) | {"shards": shards}

    _HANDLERS = {
        "nwc": _op_nwc,
        "knwc": _op_knwc,
        "insert": LineProtocolServer._op_update,
        "delete": LineProtocolServer._op_update,
        "subscribe": LineProtocolServer._op_subscribe,
        "unsubscribe": LineProtocolServer._op_unsubscribe,
        "checkpoint": _op_checkpoint,
        "health": _op_health,
        "metrics": _op_metrics,
    }


def coordinator_thread(manifest: ShardManifest,
                       addresses: list[tuple[str, int]],
                       config: CoordinatorConfig | None = None,
                       metrics=None) -> ServingThread:
    """A :class:`ShardCoordinator` on a background thread (the
    in-process harness tests and benchmarks use)."""
    return ServingThread(ShardCoordinator(manifest, addresses,
                                          config=config, metrics=metrics))
