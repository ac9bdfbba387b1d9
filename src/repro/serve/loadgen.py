"""Closed-loop multi-worker load generator for the query server.

Each worker owns one connection and one RNG and loops: draw an
operation from the configured mix, send it, wait for the answer, record
the latency.  Query locations come from the same distributions the
experiment harness uses (:mod:`repro.workloads`), drawn from a finite
per-worker pool so repeated queries exercise the server's result cache.

**Verification** (``verify_engine``): worker 0 wraps a twin engine,
built exactly like the server's, in a :class:`repro.check.Twin` and is
the only worker that issues updates.  Because the client is
closed-loop, worker 0's view of the dataset is sequentially consistent
with the server's: the twin applies every update the server
acknowledges and checks every one of worker 0's answers (cache hits
too, which is where an unsound invalidation rule would show).  Other
workers stay read-only in this mode so the twin never drifts.  A shard
coordinator answers as one engine over the whole dataset does, so the
same twin verifies a fleet.

**Subscriptions** (``subscriptions`` > 0): worker 0 registers that many
standing queries over a dedicated streaming connection before driving
load, and drains the server's pushed ``notify`` frames between its
closed-loop requests.  With ``verify_subs`` (requires the twin) the
twin checks every ack and frame, and at the end that the frames were
exactly the answer changes.  A broken frame rule is ``sub_spurious``, an
undelivered change ``sub_missed``; both count as mismatches.  The
rules themselves are stated once, in :mod:`repro.check`.

The report carries client-side throughput and latency percentiles
(exact, from the raw samples) split by cache hit/miss, and optionally
feeds a :class:`~repro.obs.metrics.MetricsRegistry` for uniform export
alongside the server's own metrics.
"""

from __future__ import annotations

import dataclasses
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from .. import check
from ..core import KNWCQuery, NWCEngine, NWCQuery
from ..datasets import Dataset
from ..geometry import PointObject
from ..obs.metrics import MetricsRegistry
from ..workloads import data_biased_query_points
from .client import (
    RetryPolicy,
    ServeClient,
    ServeClientError,
    wait_until_healthy,
)

__all__ = ["LoadMix", "LoadgenConfig", "LoadReport", "run_loadgen"]

#: Object ids the load generator inserts start here, far above any
#: dataset oid, so generated updates never collide with seed objects.
LOADGEN_OID_BASE = 10_000_000


@dataclass(frozen=True, slots=True)
class LoadMix:
    """Relative operation weights (normalized internally)."""

    nwc: float = 0.70
    knwc: float = 0.15
    insert: float = 0.10
    delete: float = 0.05

    def __post_init__(self) -> None:
        if min(self.nwc, self.knwc, self.insert, self.delete) < 0:
            raise ValueError("mix weights must be non-negative")
        if self.nwc + self.knwc + self.insert + self.delete <= 0:
            raise ValueError("mix weights must not all be zero")


@dataclass(frozen=True, slots=True)
class LoadgenConfig:
    """One load-generator run.

    Attributes:
        host, port: Server address.
        workers: Concurrent closed-loop clients.
        duration_s: Run length; ignored when ``requests_per_worker``
            is set.
        requests_per_worker: Fixed request count per worker (exact,
            deterministic runs for tests/CI).
        mix: Operation mix.  Updates are always issued by worker 0
            only, so a verification twin can replay them.
        query_pool: Distinct query locations per worker; smaller pools
            repeat more and hit the cache more.
        length, width, n, k, m: Query parameters.
        seed: Base RNG seed (worker ``i`` uses ``seed + i``).
        deadline_ms: Optional per-request deadline passed to the server.
        connect_timeout_s: How long to wait for the server to answer
            ``health`` before starting.
        retry: Client retry policy; with one attached, workers ride out
            server crashes/restarts (reconnect + idempotent resend) and
            the report counts ``retries``/``reconnects`` instead of
            ``connection_lost`` errors.
    """

    host: str = "127.0.0.1"
    port: int = 7654
    workers: int = 4
    duration_s: float = 2.0
    requests_per_worker: int | None = None
    mix: LoadMix = field(default_factory=LoadMix)
    query_pool: int = 32
    length: float = 100.0
    width: float = 100.0
    n: int = 8
    k: int = 4
    m: int = 1
    seed: int = 0
    deadline_ms: float | None = None
    connect_timeout_s: float = 15.0
    retry: RetryPolicy | None = None
    subscriptions: int = 0
    verify_subs: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.subscriptions < 0:
            raise ValueError("subscriptions must be non-negative")
        if self.requests_per_worker is None and self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.query_pool < 1:
            raise ValueError("query_pool must be at least 1")


def _percentiles(samples: list[float]) -> dict[str, float]:
    """Exact p50/p95/p99 (nearest-rank) of raw latency samples, in ms."""
    if not samples:
        return {"p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0, "mean_ms": 0.0}
    ordered = sorted(samples)
    def rank(q: float) -> float:
        index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[index] * 1000.0
    return {
        "p50_ms": round(rank(0.50), 4),
        "p95_ms": round(rank(0.95), 4),
        "p99_ms": round(rank(0.99), 4),
        "mean_ms": round(sum(ordered) / len(ordered) * 1000.0, 4),
    }


@dataclass(slots=True)
class LoadReport:
    """Outcome of one load-generator run."""

    workers: int
    wall_s: float
    requests: int
    qps: float
    by_op: dict[str, int]
    errors: int
    error_codes: dict[str, int]
    retries: int
    reconnects: int
    latency: dict[str, float]
    latency_cache_hit: dict[str, float]
    latency_cache_miss: dict[str, float]
    cache_hits: int
    cache_misses: int
    updates_applied: int
    verified: int
    mismatches: int
    mismatch_examples: list[dict[str, Any]]
    #: Server-side ``shard_*`` metric families (scatter fan-out, prune
    #: skips, partial answers), scraped after the run when the target is a
    #: shard coordinator; empty against a single-engine server.
    shard_metrics: dict[str, Any] = field(default_factory=dict)
    #: Fleet-scope scrape summary (coordinator targets only): shard
    #: count scraped, unreachable shards, and the label-dropped rollup
    #: of merged families — so cross-process counters like
    #: ``shard_prune_skips_total`` are reported once, coherently,
    #: instead of per-process fragments.
    fleet: dict[str, Any] = field(default_factory=dict)
    #: Standing queries registered by worker 0 (``config.subscriptions``).
    subscriptions: int = 0
    #: ``notify`` frames received over the streaming connection.
    notifications: int = 0
    #: Answer changes the twin saw that no frame delivered; counted into
    #: ``mismatches`` too.
    sub_missed: int = 0
    #: Frames that broke a frame rule of :mod:`repro.check`; counted
    #: into ``mismatches`` too.
    sub_spurious: int = 0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def to_dict(self) -> dict[str, Any]:
        out = dataclasses.asdict(self)
        out["cache_hit_rate"] = round(self.cache_hit_rate, 4)
        return out

    def format(self) -> str:
        """Human-readable summary table."""
        lines = [
            f"workers: {self.workers}   wall: {self.wall_s:.2f}s   "
            f"requests: {self.requests}   throughput: {self.qps:.1f} req/s",
            f"ops: {self.by_op}   errors: {self.errors} {self.error_codes}",
            f"retries: {self.retries}   reconnects: {self.reconnects}",
            f"latency (all): {self.latency}",
            f"latency (cache hit):  {self.latency_cache_hit}",
            f"latency (cache miss): {self.latency_cache_miss}",
            f"cache: {self.cache_hits} hits / {self.cache_misses} misses "
            f"(hit rate {self.cache_hit_rate:.2%})",
            f"updates applied: {self.updates_applied}",
        ]
        if self.verified or self.mismatches:
            lines.append(
                f"verified: {self.verified} responses, "
                f"{self.mismatches} mismatches"
            )
        if self.shard_metrics:
            parts = []
            for name, family in sorted(self.shard_metrics.items()):
                for labels, value in family.get("values", {}).items():
                    if isinstance(value, dict):  # histogram summary
                        value = (f"n={value.get('count', 0)} "
                                 f"mean={value.get('mean', 0.0):.2f}")
                    tag = f"{name}{{{labels}}}" if labels else name
                    parts.append(f"{tag}={value}")
            lines.append("shards: " + "  ".join(parts))
        if self.fleet:
            lines.append(
                f"fleet: {self.fleet.get('shards_scraped', 0)} shards "
                f"scraped, unreachable: {self.fleet.get('unreachable', [])}")
        if self.subscriptions:
            lines.append(
                f"subscriptions: {self.subscriptions} registered, "
                f"{self.notifications} notifications, "
                f"{self.sub_missed} missed, {self.sub_spurious} spurious")
        return "\n".join(lines)


class _Worker:
    """One closed-loop client; worker 0 optionally verifies."""

    def __init__(self, index: int, config: LoadgenConfig, dataset: Dataset,
                 twin: check.Twin | None, stop_at: float | None) -> None:
        self.index = index
        self.config = config
        self.rng = random.Random(config.seed * 7919 + index)
        # Jitter scaled to the query window so locations stay in-extent
        # for any dataset size (the helper's default is tuned to the
        # paper's 10,000-unit space).
        self._jitter = max(config.length, config.width)
        points = data_biased_query_points(
            dataset, config.query_pool, seed=config.seed + index,
            jitter=self._jitter,
        )
        self.query_points = points
        self.twin = twin
        self.stop_at = stop_at
        self.samples: list[tuple[str, bool, float]] = []  # (op, cached, s)
        self.by_op: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.updates = 0
        self.inserted: list[PointObject] = []
        self._next_oid = LOADGEN_OID_BASE + index * 1_000_000
        self.failure: Exception | None = None
        self.retries = 0
        self.reconnects = 0
        # Standing-query state (worker 0 only, see _setup_subscriptions)
        self.subs_registered = 0
        self.notifications = 0
        self._sub_client: ServeClient | None = None
        self._sub_stream = None
        self._sub_ids: list[str] = []
        # Undelivered changes the drain stopped waiting for.
        self._given_up = 0

    # Only worker 0 may update, so a single verification twin can
    # replay the sequence of acknowledged updates deterministically.
    @property
    def may_update(self) -> bool:
        return self.index == 0

    def _pick_op(self) -> str:
        mix = self.config.mix
        weights = [mix.nwc, mix.knwc]
        ops = ["nwc", "knwc"]
        if self.may_update:
            ops += ["insert", "delete"]
            weights += [mix.insert, mix.delete]
        return self.rng.choices(ops, weights=weights)[0]

    def run(self) -> None:
        try:
            with ServeClient(self.config.host, self.config.port,
                             retry=self.config.retry,
                             seed=self.config.seed * 104729 + self.index,
                             ) as client:
                try:
                    if self.may_update and self.config.subscriptions:
                        self._setup_subscriptions()
                    count = 0
                    while True:
                        if self.config.requests_per_worker is not None:
                            if count >= self.config.requests_per_worker:
                                break
                        elif time.monotonic() >= self.stop_at:
                            break
                        self._one_request(client)
                        count += 1
                    self._teardown_subscriptions(client)
                finally:
                    self.retries = client.retries
                    self.reconnects = client.reconnects
                    if self._sub_client is not None:
                        self._sub_client.close()
        except Exception as exc:  # surfaced by run_loadgen
            self.failure = exc

    def _one_request(self, client: ServeClient) -> None:
        op = self._pick_op()
        if op == "delete" and not self.inserted:
            op = "insert"  # nothing of ours to delete yet
        self.by_op[op] = self.by_op.get(op, 0) + 1
        start = time.perf_counter()
        try:
            response = getattr(self, "_op_" + op)(client)
        except ServeClientError as exc:
            self.errors[exc.code] = self.errors.get(exc.code, 0) + 1
            return
        elapsed = time.perf_counter() - start
        cached = bool(response.get("cached")) if op in ("nwc", "knwc") else False
        self.samples.append((op, cached, elapsed))

    # -- operations ----------------------------------------------------
    def _op_nwc(self, client: ServeClient) -> dict[str, Any]:
        x, y = self.rng.choice(self.query_points)
        c = self.config
        response = client.nwc(x, y, c.length, c.width, c.n,
                              deadline_ms=c.deadline_ms)
        if self.twin is not None:
            self.twin.check_answer(NWCQuery(x, y, c.length, c.width, c.n),
                                   response)
        return response

    def _op_knwc(self, client: ServeClient) -> dict[str, Any]:
        x, y = self.rng.choice(self.query_points)
        c = self.config
        response = client.knwc(x, y, c.length, c.width, c.n, c.k, c.m,
                               deadline_ms=c.deadline_ms)
        if self.twin is not None:
            self.twin.check_answer(
                KNWCQuery.make(x, y, c.length, c.width, c.n, c.k, c.m),
                response)
        return response

    def _op_insert(self, client: ServeClient) -> dict[str, Any]:
        x, y = self.rng.choice(self.query_points)
        # Jitter off the query pool so inserts land near (but not on)
        # hot regions — the interesting case for cache invalidation.
        obj = PointObject(self._next_oid,
                          x + self.rng.uniform(-self._jitter, self._jitter),
                          y + self.rng.uniform(-self._jitter, self._jitter))
        self._next_oid += 1
        response = client.insert(obj.oid, obj.x, obj.y,
                                 deadline_ms=self.config.deadline_ms)
        self.inserted.append(obj)
        self._after_update("insert", obj, response)
        return response

    def _op_delete(self, client: ServeClient) -> dict[str, Any]:
        obj = self.inserted.pop(self.rng.randrange(len(self.inserted)))
        response = client.delete(obj.oid, obj.x, obj.y,
                                 deadline_ms=self.config.deadline_ms)
        self._after_update("delete", obj, response)
        return response

    def _after_update(self, op: str, obj: PointObject,
                      ack: dict[str, Any]) -> None:
        """Replay an acknowledged update on the twin, then drain the
        notifications it made due."""
        self.updates += 1
        if self.twin is not None:
            self.twin.check_update(op, obj, ack)
        if self._sub_stream is not None:
            self._drain_notifications(grace_s=5.0)

    # -- standing queries ----------------------------------------------
    def _setup_subscriptions(self) -> None:
        """Register the standing queries on a dedicated streaming
        connection.  Runs before the first update (worker 0 is the only
        updater and is registering, other workers are read-only), so no
        notify frame can interleave with the subscribe acks."""
        c = self.config
        self._sub_client = ServeClient(c.host, c.port,
                                       timeout_s=c.connect_timeout_s)
        for i in range(c.subscriptions):
            x, y = self.query_points[i % len(self.query_points)]
            knwc = i % 4 == 3  # every fourth standing query is a kNWC
            stream = self._sub_client.subscribe(
                x, y, c.length, c.width, c.n, k=c.k if knwc else None,
                m=c.m)
            if c.verify_subs:
                query = (KNWCQuery.make(x, y, c.length, c.width, c.n, c.k,
                                        c.m) if knwc
                         else NWCQuery(x, y, c.length, c.width, c.n))
                self.twin.check_subscribe(query, stream.ack)
            if self._sub_stream is None:
                self._sub_stream = stream
            self._sub_ids.append(stream.sub_id)
        self.subs_registered = len(self._sub_ids)

    def _drain_notifications(self, grace_s: float) -> None:
        """Consume pushed frames; block up to ``grace_s`` only while the
        twin still expects changes.  Changes still undelivered when the
        grace window closes are given up on, so later updates do not
        stall on them again; the end-of-run delivery check counts
        them."""
        verify = self.config.verify_subs
        deadline = time.monotonic() + grace_s
        while True:
            owed = verify and self.twin.pending() > self._given_up
            timeout = 0.01 if not owed else min(
                0.25, max(0.01, deadline - time.monotonic()))
            try:
                frame = self._sub_stream.poll(timeout_s=timeout)
            except ServeClientError:
                return  # stream gone; teardown accounts for leftovers
            if frame is None:
                if not owed:
                    return
                if time.monotonic() >= deadline:
                    self._given_up = self.twin.pending()
                    return
                continue
            self.notifications += 1
            if verify:
                self.twin.check_frame(frame)

    def _teardown_subscriptions(self, client: ServeClient) -> None:
        if self._sub_client is None:
            return
        self._given_up = 0
        self._drain_notifications(grace_s=5.0)
        if self.config.verify_subs:
            self.twin.check_delivery(exact=True)
        for sub_id in self._sub_ids:
            try:
                client.unsubscribe(sub_id)
            except ServeClientError:
                break  # server gone; nothing left to clean up


def run_loadgen(
    config: LoadgenConfig,
    dataset: Dataset,
    verify_engine: NWCEngine | None = None,
    metrics: MetricsRegistry | None = None,
) -> LoadReport:
    """Drive the server with ``config.workers`` closed-loop clients.

    Args:
        config: Run shape; see :class:`LoadgenConfig`.
        dataset: Source of query locations (must match the dataset the
            server was started with for meaningful results).
        verify_engine: Twin engine for worker-0 verification; must be
            built identically to the server's engine (same points,
            scheme, execution mode).  ``None`` disables verification
            and keeps every worker read-write-mixed per the mix.
        metrics: Optional registry to fold client-side latencies into
            (``loadgen_request_seconds{op, source}``).

    Returns:
        The aggregated :class:`LoadReport`.
    """
    if config.verify_subs and verify_engine is None:
        raise ValueError("verify_subs requires a verify_engine twin")
    wait_until_healthy(config.host, config.port,
                       timeout_s=config.connect_timeout_s)
    stop_at = None
    if config.requests_per_worker is None:
        stop_at = time.monotonic() + config.duration_s
    # Without an engine the twin checks nothing and its counts read 0.
    twin = check.Twin(verify_engine)
    workers = [
        _Worker(i, config, dataset,
                twin=twin if i == 0 and verify_engine is not None else None,
                stop_at=stop_at)
        for i in range(config.workers)
    ]
    threads = [
        threading.Thread(target=w.run, name=f"loadgen-{w.index}", daemon=True)
        for w in workers
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    for worker in workers:
        if worker.failure is not None:
            raise worker.failure

    samples = [s for w in workers for s in w.samples]
    if metrics is not None:
        hists: dict[tuple[str, str], Any] = {}
        for op, cached, elapsed in samples:
            source = "cache" if cached else "engine"
            hist = hists.get((op, source))
            if hist is None:
                hist = metrics.histogram(
                    "loadgen_request_seconds",
                    "Client-observed request latency",
                    labels={"op": op, "source": source},
                )
                hists[(op, source)] = hist
            hist.observe(elapsed)

    by_op: dict[str, int] = {}
    errors: dict[str, int] = {}
    for worker in workers:
        for op, count in worker.by_op.items():
            by_op[op] = by_op.get(op, 0) + count
        for code, count in worker.errors.items():
            errors[code] = errors.get(code, 0) + count
    query_samples = [s for s in samples if s[0] in ("nwc", "knwc")]
    hit = [s[2] for s in query_samples if s[1]]
    miss = [s[2] for s in query_samples if not s[1]]
    shard_metrics: dict[str, Any] = {}
    fleet: dict[str, Any] = {}
    try:
        with ServeClient(config.host, config.port) as probe:
            families = probe.metrics().get("metrics", {})
            shard_metrics = {name: family
                             for name, family in families.items()
                             if name.startswith("shard_")}
            if shard_metrics:
                # Coordinator target: also take the merged fleet view so
                # cross-process counters appear once, not per-fragment.
                merged = probe.metrics(scope="fleet")
                fleet = {
                    "shards_scraped": merged.get("shards_scraped", 0),
                    "unreachable": merged.get("unreachable", []),
                    "rollup": merged.get("rollup", {}),
                }
    except (ServeClientError, OSError):
        pass  # server already gone; the report stands without the scrape
    return LoadReport(
        workers=config.workers,
        wall_s=round(wall, 4),
        requests=len(samples),
        qps=round(len(samples) / wall, 2) if wall > 0 else 0.0,
        by_op=by_op,
        errors=sum(errors.values()),
        error_codes=errors,
        retries=sum(w.retries for w in workers),
        reconnects=sum(w.reconnects for w in workers),
        latency=_percentiles([s[2] for s in samples]),
        latency_cache_hit=_percentiles(hit),
        latency_cache_miss=_percentiles(miss),
        cache_hits=len(hit),
        cache_misses=len(miss),
        updates_applied=sum(w.updates for w in workers),
        verified=twin.checked,
        mismatches=twin.mismatches,
        mismatch_examples=twin.examples,
        shard_metrics=shard_metrics,
        fleet=fleet,
        subscriptions=sum(w.subs_registered for w in workers),
        notifications=sum(w.notifications for w in workers),
        sub_missed=twin.missed,
        sub_spurious=twin.spurious,
    )
