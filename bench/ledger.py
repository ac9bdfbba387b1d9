"""The per-layer ledger: the traced run (``--trace 1``).

Replays one pass of a workload (what the untraced run repeats on each
fresh start) and measures every layer from outside — no edits to ``src/``:

* by timing calls into public functions on the workload's own inputs
  (``core``, ``index``, ``grid``, ``storage``, ``serve.protocol``,
  ``serve.cache``, ``sub`` index, ``shard`` merge);
* by injecting the existing :class:`~repro.obs.trace.QueryTracer` into a
  twin engine (span self times, attribution counters);
* by the public ``metrics``/``health`` ops of a server replaying the
  pass (``serve.server``, ``sub`` reconcile, ``shard`` scatter);
* by the ``trace`` envelope of the wire protocol (per-shard
  attribution, served tracing overhead).

Every workload prints every per-layer metric.  Layers a workload does
not touch itself are measured on the same inputs anyway: an in-process
workload's queries are also replayed through a plain server and a
2-shard fleet, and a workload without standing queries gets a short
subscription slice — the number then says what that layer would add to
these queries.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

import harness
import workloads
from harness import DATASET_SIZE, N, Program, mean, median, ms, us
from workloads import OID_BASE, Plan, Workload

from repro.core import NWCEngine, NWCQuery, Scheme
from repro.datasets import ca_like
from repro.geometry import PointObject, Rect
from repro.grid.density import DensityGrid, PrefixSumDensityGrid
from repro.index import FlatIWP, FlatRTree, RStarTree, save_tree
from repro.obs import NULL_TRACER, MetricsRegistry, QueryTracer
from repro.obs.context import TraceContext, new_span_id, new_trace_id
from repro.serve import protocol
from repro.serve.cache import ResultCache
from repro.serve.client import ServeClientError
from repro.shard.merge import merge_nwc
from repro.storage.wal import WriteAheadLog
from repro.sub import Subscription, SubscriptionIndex

#: Standing queries live in the ``sub`` index probe.
LIVE_SUBS = 250
#: Gap between WAL appends in the storage probe: the interval fsync
#: policy only syncs when time has passed, so back-to-back appends would
#: report 0 fsyncs.  10 ms is one closed-loop updater at ~100 updates/s.
WAL_PACE_S = 0.010
#: Fleet kNWC does not complete inside any budget today (it runs into
#: whatever deadline it is given); it is probed once, last, with a short
#: deadline so the ledger names it without paying for it.
KNWC_PROBE_DEADLINE_MS = 2000
#: Node accesses a traced replay may spend (tracing multiplies the cost
#: of each): ~16 queries at l = w = 100, ~5 at the paper's l = w = 8.
TRACED_BUDGET = 40_000


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _each(fn, items, rounds: int = 1) -> list[float]:
    """Seconds of ``fn(item)`` per call, ``rounds`` passes over items."""
    out = []
    for _ in range(rounds):
        for item in items:
            t0 = time.perf_counter()
            fn(item)
            out.append(time.perf_counter() - t0)
    return out


def _trace_wire() -> dict:
    return TraceContext(new_trace_id(), new_span_id()).to_wire()


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)


def _self_time(span) -> float:
    """A span's duration minus what its children cover."""
    return span.duration - sum(child.duration for child in span.children)


# ----------------------------------------------------------------------
# In-process probes
# ----------------------------------------------------------------------
def _family(scrape: dict, name: str) -> dict:
    return scrape.get(name, {}).get("values", {})


def _probe_index_grid(m: dict, reads: list, window: float):
    m["datasets.generate_s"] = _timed(ca_like, DATASET_SIZE)
    data = workloads.dataset()
    t0 = time.perf_counter()
    tree = RStarTree.bulk_load(data.points)
    m["index.bulk_load_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    FlatIWP(FlatRTree.from_tree(tree))
    m["index.flat_convert_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    grid = DensityGrid.build(data.points, data.extent, 25.0)
    m["grid.build_s"] = time.perf_counter() - t0
    prefix = PrefixSumDensityGrid.build(data.points, data.extent, 25.0)

    half = window / 2.0
    rects = [Rect(x - half, y - half, x + half, y + half)
             for _kind, x, y in reads]
    rounds = max(1, 200 // len(rects))
    before = tree.stats.snapshot()["node_accesses"]
    calls = _each(tree.window_query, rects, rounds)
    m["index.window_query_us_p50"] = us(median(calls))
    m["index.window_query_nodes_per_call"] = \
        (tree.stats.snapshot()["node_accesses"] - before) / len(calls)
    m["grid.upper_bound_us_p50"] = us(median(
        _each(grid.upper_bound, rects, rounds)))
    m["grid.prefix_upper_bound_us_p50"] = us(median(
        _each(prefix.upper_bound, rects, rounds)))
    return tree, grid


def _affordable(budget_accesses: float, answers: list) -> float:
    """How many of these queries ``budget_accesses`` node accesses buy.
    Probes are sized from node accesses, never from a clock, so they
    replay the same ops on every run and their counts repeat."""
    return budget_accesses / mean([a.node_accesses for a in answers])


def _sized(budget_accesses: float, answers: list, lo: int, hi: int) -> int:
    return max(lo, min(hi, int(_affordable(budget_accesses, answers))))


def _probe_core(m: dict, engine: NWCEngine, reads: list, knwc_reads: list,
                window: float) -> tuple[list, float]:
    """Twin-engine timings and traced span shares.  Returns the answers
    and the mean untraced engine seconds per NWC."""
    harness.answer(engine, reads[0], window)  # builds the flat snapshot
    answers, seconds = [], []
    for op in reads:
        t0 = time.perf_counter()
        answers.append(harness.answer(engine, op, window))
        seconds.append(time.perf_counter() - t0)
    m["core.nwc_engine_ms_p50"] = ms(median(seconds))
    engine_mean = mean(seconds)
    m["core.knwc_engine_ms_p50"] = ms(median(
        _each(lambda op: harness.answer(engine, op, window), knwc_reads)))

    sample = _sized(TRACED_BUDGET, answers, 3, 24)
    traced_s = 0.0
    self_s = dict.fromkeys(("search", "window_query", "enumerate"), 0.0)
    totals = dict.fromkeys(
        ("window_queries", "enumerate", "srr_objects_skipped",
         "dip_nodes_pruned", "dep_nodes_pruned",
         "iwp_root_descents_avoided"), 0)
    for op in reads[:sample]:
        tracer = QueryTracer(max_spans=1_000_000)
        engine.tracer = tracer
        try:
            harness.answer(engine, op, window)
        finally:
            engine.tracer = NULL_TRACER
        root = tracer.last
        traced_s += root.duration
        totals["window_queries"] += root.io.get("window_queries", 0)
        for key, value in root.total_counts().items():
            if key in totals:
                totals[key] += value
        for span in _walk(root):
            if span.name in self_s:
                self_s[span.name] += _self_time(span)
            totals["enumerate"] += span.name == "enumerate"
    traced = len(reads[:sample])
    m["core.search_share"] = self_s["search"] / traced_s
    m["core.window_query_share"] = self_s["window_query"] / traced_s
    m["core.enumerate_share"] = self_s["enumerate"] / traced_s
    m["core.window_queries_per_nwc"] = totals["window_queries"] / traced
    m["core.enumerations_per_nwc"] = totals["enumerate"] / traced
    m["core.srr_skips_per_nwc"] = totals["srr_objects_skipped"] / traced
    m["core.dip_prunes_per_nwc"] = totals["dip_nodes_pruned"] / traced
    m["core.dep_prunes_per_nwc"] = totals["dep_nodes_pruned"] / traced
    m["core.iwp_starts_per_nwc"] = \
        totals["iwp_root_descents_avoided"] / traced
    m["obs.trace_overhead_ratio"] = traced_s / sum(seconds[:sample])

    # Updates, and what the first query after one pays to refresh the
    # lazy DEP/flat structures: first call minus an identical second.
    cheapest = reads[seconds.index(min(seconds))]
    update_s, refresh_s = [], []
    for j, (_kind, x, y) in enumerate(reads[:8]):
        obj = PointObject(OID_BASE + 5_000_000 + j, x + 1.0, y + 1.0)
        for change in (engine.insert, engine.delete):
            update_s.append(_timed(change, obj))
            first = _timed(harness.answer, engine, cheapest, window)
            again = _timed(harness.answer, engine, cheapest, window)
            refresh_s.append(max(0.0, first - again))
    m["core.update_ms_p50"] = ms(median(update_s))
    m["core.refresh_after_update_ms_p50"] = ms(median(refresh_s))
    return answers, engine_mean



def _probe_storage(m: dict, tree, workdir: Path) -> None:
    registry = MetricsRegistry()
    wal = WriteAheadLog(workdir / "probe.wal", fsync="interval", create=True,
                        metrics=registry)
    appends = []
    try:
        for j in range(60):
            record = {"op": "insert", "oid": OID_BASE + j,
                      "x": 5000.0 + j, "y": 5000.0 - j}
            appends.append(_timed(wal.append, record))
            time.sleep(WAL_PACE_S)
    finally:
        wal.close()
    counters = registry.to_dict()
    m["storage.wal_append_us_p50"] = us(median(appends))
    m["storage.wal_bytes_per_update"] = \
        _family(counters, "wal_bytes_total")[""] / len(appends)
    m["storage.wal_fsyncs_per_update"] = \
        _family(counters, "wal_fsyncs_total")[""] / len(appends)
    pages = workdir / "probe.pages"
    m["storage.save_tree_s"] = _timed(save_tree, tree, pages)
    m["storage.load_flat_s"] = _timed(FlatRTree.from_page_file, pages)


def _probe_protocol_cache(m: dict, reads: list, answers: list,
                          window: float) -> tuple[float, float]:
    """Direct calls on the workload's own answers.  Returns the mean
    seconds of (protocol, cache) work one engine-answered NWC pays."""
    encode_s, decode_s, sizes = [], [], []
    payloads = []
    for result in answers:
        t0 = time.perf_counter()
        payload = protocol.serialize_nwc(result)
        line = protocol.encode_line({
            "ok": True, "op": "nwc", "version": 0, "cached": False,
            "result": payload,
            "stats": {"node_accesses": result.node_accesses}})
        encode_s.append(time.perf_counter() - t0)
        decode_s.append(_timed(protocol.decode_line, line))
        sizes.append(len(line))
        payloads.append(payload)
    m["serve.protocol.encode_us_p50"] = us(median(encode_s))
    m["serve.protocol.decode_us_p50"] = us(median(decode_s))
    m["serve.protocol.response_bytes_p50"] = median(sizes)

    cache = ResultCache()
    keys = [("nwc", x, y, window, window, N, "max", "probe")
            for _kind, x, y in reads]
    put_s, get_s = [], []
    for key, (_kind, x, y), result, payload in zip(keys, reads, answers,
                                                   payloads):
        radii = protocol.shield_radii_nwc(
            NWCQuery(x, y, window, window, N), result)
        t0 = time.perf_counter()
        cache.put(key, 0, payload, x, y, N, *radii)
        put_s.append(time.perf_counter() - t0)
    for _ in range(max(1, 200 // len(keys))):
        get_s.extend(_each(lambda key: cache.get(key, 0), keys))
    # Far-away inserts: every entry is examined and carried forward.
    note_s = [_timed(cache.note_insert, -1e6 - j, -1e6, 0)
              for j in range(30)]
    m["serve.cache.get_us_p50"] = us(median(get_s))
    m["serve.cache.put_us_p50"] = us(median(put_s))
    m["serve.cache.note_update_us_p50"] = us(median(note_s))
    return (mean(encode_s) + mean(decode_s), mean(get_s) + mean(put_s))


def _probe_sub_merge(m: dict, reads: list, answers: list,
                     window: float) -> None:
    index = SubscriptionIndex()
    add_s = []
    for i in range(LIVE_SUBS):
        (_kind, x, y), result = reads[i % len(reads)], answers[i % len(reads)]
        x += 37.0 * (i // len(reads))  # replicas sit beside the original
        query = NWCQuery(x, y, window, window, N)
        ins, dele = protocol.shield_radii_nwc(query, result)
        sub = Subscription(sub_id=f"probe-{i}", kind="nwc", spec={},
                           query=query, qx=x, qy=y, n=N,
                           insert_radius=ins, delete_radius=dele)
        add_s.append(_timed(index.add, sub))
    probe_s = _each(lambda op: index.affected_insert(op[1], op[2]), reads)
    probe_s += _each(
        lambda op: index.affected_delete(op[1], op[2], DATASET_SIZE), reads)
    m["sub.index_add_us_p50"] = us(median(add_s))
    m["sub.index_probe_us_p50"] = us(median(probe_s))

    found = [r.group for r in answers if r.found]
    pairs = [[(a, (0.0, 0.0)), (b, (1.0, 0.0))]
             for a, b in zip(found, found[1:] + found[:1])]
    m["shard.merge_us_p50"] = us(median(
        _each(merge_nwc, pairs, max(1, 200 // max(1, len(pairs))))))


# ----------------------------------------------------------------------
# Served probes
# ----------------------------------------------------------------------
class _QueuePoller(threading.Thread):
    """Scrapes ``serve_queue_depth`` ten times a second during a replay
    and keeps the maximum (the gauge itself is instantaneous)."""

    def __init__(self, program: Program) -> None:
        super().__init__(name="bench-queue-poller", daemon=True)
        self.program = program
        self.stop = threading.Event()
        self.max_depth = 0.0

    def run(self) -> None:
        with self.program.client() as client:
            while not self.stop.wait(0.1):
                try:
                    scrape = client.metrics()["metrics"]
                except (ServeClientError, OSError):
                    return
                depth = _family(scrape, "serve_queue_depth").get("", 0.0)
                self.max_depth = max(self.max_depth, depth)


def _request_summary(scrape: dict, op: str) -> dict:
    """Scraped server-side latency of engine-answered ``op`` requests."""
    return _family(scrape, "serve_request_seconds").get(
        f'{{op="{op}",source="engine"}}', {"count": 0.0})


def _update_meanms(scrape: dict) -> float | None:
    """Mean of the scraped insert and delete latencies.  (Means, not
    the scrape's percentiles: those are interpolated from bucket counts
    and read the same on every run.)"""
    parts = [_request_summary(scrape, op) for op in ("insert", "delete")]
    count = sum(p["count"] for p in parts)
    if not count:
        return None
    return ms(sum(p["sum"] for p in parts if p["count"]) / count)


def _uncached_nwc(records) -> list[float]:
    return [r.latency_s for r in records
            if r.ok and r.op[0] == "nwc" and not r.cached]


def _shifted(reads: list, count: int, by: float = 0.5) -> list:
    """The same queries a fraction of a unit to the side: same cost, but
    keys no earlier replay has put in the cache."""
    return [("nwc", x + by, y) for _kind, x, y in reads[:count]]


def _sub_metrics(m: dict, scrape: dict, updates: int) -> None:
    reevals = _family(scrape, "sub_reevals_total").get("", 0.0)
    pushed = _family(scrape, "sub_notifications_total").get("", 0.0)
    m["sub.reevals_per_update"] = reevals / updates
    m["sub.notifications_per_update"] = pushed / updates
    m["sub.useful_reeval_share"] = pushed / reevals if reevals else 0.0
    m["sub.reeval_ms_mean"] = ms(
        _family(scrape, "sub_reeval_seconds").get("", {}).get("mean", 0.0))
    m["sub.dropped"] = _family(scrape, "sub_dropped_total").get("", 0.0)


def _count_updates(records) -> int:
    return sum(r.ok and r.op[0] in ("insert", "delete") for r in records)


def _probe_served(m: dict, workload: Workload, plan: Plan, reads: list,
                  answers: list, seed: int, engine_mean: float,
                  layer_means: tuple, workdir: Path,
                  tally: list) -> list[float]:
    """Replay the pass on the workload's server (a plain one for
    in-process and fleet workloads).  Returns the single-connection
    latencies of the hop-baseline reads."""
    window = workload.window
    timeout_s = 60.0
    _boot_s, program = harness.boot("serve", workdir)
    try:
        m["serve.server.boot_s"] = program.boot_s
        with program.client() as client:
            m["serve.client.health_roundtrip_us_p50"] = us(median(
                _each(lambda _i: client.health(), range(200))))

            poller = _QueuePoller(program)
            poller.start()
            log, warm = harness.run_served(plan, program.port, window,
                                           timeout_s)
            poller.stop.set()
            poller.join()
            tally.append((log.records, len(plan.subs)
                          - len(log.subscribe_s)))
            t0 = time.perf_counter()
            scrape = client.metrics()["metrics"]
            m["obs.metrics_scrape_ms"] = ms(time.perf_counter() - t0)
            cache = client.health()["cache"]

            served = _request_summary(scrape, "nwc")
            client_mean = mean(_uncached_nwc(list(warm) + log.records))
            server_mean = served["sum"] / served["count"]
            m["serve.server.nwc_ms_mean"] = ms(server_mean)
            m["serve.server.overhead_ms_mean"] = \
                ms(server_mean - engine_mean)
            m["serve.transport_ms_mean"] = ms(client_mean - server_mean)
            m["serve.server.queue_depth_max"] = poller.max_depth
            m["serve.server.rejected"] = sum(
                value for labels, value in
                _family(scrape, "serve_requests_total").items()
                if 'outcome="overloaded"' in labels)
            lookups = cache["hits"] + cache["misses"]
            m["serve.cache.hit_share"] = \
                cache["hits"] / lookups if lookups else 0.0
            # The layers measured one by one against what the client
            # saw: what is left over is queueing, the executor hop and
            # two reader threads sharing one interpreter lock.
            explained = (engine_mean + sum(layer_means)
                         + m["serve.client.health_roundtrip_us_p50"] / 1e6)
            m["serve.ledger_residual_share"] = \
                abs(client_mean - explained) / client_mean

            # The same reads again with the trace envelope on.
            sample = _sized(TRACED_BUDGET, answers, 3, 24)
            per_conn = [[op for op in ops if op[0] == "nwc"][:sample]
                        for ops in plan.conns]
            untraced = {(r.op[1], r.op[2]): r.latency_s
                        for r in list(warm) + log.records
                        if r.ok and r.op[0] == "nwc" and not r.cached}
            traced_log, _ = harness.run_served(
                Plan(conns=per_conn), program.port, window, timeout_s,
                trace_wire=_trace_wire)
            tally.append((traced_log.records, 0))
            pairs = [(r.latency_s, untraced[(r.op[1], r.op[2])])
                     for r in traced_log.records
                     if r.ok and (r.op[1], r.op[2]) in untraced]
            m["obs.served_trace_overhead_ratio"] = \
                sum(p[0] for p in pairs) / sum(p[1] for p in pairs)

            hop_log, _ = harness.run_served(
                Plan(conns=[_shifted(reads, _sized(75_000, answers, 6, 30))]),
                program.port, window, timeout_s)
            tally.append((hop_log.records, 0))

            # Two readers at once — what no end-to-end workload does,
            # because two busy loops on the two-core reference box
            # measure its host's scheduler: the same queries through two
            # loops side by side against the single loop above.
            hops = len(hop_log.records)
            pair_log, _ = harness.run_served(
                Plan(conns=[_shifted(reads, hops, 0.25),
                            _shifted(reads, hops, 0.75)]),
                program.port, window, timeout_s)
            tally.append((pair_log.records, 0))
            m["serve.server.two_reader_slowdown"] = \
                mean([r.latency_s for r in pair_log.records if r.ok]) \
                / mean([r.latency_s for r in hop_log.records if r.ok])

            # Standing queries: the workload's own, else a short slice.
            if plan.subs:
                sub_scrape, sub_updates = scrape, _count_updates(log.records)
            else:
                # 3 nominal seconds at l = w = 100, 1 at the paper's 8.
                churn = workloads.WORKLOADS["subs_churn"].build(
                    seed, max(1.0, min(3.0, _affordable(7_500, answers))))
                sub_log, _ = harness.run_served(churn, program.port, window,
                                                timeout_s)
                tally.append((sub_log.records,
                              len(churn.subs) - len(sub_log.subscribe_s)))
                sub_scrape = client.metrics()["metrics"]
                sub_updates = _count_updates(sub_log.records)
            _sub_metrics(m, sub_scrape, max(1, sub_updates))
            update_mean = _update_meanms(scrape)
            m["serve.server.update_ms_mean"] = update_mean \
                if update_mean is not None else _update_meanms(sub_scrape)
            cache = client.health()["cache"]
            decided = cache["carried"] + cache["invalidated"]
            m["serve.cache.carried_share"] = \
                cache["carried"] / decided if decided else 0.0
    finally:
        program.stop()
    return [r.latency_s for r in hop_log.records if r.ok]


# ----------------------------------------------------------------------
# Fleet probes
# ----------------------------------------------------------------------
def _probe_fleet(m: dict, workload: Workload, plan: Plan, reads: list,
                 answers: list, single_hop: list[float], workdir: Path,
                 tally: list) -> bool:
    """Returns whether the fleet kNWC probe completed."""
    window = workload.window
    timeout_s = 60.0
    setup_s, program = harness.boot("fleet", workdir)
    try:
        m["shard.boot_s"] = program.boot_s
        m["shard.partition_s"] = setup_s - program.boot_s
        hop_log, _ = harness.run_served(
            Plan(conns=[_shifted(reads, len(single_hop))]), program.port,
            window, timeout_s)
        tally.append((hop_log.records, 0))
        fleet_hop = [r.latency_s for r in hop_log.records if r.ok]
        m["shard.hop_ms_p50"] = ms(median(fleet_hop) - median(single_hop))
        if workload.target == "fleet":
            log, _ = harness.run_served(plan, program.port, window,
                                        timeout_s)
            tally.append((log.records, 0))
        sample = _sized(TRACED_BUDGET, answers, 3, 24)
        traced_log, _ = harness.run_served(
            Plan(conns=[reads[:sample]]), program.port, window, timeout_s,
            trace_wire=_trace_wire)
        tally.append((traced_log.records, 0))
        engine_s, net_s, self_s = [], [], []
        for record in traced_log.records:
            if not record.ok:
                continue
            root = record.result["trace"]["span"]
            rpcs = [c for c in root["children"]
                    if c["name"].startswith("rpc:")]
            engine_s.extend(c["attrs"]["engine_s"] for c in rpcs)
            net_s.extend(c["attrs"]["net_s"] for c in rpcs)
            self_s.append(root["duration_s"]
                          - sum(c["attrs"]["rpc_s"] for c in rpcs))
        m["shard.engine_ms_p50"] = ms(median(engine_s))
        m["shard.net_queue_ms_p50"] = ms(median(net_s))
        m["shard.coordinator_self_ms_p50"] = ms(median(self_s))
        with program.client() as client:
            scrape = client.metrics()["metrics"]
            fanout = _family(scrape, "shard_fanout").get("", {})
            skips = _family(scrape, "shard_prune_skips_total").get("", 0.0)
            calls = fanout.get("sum", 0.0)
            m["shard.fanout_mean"] = fanout.get("mean", 0.0)
            m["shard.prune_skip_share"] = \
                skips / (skips + calls - fanout.get("count", 0.0)) \
                if skips else 0.0
            m["shard.refetches"] = sum(
                _family(scrape, "shard_refetches_total").values())
            _kind, x, y = reads[0]
            t0 = time.perf_counter()
            try:
                client.knwc(x, y, window, window, N, harness.K, harness.M,
                            deadline_ms=KNWC_PROBE_DEADLINE_MS)
                completed = True
            except (ServeClientError, OSError):
                completed = False
            m["shard.knwc_probe_s"] = time.perf_counter() - t0
    finally:
        program.stop()
    return completed


# ----------------------------------------------------------------------
def run(workload: Workload, plan: Plan, seed: int) -> dict:
    """The traced run of one workload: every per-layer metric.  ``plan``
    is one pass of what the untraced run executes."""
    window = workload.window
    seen, reads = set(), []
    for ops in list(plan.warm) + list(plan.conns):
        for op in ops:
            if op[0] == "nwc" and op not in seen:
                seen.add(op)
                reads.append(op)
    knwc_reads = [op for ops in plan.conns for op in ops
                  if op[0] == "knwc"][:2] or [("knwc", *reads[0][1:])]
    m: dict[str, float] = {}
    tally: list = []  # (records, other failures) of every replay
    with harness.workdir() as workdir:
        tree, grid = _probe_index_grid(m, reads, window)
        data = workloads.dataset()
        engine = NWCEngine(tree, Scheme.NWC_STAR) \
            if workload.target == "engine" else \
            NWCEngine(tree, Scheme.NWC_STAR, grid=grid, extent=data.extent)
        answers, engine_mean = _probe_core(m, engine, reads, knwc_reads,
                                           window)
        layer_means = _probe_protocol_cache(m, reads, answers, window)
        _probe_sub_merge(m, reads, answers, window)
        _probe_storage(m, tree, workdir)
        single_hop = _probe_served(m, workload, plan, reads, answers,
                                   seed, engine_mean, layer_means, workdir,
                                   tally)
        knwc_completed = _probe_fleet(m, workload, plan, reads, answers,
                                      single_hop, workdir, tally)
    attempted = sum(len(records) for records, _ in tally)
    failed = sum(sum(not r.ok for r in records) + other
                 for records, other in tally)
    return {
        "workload": workload.name,
        "digest": plan.digest(),
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": m,
        "detail": {"fleet_knwc_probe_completed": knwc_completed,
                   "ledger_reads": len(reads)},
    }
