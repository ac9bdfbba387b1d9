#!/usr/bin/env python
"""Measure the execution modes and write ``BENCH_nwc.json``.

Runs a dense-uniform workload — scalar vs columnar single queries —
plus the serving A/B guards, and records the timings, speedups and
environment in a JSON report at the repo root (untracked; ``bench/``
holds the numbers of record).

    PYTHONPATH=src python scripts/bench_report.py [--card 50000] [--repeats 3]
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import statistics
import sys
import tempfile
import time
import types
from datetime import datetime, timezone

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.core import NWCEngine, NWCQuery, Scheme
from repro.obs import MetricsRegistry, QueryTracer
from repro.datasets import uniform
from repro.geometry import Rect
from repro.index import FlatRTree, RStarTree, load_tree, save_tree
from repro.storage import DEFAULT_PAGE_SIZE, FORMAT_VERSION, LEGACY_VERSION
from repro.workloads import DEFAULT_N, DEFAULT_WINDOW, data_biased_query_points

DENSITY = 5.0  # objects per unit area; keeps the per-window load fixed


def build_workload(card: int, queries: int):
    side = math.sqrt(card / DENSITY)
    dataset = uniform(
        card, seed=20260806, extent=Rect(0.0, 0.0, side, side),
        name=f"Uniform-dense({card})",
    )
    tree = RStarTree.bulk_load(dataset.points, max_entries=50)
    qs = [
        NWCQuery(x, y, DEFAULT_WINDOW, DEFAULT_WINDOW, DEFAULT_N)
        for x, y in data_biased_query_points(dataset, queries, seed=1)
    ]
    return tree, qs


def best_of(repeats: int, fn, *args):
    times = []
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn(*args)
        times.append(time.perf_counter() - t0)
    return min(times), value


def _result_fingerprint(results) -> list:
    """Exact (not rounded) answer identity: distances bitwise, group
    membership and order, per-query."""
    return [(r.found, r.distance,
             tuple(p.oid for p in r.objects) if r.found else ())
            for r in results]


def time_modes(tree, queries, repeats: int) -> dict:
    timings = {}
    checks = {}
    for mode in ("python", "columnar"):
        engine = NWCEngine(tree, Scheme.NWC_STAR, execution=mode)
        elapsed, results = best_of(
            repeats, lambda e=engine: [e.nwc(q) for q in queries]
        )
        timings[mode] = elapsed
        checks[mode] = _result_fingerprint(results)
    identical = checks["python"] == checks["columnar"]

    # The columnar mode must also answer identically from a snapshot of
    # the page file, bound to the tree loaded from the same file.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tree.pages")
        save_tree(tree, path)
        t0 = time.perf_counter()
        flat = FlatRTree.from_page_file(path)
        mmap_load_s = time.perf_counter() - t0
        engine = NWCEngine(load_tree(path), Scheme.NWC_STAR,
                           execution="columnar", flat=flat)
        mmap_identical = (_result_fingerprint([engine.nwc(q) for q in queries])
                          == checks["python"])
    t0 = time.perf_counter()
    FlatRTree.from_tree(tree)
    convert_s = time.perf_counter() - t0

    return {
        "single_query_s": {
            "python": round(timings["python"], 4),
            "columnar": round(timings["columnar"], 4),
        },
        "queries": len(queries),
        "found": sum(found for found, _, _ in checks["python"]),
        "columnar": {
            "single_query_s": round(timings["columnar"], 4),
            "speedup_vs_python": round(
                timings["python"] / timings["columnar"], 2),
            "identical_results": identical,
            "mmap_identical_results": mmap_identical,
            "mmap_load_s": round(mmap_load_s, 4),
            "convert_s": round(convert_s, 4),
        },
    }


#: Accepted load-time cost of the checksummed format over the seed
#: format: at most +5% (see DESIGN.md "Robustness").
LOAD_OVERHEAD_BUDGET_PCT = 5.0


def time_storage_formats(tree, repeats: int) -> dict:
    """Save/load cost of the checksummed v2 format vs the v1 seed format.

    The two formats' repeats are interleaved (v1, v2, v1, v2, ...) so a
    load spike on the machine hits both sides instead of biasing the
    ratio; each side reports its best repeat.
    """
    formats = (("v1_seed", LEGACY_VERSION), ("v2_checksummed", FORMAT_VERSION))
    repeats = max(repeats, 5)
    saves = {label: [] for label, _ in formats}
    loads = {label: [] for label, _ in formats}
    timings = {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {label: os.path.join(tmp, f"tree_{label}.db")
                 for label, _ in formats}
        for _ in range(repeats):
            for label, version in formats:
                t0 = time.perf_counter()
                save_tree(tree, paths[label], DEFAULT_PAGE_SIZE, version)
                saves[label].append(time.perf_counter() - t0)
            for label, _ in formats:
                t0 = time.perf_counter()
                loaded = load_tree(paths[label])
                loads[label].append(time.perf_counter() - t0)
                assert loaded.size == tree.size, "reloaded tree lost objects"
        for label, _ in formats:
            timings[label] = {
                "save_s": round(min(saves[label]), 4),
                "load_s": round(min(loads[label]), 4),
                "file_bytes": os.path.getsize(paths[label]),
            }
    overhead = 100.0 * (
        timings["v2_checksummed"]["load_s"] / timings["v1_seed"]["load_s"] - 1.0
    )
    timings["load_overhead_pct"] = round(overhead, 2)
    timings["load_overhead_budget_pct"] = LOAD_OVERHEAD_BUDGET_PCT
    timings["within_budget"] = overhead <= LOAD_OVERHEAD_BUDGET_PCT
    return timings


#: Accepted wall-clock cost of the *disabled* observability hooks on the
#: query path: at most +2% (see DESIGN.md "Observability").
TRACING_OVERHEAD_BUDGET_PCT = 2.0


def _baseline_observed_search(self, kind, q, policy, stats, prune_windows,
                              region=None, anchor_region=None, **extra_attrs):
    """``_observed_search`` with the observability dispatch bypassed.

    ``_observed_search`` is the single seam the obs subsystem added to
    the hot path; calling ``_search`` directly reproduces the
    pre-observability call shape in-process, so the A/B needs no second
    source checkout.
    """
    self._search(q, policy, stats, prune_windows, region, anchor_region)


def time_tracing_overhead(tree, queries, repeats: int) -> dict:
    """Cost of the observability hooks on the default query path.

    One engine, three configurations of the *same instance*:

    * ``baseline`` — ``_observed_search`` shadowed by an instance-bound
      :func:`_baseline_observed_search` (dispatch layer removed);
    * ``disabled`` — the stock path with no tracer and no registry
      (what every un-instrumented query pays);
    * ``enabled`` — a live :class:`QueryTracer` plus
      :class:`MetricsRegistry` (informational; tracing is opt-in).

    The guarded number is ``disabled_overhead_pct`` (disabled vs
    baseline, ≤2% budget) and it is **always computed** — the guard can
    pass or fail, never silently not run.  Resolving a 2% budget by
    wall clock on a busy single-core box took four defenses, each
    removing a noise source bigger than the signal:

    * *same instance*, not a baseline subclass: two engines place
      their attributes at different heap addresses and the resulting
      cache-locality spread alone is a few percent;
    * *paired rounds* in alternating order with the GC off, so drift
      and collection pauses hit both sides of a ratio;
    * *median of ~41 short ratios*: one ratio still scatters by ±6%,
      the median of 41 lands within one-to-two percent;
    * the gate tests the *95% confidence lower bound* of that median
      (sign-test order statistics), not the point estimate: the guard
      trips only when the data establishes a breach, so residual
      ±2% medians on a loaded box pass while a real dispatch-layer
      regression — several percent with a tight CI — still fails.
    """
    engine = NWCEngine(tree, Scheme.NWC_STAR)

    def run(passes):
        for _ in range(passes):
            for q in queries:
                engine.nwc(q)

    run(1)  # builds the grid and flat snapshot
    t0 = time.perf_counter()
    run(1)
    pass_s = time.perf_counter() - t0
    # ~0.4 s per timed side: short enough that a scheduler interruption
    # rarely lands inside a round, long enough to swamp timer overhead.
    passes = max(1, min(8, round(0.4 / max(pass_s, 1e-9))))
    rounds = max(repeats, 41)
    ratios = []
    base_times = []
    off_times = []
    gc.collect()
    gc.disable()
    try:
        for i in range(rounds):
            times = {}
            for side in (("base", "off") if i % 2 == 0 else ("off", "base")):
                if side == "base":
                    engine._observed_search = types.MethodType(
                        _baseline_observed_search, engine)
                t0 = time.perf_counter()
                run(passes)
                times[side] = time.perf_counter() - t0
                if side == "base":
                    del engine._observed_search
            ratios.append(times["off"] / times["base"])
            base_times.append(times["base"])
            off_times.append(times["off"])
    finally:
        gc.enable()
    overhead = 100.0 * (statistics.median(ratios) - 1.0)
    # Sign-test CI for the median: the k-th order statistic with
    # k = (n-1)/2 - 1.96*sqrt(n)/2 bounds the median from below at
    # ~97.5% one-sided confidence.
    ordered = sorted(ratios)
    k = max(0, math.floor((len(ordered) - 1) / 2.0
                          - 1.96 * math.sqrt(len(ordered)) / 2.0))
    overhead_lower = 100.0 * (ordered[k] - 1.0)
    engine_on = NWCEngine(
        tree, Scheme.NWC_STAR,
        tracer=QueryTracer(max_spans=100_000), metrics=MetricsRegistry(),
        grid=engine.grid, iwp=engine.iwp,
        flat=engine._flat, flat_iwp=engine._flat_iwp,
    )

    def run_on(passes):
        for _ in range(passes):
            for q in queries:
                engine_on.nwc(q)

    on_t, _ = best_of(repeats, run_on, passes)
    off_best = min(off_times) / passes  # per single pass of the workload
    return {
        "baseline_s": round(statistics.median(base_times) / passes, 4),
        "disabled_s": round(statistics.median(off_times) / passes, 4),
        "enabled_s": round(on_t / passes, 4),
        "enabled_overhead_pct": round(100.0 * (on_t / passes / off_best - 1.0), 2),
        "disabled_overhead_pct": round(overhead, 2),
        "disabled_overhead_ci_lower_pct": round(overhead_lower, 2),
        "disabled_overhead_budget_pct": TRACING_OVERHEAD_BUDGET_PCT,
        "within_budget": overhead_lower <= TRACING_OVERHEAD_BUDGET_PCT,
    }


def time_serving(duration_s: float, workers: int = 4) -> dict:
    """Served throughput/latency under a mixed read/update load.

    Boots a :class:`ServerThread` on an ephemeral port over a fresh
    uniform dataset, drives it with ``workers`` closed-loop clients
    (mixed NWC/kNWC queries plus worker-0 updates) and reports sustained
    qps, latency percentiles, and the cache hit/miss latency split.
    Worker 0 also replays every operation on a twin engine, so the run
    doubles as an online bit-identity check.
    """
    from repro.serve import LoadgenConfig, ServeConfig, ServerThread, run_loadgen

    # The paper-extent uniform dataset (not the dense kernel workload):
    # a 300-unit window holds ~2n objects, putting per-query work in the
    # tens of milliseconds — the regime where concurrency and caching,
    # not raw kernel time, dominate.
    card = 15_000
    dataset = uniform(card, seed=20260806)

    def build_engine():
        tree = RStarTree.bulk_load(dataset.points, max_entries=50)
        return NWCEngine(tree, Scheme.NWC_STAR)

    with ServerThread(build_engine(),
                      ServeConfig(port=0, max_inflight=workers)) as thread:
        config = LoadgenConfig(
            port=thread.port, workers=workers, duration_s=duration_s,
            query_pool=16, length=300.0, width=300.0,
            n=DEFAULT_N, k=4, m=1, seed=17,
        )
        report = run_loadgen(config, dataset, verify_engine=build_engine())
    hit = report.latency_cache_hit
    miss = report.latency_cache_miss
    return {
        "workers": workers,
        "duration_s": round(report.wall_s, 2),
        "requests": report.requests,
        "sustained_qps": report.qps,
        "latency_ms": report.latency,
        "cache_hit_latency_ms": hit,
        "cache_miss_latency_ms": miss,
        "cache_hit_rate": round(report.cache_hit_rate, 3),
        "cache_hit_faster": (report.cache_hits > 0
                             and hit["p50_ms"] < miss["p50_ms"]),
        "updates_applied": report.updates_applied,
        "verified_responses": report.verified,
        "mismatches": report.mismatches,
        "errors": report.errors,
    }


def time_durability(duration_s: float, workers: int = 4,
                    repeats: int = 3) -> dict:
    """WAL overhead: update throughput with and without durability.

    Runs the same update-heavy closed-loop load against three server
    configurations over identical fresh engines — no WAL, WAL with
    ``fsync=interval`` (the default), WAL with ``fsync=always`` — and
    reports the throughput cost of each policy. Closed-loop qps on a
    shared machine drifts minute to minute — more than the effect being
    measured — so each round runs the three policies back to back and
    the overhead is the median across rounds of the *within-round*
    ratio to the no-WAL baseline (drift cancels in the pair; absolute
    qps is still reported as best-of-rounds). The ``interval`` policy
    is gated to stay within 10% of the WAL-less server; ``always`` pays
    one fsync per update and is reported without a gate (it is the
    price of power-loss durability, not a regression).
    """
    from repro.serve import (
        DurabilityConfig,
        LoadgenConfig,
        ServeConfig,
        ServerThread,
        recover,
    )
    from repro.serve.loadgen import LoadMix, run_loadgen

    card = 15_000
    dataset = uniform(card, seed=20260809)

    def build_engine(tree=None):
        if tree is None:
            tree = RStarTree.bulk_load(dataset.points, max_entries=50)
        return NWCEngine(tree, Scheme.NWC_STAR)

    mix = LoadMix(nwc=0.05, knwc=0.0, insert=0.70, delete=0.25)

    def one_run(fsync: str | None, measured_s: float) -> tuple[float, int]:
        if fsync is None:
            engine, durable = build_engine(), None
            state_ctx = None
        else:
            state_ctx = tempfile.TemporaryDirectory(prefix=f"wal-{fsync}-")
            engine, durable = recover(
                DurabilityConfig(state_dir=state_ctx.name, fsync=fsync),
                build_engine)
        try:
            with ServerThread(engine,
                              ServeConfig(port=0, max_inflight=workers),
                              durable=durable) as thread:
                report = run_loadgen(
                    LoadgenConfig(port=thread.port, workers=workers,
                                  duration_s=measured_s, query_pool=16,
                                  length=300.0, width=300.0, n=DEFAULT_N,
                                  seed=23, mix=mix),
                    dataset)
        finally:
            if state_ctx is not None:
                state_ctx.cleanup()
        return report.qps, report.errors

    one_run(None, min(1.0, duration_s))  # discarded cold-start warmup
    best = {"no_wal": 0.0, "interval": 0.0, "always": 0.0}
    ratios: dict[str, list[float]] = {"interval": [], "always": []}
    errors = 0
    for _ in range(repeats):
        round_qps = {}
        for label, fsync in (("no_wal", None), ("interval", "interval"),
                             ("always", "always")):
            qps, run_errors = one_run(fsync, duration_s)
            round_qps[label] = qps
            best[label] = max(best[label], qps)
            errors += run_errors
        for label in ratios:
            ratios[label].append(round_qps[label] / round_qps["no_wal"])

    def overhead(label: str) -> float:
        return round(100.0 * (1.0 - statistics.median(ratios[label])), 1)

    return {
        "workers": workers,
        "duration_s_per_run": duration_s,
        "repeats": repeats,
        "mix": "70% insert / 25% delete / 5% nwc",
        "no_wal_qps": round(best["no_wal"], 1),
        "interval_qps": round(best["interval"], 1),
        "always_qps": round(best["always"], 1),
        "interval_overhead_pct": overhead("interval"),
        "always_overhead_pct": overhead("always"),
        "interval_within_budget": (
            statistics.median(ratios["interval"]) >= 0.9),
        "errors": errors,
    }


#: Required per-update speedup of shield-bucketed subscription
#: maintenance over the re-evaluate-everything baseline at 10k live
#: standing queries.
SUB_SPEEDUP_FLOOR = 5.0


def time_subscriptions(live_subs: int = 10_000, updates: int = 40,
                       naive_updates: int = 2) -> dict:
    """Standing-query maintenance: shield-radius bucketing vs naive.

    Registers ``live_subs`` standing NWC queries over the wire on a
    dedicated connection that is then closed — subscriptions outlive
    their push target, and notifications for detached subscribers are
    dropped, so the measured update cost is maintenance alone.  The
    same server then absorbs two seeded insert bursts: one with the
    shield-bucketed :class:`SubscriptionIndex` and one with the index
    degraded to the re-evaluate-everything baseline (``naive=True``,
    the same answers, no pruning).  The gate is the per-update
    speedup: bucketing must beat naive by ``SUB_SPEEDUP_FLOOR``×
    or the incremental machinery is not paying for itself.

    The workload is shaped by the shield geometry, not taste.  Windows
    must comfortably hold more than ``n`` objects — a not-found
    standing query has an unbounded insert shield (any insert anywhere
    can create its first cluster) and legitimately re-evaluates on
    every insert, which would measure the dataset, not the index.  And
    the shield radius is ``d + 2·window-diagonal``, so the exactly-
    affected fraction per update is ``π·r²/extent-area`` — at fixed
    per-window density that fraction shrinks only with cardinality.
    16k objects with a 20×15 window puts it under 1%, which is what
    makes 10k live standing queries affordable per update at all.
    """
    from repro.serve import ServeClient, ServeConfig, ServerThread

    card = 16_000
    length, width, n_max = 20.0, 15.0, 2
    # ~2*n_max objects per window: found answers, finite shields.
    side = math.sqrt(card * length * width / (2.0 * n_max))
    dataset = uniform(card, seed=20260808, extent=Rect(0.0, 0.0, side, side))
    engine = NWCEngine(RStarTree.bulk_load(dataset.points, max_entries=50),
                       Scheme.NWC_STAR)
    rng = random.Random(5)
    with ServerThread(engine, ServeConfig(port=0)) as thread:
        t0 = time.perf_counter()
        with ServeClient(port=thread.port) as registrar:
            for i in range(live_subs):
                registrar.subscribe(
                    rng.uniform(width, side - width),
                    rng.uniform(width, side - width),
                    length, width, rng.randint(2, n_max),
                    sub=f"bench-{i}")
        register_s = time.perf_counter() - t0
        server = thread.server
        assert len(server.subs) == live_subs

        def burst(count: int, oid_base: int) -> tuple[float, float]:
            before = server._m_sub_reevals.value
            # A naive update re-evaluates every live standing query
            # before acking; that is the measured cost, not a timeout.
            with ServeClient(port=thread.port, timeout_s=600.0) as upd:
                t0 = time.perf_counter()
                for step in range(count):
                    upd.insert(oid_base + step, rng.uniform(0.0, side),
                               rng.uniform(0.0, side))
                elapsed = time.perf_counter() - t0
            return (elapsed / count,
                    (server._m_sub_reevals.value - before) / count)

        incremental_s, incremental_reevals = burst(updates, 80_000_000)
        server.subs.naive = True
        try:
            naive_s, naive_reevals = burst(naive_updates, 81_000_000)
        finally:
            server.subs.naive = False
        dropped = server._m_sub_dropped.value
    speedup = naive_s / incremental_s
    return {
        "live_subs": live_subs,
        "register_s": round(register_s, 2),
        "register_per_s": round(live_subs / register_s, 1),
        "updates": updates,
        "naive_updates": naive_updates,
        "incremental_update_ms": round(incremental_s * 1e3, 3),
        "naive_update_ms": round(naive_s * 1e3, 3),
        "reevals_per_update": round(incremental_reevals, 1),
        "naive_reevals_per_update": round(naive_reevals, 1),
        "notifications_dropped": int(dropped),
        "speedup_vs_naive": round(speedup, 1),
        "speedup_floor": SUB_SPEEDUP_FLOOR,
        "speedup_ok": speedup >= SUB_SPEEDUP_FLOOR,
    }


#: Required sustained-qps ratio of a 4-shard fleet over a 1-shard fleet.
#: Only gated on boxes with at least 4 cores — shard workers are real
#: processes, so the scaling win needs real cores; elsewhere the section
#: still runs and gates merge identity.
SHARD_SPEEDUP_FLOOR = 1.5
SHARD_FLEET_SIZES = (1, 4)


def time_sharding(duration_s: float, workers: int = 4) -> dict:
    """Sharded scatter-gather serving: identity everywhere, scaling on
    multi-core.

    For each fleet size, partitions a fresh dataset into per-shard page
    files, boots real ``repro shard-worker`` subprocesses on free
    ports, fronts them with an in-process coordinator, and drives the
    same mixed closed loop as the serving section.  Worker 0 replays
    every response on a star engine over the whole dataset — a fleet
    answers as one engine does — so every fleet size is gated on
    bit-identical merges.  The workload is denser than the serving
    section's (a 300-unit window holds ~2n objects at 4k cards); kNWC
    is rare in the mix.
    """
    import shutil
    import socket
    import subprocess

    from repro.serve import LoadgenConfig
    from repro.serve.client import wait_until_healthy
    from repro.serve.loadgen import LoadMix, run_loadgen
    from repro.shard import (
        CoordinatorConfig,
        coordinator_thread,
        partition_dataset,
    )

    card = 4_000
    window = 300.0
    side = math.sqrt(card * window * window / (2.0 * DEFAULT_N))
    dataset = uniform(card, seed=20260806, extent=Rect(0.0, 0.0, side, side))
    mix = LoadMix(nwc=0.60, knwc=0.10, insert=0.18, delete=0.12)
    env = {**os.environ,
           "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src")}

    def make_twin():
        return NWCEngine(RStarTree.bulk_load(dataset.points, max_entries=50),
                         Scheme.NWC_STAR)

    fleets: dict[int, dict] = {}
    for shards in SHARD_FLEET_SIZES:
        tmp = tempfile.mkdtemp(prefix=f"bench-shards-{shards}-")
        procs: list = []
        coordinator = None
        try:
            manifest = partition_dataset(dataset.points, shards, window,
                                         tmp, dataset.extent)
            addresses = []
            for index in range(shards):
                with socket.socket() as sock:
                    sock.bind(("127.0.0.1", 0))
                    port = sock.getsockname()[1]
                procs.append(subprocess.Popen(
                    [sys.executable, "-m", "repro", "shard-worker",
                     "--dir", tmp, "--index", str(index),
                     "--host", "127.0.0.1", "--port", str(port),
                     "--max-inflight", str(workers),
                     "--deadline", "60"],
                    env=env, stderr=subprocess.DEVNULL))
                addresses.append(("127.0.0.1", port))
            for host, port in addresses:
                wait_until_healthy(host, port, timeout_s=60.0)
            # The deadline covers the worst case of every closed-loop
            # client issuing a kNWC at once on an oversubscribed box.
            coordinator = coordinator_thread(
                manifest, addresses,
                config=CoordinatorConfig(max_inflight=workers,
                                         deadline_s=60.0)).start()
            wait_until_healthy(coordinator.host, coordinator.port,
                               timeout_s=60.0, shards=shards)
            report = run_loadgen(
                LoadgenConfig(port=coordinator.port, workers=workers,
                              duration_s=duration_s, query_pool=16,
                              length=window, width=window, n=DEFAULT_N,
                              k=4, m=1, seed=17, mix=mix),
                dataset, verify_engine=make_twin())
            fleets[shards] = {
                "shards": shards,
                "requests": report.requests,
                "sustained_qps": report.qps,
                "latency_ms": report.latency,
                "verified_responses": report.verified,
                "mismatches": report.mismatches,
                "errors": report.errors,
                "shard_metrics": report.shard_metrics,
            }
        finally:
            if coordinator is not None:
                coordinator.stop()
            for proc in procs:
                proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=5)
            shutil.rmtree(tmp, ignore_errors=True)

    lone, wide = (fleets[s] for s in SHARD_FLEET_SIZES)
    speedup = wide["sustained_qps"] / max(lone["sustained_qps"], 1e-9)
    multicore = (os.cpu_count() or 1) >= SHARD_FLEET_SIZES[-1]
    identity_ok = all(
        fleet["mismatches"] == 0 and fleet["errors"] == 0
        and fleet["verified_responses"] > 0
        for fleet in fleets.values()
    )
    return {
        "workers": workers,
        "duration_s_per_fleet": duration_s,
        "dataset": f"uniform, {card} objects, ~{2 * DEFAULT_N} per window",
        "fleets": {str(s): fleets[s] for s in SHARD_FLEET_SIZES},
        "speedup_4_vs_1": round(speedup, 2),
        "speedup_floor": SHARD_SPEEDUP_FLOOR,
        "multicore": multicore,
        "speedup_ok": speedup > SHARD_SPEEDUP_FLOOR if multicore else True,
        "identity_ok": identity_ok,
    }


def _baseline_observe_request(self, op, outcome, seconds):
    """``_observe_request`` minus the SLO accounting (pre-obs shape)."""
    self._m_requests[(op, outcome)].inc()


def _baseline_trace_context(self, payload):
    """``_trace_context`` with the trace-envelope parse removed."""
    return None


def time_coordinator_obs(repeats: int) -> dict:
    """Cost of the fleet-observability hooks on the sharded serve path.

    The tentpole added two seams to every coordinator request —
    ``_trace_context`` (parse the optional trace envelope) and
    ``_observe_request`` (SLO accounting on top of the outcome
    counter) — and untraced requests must not pay for tracing they did
    not ask for.  Same discipline as :func:`time_tracing_overhead`:
    one in-process single-shard fleet, the *same coordinator instance*
    A/B'd by shadowing both seams with their pre-obs shapes
    (``types.MethodType``), paired alternating rounds with the GC off,
    and the ≤2% budget gated on the sign-test 95% lower bound of the
    median ratio.  Requests are untraced cache hits batched inside the
    server loop, so the per-request cost is the protocol dispatch the
    seams sit on, not TCP or thread-handoff noise.
    """
    import asyncio
    import shutil

    from repro.serve import protocol as serve_protocol
    from repro.serve.server import ServingThread
    from repro.shard import (
        CoordinatorConfig,
        build_shard_server,
        coordinator_thread,
        partition_dataset,
    )

    card = 1_000
    side = math.sqrt(card / DENSITY)
    dataset = uniform(card, seed=20260806, extent=Rect(0.0, 0.0, side, side))
    tmp = tempfile.mkdtemp(prefix="bench-coord-obs-")
    worker = None
    coordinator = None
    try:
        manifest = partition_dataset(dataset.points, 1, DEFAULT_WINDOW, tmp,
                                     dataset.extent)
        worker = ServingThread(build_shard_server(manifest, tmp, 0)).start()
        coordinator = coordinator_thread(
            manifest, [(worker.host, worker.port)],
            config=CoordinatorConfig()).start()
        server = coordinator.server
        loop = coordinator._loop
        x, y = side / 2.0, side / 2.0
        line = serve_protocol.encode_line(
            {"op": "nwc", "x": x, "y": y, "length": DEFAULT_WINDOW,
             "width": DEFAULT_WINDOW, "n": DEFAULT_N})

        async def batch(count):
            for _ in range(count):
                response = await server._handle_line(line)
                assert response["ok"], response

        def run(count):
            asyncio.run_coroutine_threadsafe(batch(count), loop).result()

        run(2)  # prime the coordinator cache; all timed requests hit
        t0 = time.perf_counter()
        run(50)
        per_request = (time.perf_counter() - t0) / 50
        # ~0.1 s per timed side (see time_tracing_overhead for why).
        count = max(100, min(10_000, round(0.1 / max(per_request, 1e-9))))
        rounds = max(repeats, 41)
        ratios = []
        base_times = []
        off_times = []
        gc.collect()
        gc.disable()
        try:
            for i in range(rounds):
                times = {}
                for mode in (("base", "off") if i % 2 == 0
                             else ("off", "base")):
                    if mode == "base":
                        server._observe_request = types.MethodType(
                            _baseline_observe_request, server)
                        server._trace_context = types.MethodType(
                            _baseline_trace_context, server)
                    t0 = time.perf_counter()
                    run(count)
                    times[mode] = time.perf_counter() - t0
                    if mode == "base":
                        del server._observe_request
                        del server._trace_context
                ratios.append(times["off"] / times["base"])
                base_times.append(times["base"])
                off_times.append(times["off"])
        finally:
            gc.enable()
    finally:
        if coordinator is not None:
            coordinator.stop()
        if worker is not None:
            worker.stop()
        shutil.rmtree(tmp, ignore_errors=True)
    overhead = 100.0 * (statistics.median(ratios) - 1.0)
    ordered = sorted(ratios)
    k = max(0, math.floor((len(ordered) - 1) / 2.0
                          - 1.96 * math.sqrt(len(ordered)) / 2.0))
    overhead_lower = 100.0 * (ordered[k] - 1.0)
    return {
        "requests_per_round": count,
        "baseline_us_per_request": round(
            statistics.median(base_times) / count * 1e6, 2),
        "disabled_us_per_request": round(
            statistics.median(off_times) / count * 1e6, 2),
        "disabled_overhead_pct": round(overhead, 2),
        "disabled_overhead_ci_lower_pct": round(overhead_lower, 2),
        "disabled_overhead_budget_pct": TRACING_OVERHEAD_BUDGET_PCT,
        "within_budget": overhead_lower <= TRACING_OVERHEAD_BUDGET_PCT,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--card", type=int, default=50_000)
    parser.add_argument("--queries", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(__file__), "..", "BENCH_nwc.json"),
    )
    parser.add_argument(
        "--serve-duration", type=float, default=3.0,
        help="length of the serving load-test section in seconds",
    )
    parser.add_argument(
        "--live-subs", type=int, default=10_000,
        help="standing queries held live in the subscriptions section",
    )
    args = parser.parse_args(argv)

    tree, queries = build_workload(args.card, args.queries)
    modes = time_modes(tree, queries, args.repeats)
    report = {
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": {
            "dataset": f"uniform, {args.card} objects, density {DENSITY}/unit^2",
            "scheme": Scheme.NWC_STAR.value,
            "window": [DEFAULT_WINDOW, DEFAULT_WINDOW],
            "n": DEFAULT_N,
            "repeats": args.repeats,
            "timing": "best of repeats",
        },
        "nwc_execution_modes": modes,
        "columnar": modes.pop("columnar"),
        "storage_formats": time_storage_formats(tree, args.repeats),
        "tracing_overhead": time_tracing_overhead(tree, queries, args.repeats),
        "coordinator_obs": time_coordinator_obs(args.repeats),
        "serving": time_serving(args.serve_duration),
        "durability": time_durability(args.serve_duration),
        "subscriptions": time_subscriptions(args.live_subs),
        "sharding": time_sharding(args.serve_duration),
    }
    out = os.path.abspath(args.output)
    with open(out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {out}", file=sys.stderr)
    ok = report["storage_formats"]["within_budget"]
    columnar = report["columnar"]
    ok = ok and columnar["identical_results"]
    ok = ok and columnar["mmap_identical_results"]
    # The A/B guards always run now; a null here is itself a failure.
    ok = ok and report["tracing_overhead"]["within_budget"] is True
    ok = ok and report["coordinator_obs"]["within_budget"] is True
    serving = report["serving"]
    ok = ok and serving["mismatches"] == 0 and serving["errors"] == 0
    ok = ok and serving["cache_hit_faster"]
    durability = report["durability"]
    ok = ok and durability["interval_within_budget"]
    ok = ok and durability["errors"] == 0
    ok = ok and report["subscriptions"]["speedup_ok"]
    sharding = report["sharding"]
    ok = ok and sharding["identity_ok"] and sharding["speedup_ok"]
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
