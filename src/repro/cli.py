"""Command-line interface: ``python -m repro`` / ``nwc-repro``.

Subcommands:

* ``experiment <id>`` — run one of the Section 5 experiments (``fig9``
  .. ``fig14``, ``table2``, ``table3``, ``storage``, ``costmodel``) and
  print the paper-style table; ``--csv`` also writes the raw rows and
  ``--metrics`` writes aggregate sweep metrics (JSON, or Prometheus
  text for a ``.prom`` path).
* ``query`` — answer a single NWC/kNWC query against a generated
  dataset (handy for exploration).
* ``trace`` — run one query with the tracer attached and pretty-print
  its span tree; ``--explain`` summarizes which optimizations fired,
  ``--jsonl`` appends the structured trace to a sink file.  With
  ``--port`` the query goes to a running server instead: the client
  sends a trace context and renders the returned span tree — against a
  shard coordinator that is one stitched cross-process trace with
  per-shard RPC attribution.
* ``serve`` — expose an engine over TCP (newline-delimited JSON) with
  the update-aware result cache and admission control; ``--state-dir``
  adds write-ahead logging with checkpoint/compaction so acknowledged
  updates survive crashes, and ``--supervised`` wraps the server in a
  crash-restarting process supervisor.
* ``loadgen`` — drive a running server with closed-loop workers and
  report throughput and latency percentiles; ``--verify`` replays every
  acked update on a :mod:`repro.check` twin and counts mismatches (against
  a single server or a shard coordinator alike), ``--retries`` rides out server restarts with idempotent resends, and
  ``--subscriptions``/``--verify-subs`` register standing queries and
  check every pushed notification against the twin.
* ``subscribe`` — register a standing NWC/kNWC query on a running
  server and stream its push notifications as JSON lines; ``--sub``
  resumes a named subscription after a reconnect.
* ``partition`` — cut a generated dataset into density-balanced shard
  page files plus a manifest (the input of sharded serving).
* ``shard-serve`` — boot one worker process per shard over a partition
  directory and serve the ordinary NDJSON protocol from a
  scatter-gather coordinator; ``--attach`` reuses already-running
  workers instead.
* ``shard-worker`` — one shard's server process (started by
  ``shard-serve``; rarely invoked by hand).
* ``fleet-status`` — one-shot (or ``--watch``) table of per-shard
  qps, p99, prune rate, WAL lag, SLO burn, live
  subscriptions, notification rate and re-evaluation p99, computed
  from two fleet-scope metric scrapes of a running shard coordinator.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import (
    DEFAULT_EXECUTION,
    EXECUTION_MODES,
    KNWCQuery,
    NWCEngine,
    NWCError,
    NWCQuery,
    Scheme,
)
from .datasets import ca_like, gaussian, ny_like, uniform
from .eval import EXPERIMENTS, FIGURES, format_table, pivot_by_scheme, save_csv
from .grid import DensityGrid
from .index import RStarTree
from .obs import (
    DEFAULT_WORK_BUCKETS,
    MetricsRegistry,
    QueryTracer,
    explain,
    format_span_tree,
    span_from_dict,
    write_jsonl,
)
from .storage import StorageError

_DATASETS = {
    "ca": lambda size: ca_like(size),
    "ny": lambda size: ny_like(size),
    "gaussian": lambda size: gaussian(size),
    "uniform": lambda size: uniform(size),
}


def _make_engine(args: argparse.Namespace, *, tracer=None, metrics=None,
                 execution: str = DEFAULT_EXECUTION,
                 tree: RStarTree | None = None) -> NWCEngine:
    """Build an engine for ``args`` with the scheme's DEP/IWP structures.

    Schemes whose flags ask for density-grid support get the grid built
    here, so single-query commands exercise the same optimizations as
    the experiment sweeps; the engine builds the pointer index its
    execution mode reads (``FlatIWP`` when columnar, ``IWPIndex``
    otherwise).

    With ``tree`` given (a recovered checkpoint instead of a fresh bulk
    load), the dataset still provides the extent and query-pool
    geometry, but every data-derived structure is rebuilt from the
    recovered tree — a density grid counted from the *seed* points would
    prune regions where replayed inserts actually live.
    """
    dataset = _DATASETS[args.dataset](args.size)
    recovered = tree is not None
    if tree is None:
        tree = RStarTree.bulk_load(dataset.points)
    scheme = Scheme[args.scheme]
    flags = scheme.flags
    grid = None
    if flags.dep:
        grid = DensityGrid.build(dataset.points, dataset.extent, 25.0)
    engine = NWCEngine(
        tree, scheme, grid=grid, extent=dataset.extent,
        execution=execution, tracer=tracer, metrics=metrics,
    )
    if recovered and grid is not None:
        # Recount the grid from the tree via the engine's own lazy
        # rebuild path (the one updates take), not from the seed points.
        engine._grid_dirty = True
        engine._refresh_structures()
    return engine


def serve_engine(argv: list[str]) -> NWCEngine:
    """The engine ``repro serve <argv>`` starts from, built by the
    server's own code: the twin a verifier replays acked updates on."""
    return _make_engine(build_parser().parse_args(["serve", *argv]))


def _run_query(engine: NWCEngine, args: argparse.Namespace) -> None:
    """Run the query described by ``args`` and print its answer."""
    if args.k > 1:
        query = KNWCQuery.make(args.x, args.y, args.length, args.width,
                               args.n, args.k, args.m)
        result = engine.knwc(query)
        print(f"{len(result.groups)} group(s); node accesses: {result.node_accesses}")
        for rank, group in enumerate(result.groups, 1):
            oids = ", ".join(str(o) for o in sorted(group.oids))
            print(f"  #{rank}: dist={group.distance:.2f} objects=[{oids}]")
    else:
        result = engine.nwc(NWCQuery(args.x, args.y, args.length, args.width, args.n))
        if result.found:
            oids = ", ".join(str(p.oid) for p in result.objects)
            print(f"dist={result.distance:.2f} objects=[{oids}] "
                  f"window={result.group.window}")
        else:
            print("no qualified window exists")
        print(f"node accesses: {result.node_accesses}")


def _write_metrics(metrics: MetricsRegistry, path: str) -> None:
    """Write ``metrics`` to ``path`` (JSON, or Prometheus text for .prom)."""
    if path.endswith(".prom"):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(metrics.dump_metrics())
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(metrics.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _aggregate_row_metrics(metrics: MetricsRegistry, result) -> None:
    """Fold finished sweep rows into the registry.

    Experiment drivers never see the registry, so the CLI derives
    cell-level aggregates from the result rows after the fact.
    """
    cells = metrics.counter("experiment_cells_total",
                            "Finished sweep cells (rows)")
    accesses = metrics.histogram(
        "experiment_cell_node_accesses",
        "Mean node accesses per finished cell",
        buckets=DEFAULT_WORK_BUCKETS,
    )
    for row in result.rows:
        cells.inc()
        value = row.get("node_accesses")
        if isinstance(value, (int, float)):
            accesses.observe(float(value))


def _cmd_experiment(args: argparse.Namespace) -> int:
    runner = EXPERIMENTS.get(args.id)
    if runner is None:
        print(f"unknown experiment {args.id!r}; choose from "
              f"{', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
        return 2
    kwargs = {}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if args.queries is not None:
        kwargs["queries"] = args.queries
    jobs = args.jobs if args.jobs >= 1 else os.cpu_count() or 1
    checkpoint = args.checkpoint
    if args.resume and checkpoint is None:
        checkpoint = f"{args.id}.sweep.jsonl"
    if args.id in FIGURES:
        kwargs.update(jobs=jobs, checkpoint=checkpoint)
    elif checkpoint is not None:
        print(f"--resume needs a sweep experiment ({', '.join(FIGURES)}); "
              f"{args.id!r} has no parallel driver", file=sys.stderr)
        return 2
    elif jobs != 1:
        print(f"note: {args.id!r} has no parallel driver; running serially",
              file=sys.stderr)
    result = runner(**kwargs)
    x_column = {
        "fig9": "grid_size", "fig10": "std", "fig11": "n",
        "fig12": "window", "fig13": "k", "fig14": "m",
    }.get(args.id)
    if x_column and any("scheme" in row for row in result.rows):
        print(pivot_by_scheme(result, x_column))
    else:
        print(format_table(result))
    if args.csv:
        save_csv(result, args.csv)
        print(f"\nrows written to {args.csv}")
    if args.metrics:
        metrics = MetricsRegistry()
        _aggregate_row_metrics(metrics, result)
        _write_metrics(metrics, args.metrics)
        print(f"metrics written to {args.metrics}", file=sys.stderr)
    if result.meta.get("checkpoint"):
        print(f"checkpoint: {result.meta['checkpoint']} "
              f"({result.meta.get('resumed_cells', 0)} cells resumed)",
              file=sys.stderr)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    engine = _make_engine(args)
    _run_query(engine, args)
    return 0


def _trace_remote(args: argparse.Namespace) -> int:
    """Trace one query against a running server (``trace --port``).

    The client mints a trace context, attaches it to the query, and
    renders the span tree the server returns — against a shard
    coordinator that is the stitched cross-process trace whose root
    I/O equals the sum of the shard subtrees.
    """
    from .obs.context import TraceContext, new_span_id, new_trace_id
    from .serve.client import ServeClient, ServeClientError

    ctx = TraceContext(new_trace_id(), new_span_id())
    try:
        with ServeClient(args.host, args.port) as client:
            if args.k > 1:
                response = client.knwc(args.x, args.y, args.length,
                                       args.width, args.n, args.k, args.m,
                                       trace=ctx.to_wire())
            else:
                response = client.nwc(args.x, args.y, args.length,
                                      args.width, args.n,
                                      trace=ctx.to_wire())
    except (OSError, ServeClientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    envelope = response.get("trace") or {}
    if envelope.get("span") is None:
        print("error: server returned no trace", file=sys.stderr)
        return 2
    root = span_from_dict(envelope["span"])
    result = response.get("result") or {}
    print(f"trace {envelope.get('trace_id')} from {args.host}:{args.port} "
          f"(version {response.get('version')})")
    if args.k > 1:
        groups = result.get("groups", [])
        print(f"{len(groups)} group(s); node accesses: "
              f"{response.get('stats', {}).get('node_accesses')}")
        for rank, group in enumerate(groups, 1):
            oids = ", ".join(str(oid) for oid in
                             sorted(o[0] for o in group["objects"]))
            print(f"  #{rank}: dist={group['distance']:.2f} objects=[{oids}]")
    elif result.get("found"):
        group = result["group"]
        oids = ", ".join(str(oid) for oid in
                         sorted(o[0] for o in group["objects"]))
        print(f"dist={group['distance']:.2f} objects=[{oids}]")
        print(f"node accesses: "
              f"{response.get('stats', {}).get('node_accesses')}")
    else:
        print("no qualified window exists")
    print()
    print(format_span_tree(root))
    if envelope.get("dropped_spans"):
        print(f"({envelope['dropped_spans']} span(s) dropped server-side)",
              file=sys.stderr)
    if args.explain:
        print()
        print(explain(root))
    if args.jsonl:
        write_jsonl([root], args.jsonl)
        print(f"trace appended to {args.jsonl}", file=sys.stderr)
    if args.metrics:
        print("note: --metrics is local-only; scrape the server's "
              "'metrics' op (or 'fleet-status') instead", file=sys.stderr)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.port is not None:
        return _trace_remote(args)
    tracer = QueryTracer()
    metrics = MetricsRegistry()
    engine = _make_engine(args, tracer=tracer, metrics=metrics,
                          execution=args.execution)
    _run_query(engine, args)
    root = tracer.last
    if root is None:
        print("error: no trace recorded", file=sys.stderr)
        return 2
    print()
    print(format_span_tree(root))
    if tracer.dropped_spans:
        print(f"({tracer.dropped_spans} span(s) dropped: "
              f"max_spans={tracer.max_spans})", file=sys.stderr)
    if args.explain:
        print()
        print(explain(root))
    if args.jsonl:
        write_jsonl(tracer.roots, args.jsonl)
        print(f"trace appended to {args.jsonl}", file=sys.stderr)
    if args.metrics:
        _write_metrics(metrics, args.metrics)
        print(f"metrics written to {args.metrics}", file=sys.stderr)
    return 0


def _write_port_file(path: str, port: int) -> None:
    """Atomically publish the bound port (harnesses race to read it)."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(f"{port}\n")
    os.replace(tmp, path)


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.supervised:
        from .serve.supervisor import Supervisor, SupervisorConfig

        # The child is this exact serve command minus --supervised; it
        # does the real work (recovery included) and the parent only
        # restarts it when it dies uncleanly.
        child_argv = [a for a in args.raw_argv if a != "--supervised"]
        pid_file = (os.path.join(args.state_dir, "server.pid")
                    if args.state_dir else None)
        supervisor = Supervisor(
            [sys.executable, "-m", "repro", *child_argv],
            SupervisorConfig(max_restarts=args.max_restarts,
                             pid_file=pid_file),
        )
        return supervisor.run()

    import asyncio

    from .serve import QueryServer, ServeConfig

    metrics = MetricsRegistry()
    durable = None
    if args.state_dir:
        from .serve import DurabilityConfig, recover

        dconfig = DurabilityConfig(
            state_dir=args.state_dir, fsync=args.wal_fsync,
            fsync_interval_s=args.wal_fsync_interval,
            checkpoint_every=args.checkpoint_every,
        )
        engine, durable = recover(
            dconfig,
            lambda tree: _make_engine(args, tree=tree),
            metrics=metrics,
        )
        report = durable.recovery
        print(f"recovered from {args.state_dir}: checkpoint seq "
              f"{report.checkpoint_seq}, {report.replayed} WAL record(s) "
              f"replayed, {report.truncated_bytes} torn byte(s) dropped, "
              f"version {report.version}", file=sys.stderr, flush=True)
    else:
        engine = _make_engine(args)
    config = ServeConfig(
        host=args.host, port=args.port,
        max_inflight=args.max_inflight, max_queue=args.max_queue,
        deadline_s=args.deadline, cache_entries=args.cache_entries,
    )
    server = QueryServer(engine, config, metrics=metrics, durable=durable)

    async def run() -> None:
        await server.start()
        if args.port_file:
            _write_port_file(args.port_file, server.port)
        print(f"serving {args.dataset}/{args.size} ({args.scheme}) on "
              f"{config.host}:{server.port}",
              file=sys.stderr, flush=True)
        await server.serve_forever()
        print("drained, exiting", file=sys.stderr)

    asyncio.run(run())
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .serve import LoadgenConfig, LoadMix, run_loadgen

    # The dataset seeds the query pool; with --verify it must describe
    # the same points the server was started with (same --dataset,
    # --size and --scheme), because the twin engine replays
    # every operation locally and compares answers byte for byte.
    dataset = _DATASETS[args.dataset](args.size)
    twin = None
    if args.verify:
        twin = _make_engine(args)
    if args.verify_subs and twin is None:
        print("error: --verify-subs needs a twin; add --verify",
              file=sys.stderr)
        return 2
    mix = LoadMix(nwc=args.mix_nwc, knwc=args.mix_knwc,
                  insert=args.mix_insert, delete=args.mix_delete)
    retry = None
    if args.retries > 1:
        from .serve import RetryPolicy

        retry = RetryPolicy(max_attempts=args.retries)
    config = LoadgenConfig(
        host=args.host, port=args.port, workers=args.workers,
        duration_s=args.duration, requests_per_worker=args.requests,
        mix=mix, query_pool=args.query_pool,
        length=args.length, width=args.width, n=args.n, k=args.k, m=args.m,
        seed=args.seed, retry=retry,
        subscriptions=args.subscriptions, verify_subs=args.verify_subs,
    )
    report = run_loadgen(config, dataset, verify_engine=twin)
    print(report.format())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.json}", file=sys.stderr)
    if report.mismatches or report.errors or report.sub_missed \
            or report.sub_spurious:
        return 1
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    from .shard import partition_dataset

    dataset = _DATASETS[args.dataset](args.size)
    manifest = partition_dataset(
        dataset.points, args.shards, args.halo, args.out_dir,
        extent=dataset.extent, cell_size=args.cell_size,
        dataset_name=f"{args.dataset}/{args.size}",
    )
    print(f"partitioned {args.dataset}/{args.size} into "
          f"{manifest.shard_count} shard(s) under {args.out_dir} "
          f"(halo {manifest.halo:g}, cuts {[round(c, 1) for c in manifest.cuts]})")
    for info in manifest.shards:
        print(f"  shard {info.index}: {info.owned} owned, "
              f"{info.stored} stored -> {info.filename}")
    return 0


def _free_port(host: str) -> int:
    """A currently-free TCP port on ``host`` (picked and released; the
    tiny reuse race is the standard price of pre-assigning worker
    ports so supervised restarts can rebind the same address)."""
    import socket

    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def _cmd_shard_worker(args: argparse.Namespace) -> int:
    if args.supervised:
        from .serve.supervisor import Supervisor, SupervisorConfig

        child_argv = [a for a in args.raw_argv if a != "--supervised"]
        pid_file = (os.path.join(args.state_dir, "server.pid")
                    if args.state_dir else None)
        supervisor = Supervisor(
            [sys.executable, "-m", "repro", *child_argv],
            SupervisorConfig(max_restarts=args.max_restarts,
                             pid_file=pid_file),
        )
        return supervisor.run()

    import asyncio

    from .serve import DurabilityConfig, ServeConfig
    from .shard import ShardManifest, build_shard_server

    metrics = MetricsRegistry()
    manifest = ShardManifest.load(args.dir)
    durability = None
    if args.state_dir:
        durability = DurabilityConfig(
            state_dir=args.state_dir, fsync=args.wal_fsync,
            fsync_interval_s=args.wal_fsync_interval,
            checkpoint_every=args.checkpoint_every,
        )
    config = ServeConfig(
        host=args.host, port=args.port,
        max_inflight=args.max_inflight, max_queue=args.max_queue,
        deadline_s=args.deadline,
    )
    server = build_shard_server(
        manifest, args.dir, args.index, config=config,
        state_dir=args.state_dir, durability=durability, metrics=metrics,
    )

    async def run() -> None:
        await server.start()
        if args.port_file:
            _write_port_file(args.port_file, server.port)
        print(f"shard {args.index}/{manifest.shard_count} serving "
              f"{server.owned_size} owned object(s) on "
              f"{config.host}:{server.port}", file=sys.stderr, flush=True)
        await server.serve_forever()
        print(f"shard {args.index} drained, exiting", file=sys.stderr)

    asyncio.run(run())
    return 0


def _cmd_shard_serve(args: argparse.Namespace) -> int:
    import asyncio
    import shutil
    import subprocess
    import tempfile
    import time

    from .serve.client import wait_until_healthy
    from .shard import CoordinatorConfig, ShardCoordinator, ShardManifest

    manifest = ShardManifest.load(args.dir)
    procs: list = []
    port_dir, port_files = None, []
    if args.attach:
        addresses = []
        for spec in args.attach.split(","):
            host, _, port = spec.strip().rpartition(":")
            addresses.append((host or "127.0.0.1", int(port)))
        if len(addresses) != manifest.shard_count:
            print(f"error: --attach needs {manifest.shard_count} "
                  f"address(es), got {len(addresses)}", file=sys.stderr)
            return 2
    else:
        port_dir = tempfile.mkdtemp(prefix="repro-fleet-")
        ports = [_free_port(args.host) for _ in range(manifest.shard_count)]
        for index, port in enumerate(ports):
            port_files.append(os.path.join(port_dir, f"shard-{index}.port"))
            argv = [sys.executable, "-m", "repro", "shard-worker",
                    "--dir", args.dir, "--index", str(index),
                    "--host", args.host, "--port", str(port),
                    "--port-file", port_files[-1],
                    "--max-inflight", str(args.worker_inflight)]
            if args.state_root:
                state_dir = os.path.join(args.state_root, f"shard-{index:03d}")
                os.makedirs(state_dir, exist_ok=True)
                argv += ["--state-dir", state_dir]
            if args.supervise_workers:
                argv += ["--supervised"]
            procs.append(subprocess.Popen(argv))
        addresses = [(args.host, port) for port in ports]

    try:
        # A spawned worker writes its port file once it serves; polling
        # it beats the health backoff, which would notice late.
        deadline = time.monotonic() + args.boot_timeout
        for proc, path in zip(procs, port_files):
            while (not os.path.exists(path) and proc.poll() is None
                   and time.monotonic() < deadline):
                time.sleep(0.01)
        for host, port in addresses:
            wait_until_healthy(host, port, timeout_s=args.boot_timeout)
        config = CoordinatorConfig(
            host=args.host, port=args.port,
            max_inflight=args.max_inflight, max_queue=args.max_queue,
            deadline_s=args.deadline, cache_entries=args.cache_entries,
        )
        coordinator = ShardCoordinator(manifest, addresses, config=config,
                                       metrics=MetricsRegistry())

        async def run() -> None:
            await coordinator.start()
            if args.port_file:
                _write_port_file(args.port_file, coordinator.port)
            print(f"coordinating {manifest.shard_count} shard(s) "
                  f"({coordinator.size} objects) on "
                  f"{config.host}:{coordinator.port}",
                  file=sys.stderr, flush=True)
            await coordinator.serve_forever()
            print("coordinator drained, exiting", file=sys.stderr)

        asyncio.run(run())
        return 0
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if port_dir is not None:
            shutil.rmtree(port_dir, ignore_errors=True)


def _render_fleet_table(rows, wal_lag: dict) -> str:
    lines = [f"{'shard':<12} {'qps':>8} {'p99 ms':>9} {'err':>5} "
             f"{'prune/s':>9} {'slo burn':>9} "
             f"{'subs':>6} {'notify/s':>9} {'reeval p99':>11} "
             f"{'wal lag':>8}"]
    for row in rows:
        lag = wal_lag.get(row["shard"])
        lines.append(
            f"{row['shard']:<12} {row['qps']:>8.1f} {row['p99_ms']:>9.2f} "
            f"{row['errors']:>5} {row['prune_per_s']:>9.2f} "
            f"{row['slo_burn']:>9.2f} "
            f"{row['live_subs']:>6.0f} {row['notify_per_s']:>9.2f} "
            f"{row['reeval_p99_ms']:>11.2f} "
            f"{'-' if lag is None else lag:>8}")
    return "\n".join(lines)


def _cmd_subscribe(args: argparse.Namespace) -> int:
    import time

    from .serve.client import ServeClient, ServeClientError

    try:
        client = ServeClient(args.host, args.port)
    except OSError as exc:
        print(f"error: cannot connect to {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    deadline = (None if args.duration is None
                else time.monotonic() + args.duration)
    received = 0
    sub_id = None
    try:
        with client:
            stream = client.subscribe(
                args.x, args.y, args.length, args.width, args.n,
                k=args.k, m=args.m, sub=args.sub)
            sub_id = stream.sub_id
            print(f"subscribed {stream.sub_id}  version {stream.version}  "
                  f"revision {stream.revision}", file=sys.stderr)
            print(json.dumps({"sub": stream.sub_id,
                              "revision": stream.revision,
                              "result": stream.result}, sort_keys=True),
                  flush=True)
            while args.count is None or received < args.count:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    break
                timeout = 0.5 if remaining is None else min(0.5, remaining)
                frame = stream.poll(timeout_s=max(0.01, timeout))
                if frame is None:
                    continue
                received += 1
                print(json.dumps(frame, sort_keys=True), flush=True)
    except KeyboardInterrupt:
        pass
    except ServeClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if sub_id is not None and not args.keep:
        # One-shot ops race pushed frames on a streaming connection, so
        # the unsubscribe goes over a fresh one.
        try:
            with ServeClient(args.host, args.port) as cleanup:
                cleanup.unsubscribe(sub_id)
        except (ServeClientError, OSError) as exc:
            print(f"warning: unsubscribe failed: {exc}", file=sys.stderr)
    return 0


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    import time

    from .obs.fleet import fleet_rows, state_to_registry
    from .serve.client import ServeClient, ServeClientError

    try:
        client = ServeClient(args.host, args.port)
    except OSError as exc:
        print(f"error: cannot connect to {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    with client:
        try:
            health = client.health()
            if "shards" not in health:
                print(f"error: {args.host}:{args.port} is not a shard "
                      "coordinator (no per-shard health); fleet-status "
                      "needs one", file=sys.stderr)
                return 2

            def scrape():
                response = client.metrics(fmt="state", scope="fleet")
                return state_to_registry(response["state"]), response

            before, _ = scrape()
            while True:
                time.sleep(args.interval)
                after, raw = scrape()
                health = client.health()
                wal_lag = {str(entry["shard"]): entry.get("wal_lag")
                           for entry in health.get("shards", [])}
                rows = fleet_rows(before, after, args.interval)
                print(f"fleet @ {args.host}:{args.port}  "
                      f"shards scraped: {raw.get('shards_scraped')}  "
                      f"unreachable: {raw.get('unreachable')}  "
                      f"version: {health.get('version')}")
                print(_render_fleet_table(rows, wal_lag))
                if not args.watch:
                    return 0
                print()
                before = after
        except KeyboardInterrupt:
            return 0
        except ServeClientError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="nwc-repro",
        description="Nearest Window Cluster queries (EDBT 2016) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="run a Section 5 experiment")
    exp.add_argument("id", help=f"one of: {', '.join(sorted(EXPERIMENTS))}")
    exp.add_argument("--scale", type=float, default=None,
                     help="dataset scale (default from REPRO_SCALE or 0.05)")
    exp.add_argument("--queries", type=int, default=None,
                     help="queries per setting (paper: 25)")
    exp.add_argument("--jobs", type=int, default=1,
                     help="worker processes for figure sweeps "
                          "(1 = serial; 0 or negative = one per CPU)")
    exp.add_argument("--resume", action="store_true",
                     help="journal finished sweep cells and skip them on "
                          "rerun (figure sweeps only)")
    exp.add_argument("--checkpoint", default=None,
                     help="checkpoint journal path (default with --resume: "
                          "<id>.sweep.jsonl)")
    exp.add_argument("--csv", help="also write rows to this CSV file")
    exp.add_argument("--metrics", default=None,
                     help="write aggregate sweep metrics to this file "
                          "(JSON; a .prom suffix selects Prometheus text)")
    exp.set_defaults(func=_cmd_experiment)

    def add_query_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset", choices=sorted(_DATASETS), default="ca")
        p.add_argument("--size", type=int, default=10_000,
                       help="dataset cardinality")
        p.add_argument("--scheme", choices=[s.name for s in Scheme],
                       default="NWC_STAR")
        p.add_argument("-x", type=float, default=5_000.0)
        p.add_argument("-y", type=float, default=5_000.0)
        p.add_argument("--length", type=float, default=100.0)
        p.add_argument("--width", type=float, default=100.0)
        p.add_argument("-n", type=int, default=8)
        p.add_argument("-k", type=int, default=1)
        p.add_argument("-m", type=int, default=0)

    qry = sub.add_parser("query", help="run a single NWC/kNWC query")
    add_query_args(qry)
    qry.set_defaults(func=_cmd_query)

    trc = sub.add_parser(
        "trace", help="run one query with tracing and print its span tree")
    add_query_args(trc)
    trc.add_argument("--execution", choices=list(EXECUTION_MODES),
                     default=DEFAULT_EXECUTION,
                     help=f"engine execution mode (default: {DEFAULT_EXECUTION})")
    trc.add_argument("--explain", action="store_true",
                     help="summarize which optimizations fired and what "
                          "they saved")
    trc.add_argument("--jsonl", default=None,
                     help="append the structured trace to this JSONL sink")
    trc.add_argument("--metrics", default=None,
                     help="write the query's metrics to this file "
                          "(JSON; a .prom suffix selects Prometheus text)")
    trc.add_argument("--host", default="127.0.0.1",
                     help="server host for remote tracing (with --port)")
    trc.add_argument("--port", type=int, default=None,
                     help="trace against a running server instead of a "
                          "local engine: send a trace context and render "
                          "the returned (possibly sharded) span tree")
    trc.set_defaults(func=_cmd_trace)

    def add_dataset_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset", choices=sorted(_DATASETS), default="ca")
        p.add_argument("--size", type=int, default=10_000,
                       help="dataset cardinality")
        p.add_argument("--scheme", choices=[s.name for s in Scheme],
                       default="NWC_STAR")

    srv = sub.add_parser(
        "serve", help="serve NWC/kNWC queries over TCP (NDJSON protocol)")
    add_dataset_args(srv)
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=7654,
                     help="bind port (0 = ephemeral)")
    srv.add_argument("--max-inflight", type=int, default=4,
                     help="concurrent engine operations")
    srv.add_argument("--max-queue", type=int, default=64,
                     help="requests allowed to wait beyond --max-inflight "
                          "before the server answers 'overloaded'")
    srv.add_argument("--deadline", type=float, default=10.0,
                     help="default per-request deadline in seconds")
    srv.add_argument("--cache-entries", type=int, default=1024,
                     help="result-cache capacity (0 disables caching)")
    srv.add_argument("--state-dir", default=None,
                     help="durable state directory (WAL + checkpoints); "
                          "acknowledged updates then survive crashes and "
                          "are recovered on the next boot")
    srv.add_argument("--wal-fsync", choices=["always", "interval", "never"],
                     default="interval",
                     help="WAL fsync policy: 'always' survives power loss, "
                          "'interval' survives process crashes (default), "
                          "'never' trusts the page cache")
    srv.add_argument("--wal-fsync-interval", type=float, default=0.05,
                     help="max fsync staleness in seconds under "
                          "--wal-fsync=interval")
    srv.add_argument("--checkpoint-every", type=int, default=0,
                     help="checkpoint-and-compact automatically after this "
                          "many WAL records (0 = only on the 'checkpoint' "
                          "op)")
    srv.add_argument("--port-file", default=None,
                     help="write the bound port to this file once listening "
                          "(for harnesses using --port 0)")
    srv.add_argument("--supervised", action="store_true",
                     help="run the server in a supervised subprocess that "
                          "is restarted with bounded backoff when it "
                          "crashes")
    srv.add_argument("--max-restarts", type=int, default=0,
                     help="give up after this many supervised restarts "
                          "(0 = unlimited)")
    srv.set_defaults(func=_cmd_serve)

    lg = sub.add_parser(
        "loadgen",
        help="drive a running server with closed-loop workers")
    add_dataset_args(lg)
    lg.add_argument("--host", default="127.0.0.1")
    lg.add_argument("--port", type=int, default=7654)
    lg.add_argument("--workers", type=int, default=4)
    lg.add_argument("--duration", type=float, default=5.0,
                    help="run length in seconds (ignored with --requests)")
    lg.add_argument("--requests", type=int, default=None,
                    help="fixed request count per worker (exact runs)")
    lg.add_argument("--query-pool", type=int, default=32,
                    help="distinct query locations per worker (smaller "
                         "pools repeat more and hit the cache more)")
    lg.add_argument("--mix-nwc", type=float, default=0.70)
    lg.add_argument("--mix-knwc", type=float, default=0.15)
    lg.add_argument("--mix-insert", type=float, default=0.10)
    lg.add_argument("--mix-delete", type=float, default=0.05)
    lg.add_argument("--length", type=float, default=100.0)
    lg.add_argument("--width", type=float, default=100.0)
    lg.add_argument("-n", type=int, default=8)
    lg.add_argument("-k", type=int, default=4)
    lg.add_argument("-m", type=int, default=1)
    lg.add_argument("--seed", type=int, default=0)
    lg.add_argument("--retries", type=int, default=1,
                    help="attempts per request (>1 enables reconnecting "
                         "idempotent retries with request-id dedupe)")
    lg.add_argument("--verify", action="store_true",
                    help="replay every operation on a local twin engine "
                         "and count answer mismatches (the server must "
                         "have been started with the same dataset args, "
                         "or a fleet partitioned from them); exits 1 on "
                         "any mismatch or request error")
    lg.add_argument("--subscriptions", type=int, default=0,
                    help="standing queries worker 0 registers over a "
                         "streaming connection before driving load")
    lg.add_argument("--verify-subs", action="store_true",
                    help="check every pushed notification against the "
                         "twin (needs --verify); "
                         "exits 1 on any missed or spurious notification")
    lg.add_argument("--json", default=None,
                    help="also write the report to this JSON file")
    lg.set_defaults(func=_cmd_loadgen)

    par = sub.add_parser(
        "partition",
        help="cut a dataset into shard page files plus a manifest")
    par.add_argument("--dataset", choices=sorted(_DATASETS), default="ca")
    par.add_argument("--size", type=int, default=10_000,
                     help="dataset cardinality")
    par.add_argument("--shards", type=int, default=4,
                     help="number of shards (vertical bands)")
    par.add_argument("--halo", type=float, default=100.0,
                     help="stored-band margin; every served query's "
                          "window length must be <= this")
    par.add_argument("--cell-size", type=float, default=25.0,
                     help="density-grid cell size for cut selection")
    par.add_argument("--out-dir", required=True,
                     help="output directory (page files + manifest.json)")
    par.set_defaults(func=_cmd_partition)

    shs = sub.add_parser(
        "shard-serve",
        help="serve a partitioned dataset: one worker process per shard "
             "behind a scatter-gather coordinator")
    shs.add_argument("--dir", required=True,
                     help="partition directory (from 'repro partition')")
    shs.add_argument("--host", default="127.0.0.1")
    shs.add_argument("--port", type=int, default=7654,
                     help="coordinator bind port (0 = ephemeral)")
    shs.add_argument("--max-inflight", type=int, default=16,
                     help="concurrent scatter-gathers at the coordinator")
    shs.add_argument("--max-queue", type=int, default=64)
    shs.add_argument("--deadline", type=float, default=10.0,
                     help="default per-request deadline in seconds")
    shs.add_argument("--cache-entries", type=int, default=1024,
                     help="coordinator result-cache capacity (workers "
                          "never cache scatter ops)")
    shs.add_argument("--worker-inflight", type=int, default=4,
                     help="concurrent engine operations per shard worker")
    shs.add_argument("--state-root", default=None,
                     help="root directory of per-shard durable state "
                          "(each worker gets <root>/shard-NNN with its "
                          "own WAL and checkpoints)")
    shs.add_argument("--supervise-workers", action="store_true",
                     help="run each worker under a crash-restarting "
                          "supervisor (rebinding the same port)")
    shs.add_argument("--attach", default=None,
                     help="comma-separated host:port list of already "
                          "running shard workers (skips spawning)")
    shs.add_argument("--boot-timeout", type=float, default=30.0,
                     help="seconds to wait for each worker to serve")
    shs.add_argument("--port-file", default=None,
                     help="write the coordinator's bound port here once "
                          "listening (for harnesses using --port 0)")
    shs.set_defaults(func=_cmd_shard_serve)

    shw = sub.add_parser(
        "shard-worker",
        help="one shard's server process (normally started by "
             "shard-serve)")
    shw.add_argument("--dir", required=True,
                     help="partition directory holding manifest.json")
    shw.add_argument("--index", type=int, required=True,
                     help="shard index within the manifest")
    shw.add_argument("--host", default="127.0.0.1")
    shw.add_argument("--port", type=int, default=0,
                     help="bind port (0 = ephemeral)")
    shw.add_argument("--max-inflight", type=int, default=4)
    shw.add_argument("--max-queue", type=int, default=64)
    shw.add_argument("--deadline", type=float, default=10.0)
    shw.add_argument("--state-dir", default=None,
                     help="durable state directory (WAL + checkpoints) "
                          "of this shard")
    shw.add_argument("--wal-fsync", choices=["always", "interval", "never"],
                     default="interval")
    shw.add_argument("--wal-fsync-interval", type=float, default=0.05)
    shw.add_argument("--checkpoint-every", type=int, default=0)
    shw.add_argument("--port-file", default=None,
                     help="write the bound port to this file once "
                          "listening")
    shw.add_argument("--supervised", action="store_true",
                     help="run under a crash-restarting supervisor")
    shw.add_argument("--max-restarts", type=int, default=0,
                     help="give up after this many supervised restarts "
                          "(0 = unlimited)")
    shw.set_defaults(func=_cmd_shard_worker)

    sb = sub.add_parser(
        "subscribe",
        help="register a standing NWC/kNWC query on a running server "
             "and stream its notifications as JSON lines")
    sb.add_argument("--host", default="127.0.0.1")
    sb.add_argument("--port", type=int, default=7654)
    sb.add_argument("-x", type=float, required=True,
                    help="query point x")
    sb.add_argument("-y", type=float, required=True,
                    help="query point y")
    sb.add_argument("--length", type=float, default=100.0)
    sb.add_argument("--width", type=float, default=100.0)
    sb.add_argument("-n", type=int, default=8)
    sb.add_argument("-k", type=int, default=None,
                    help="make it a kNWC subscription returning the "
                         "k best clusters")
    sb.add_argument("-m", type=int, default=0,
                    help="minimum cluster separation rank (kNWC only)")
    sb.add_argument("--sub", default=None,
                    help="subscription id (re-using one resumes it "
                         "after a reconnect); omitted, the server "
                         "assigns one")
    sb.add_argument("--count", type=int, default=None,
                    help="exit after this many notifications")
    sb.add_argument("--duration", type=float, default=None,
                    help="exit after this many seconds")
    sb.add_argument("--keep", action="store_true",
                    help="leave the subscription registered on exit "
                         "(resume later with --sub)")
    sb.set_defaults(func=_cmd_subscribe)

    fls = sub.add_parser(
        "fleet-status",
        help="per-shard qps/p99/prune/WAL-lag/SLO-burn table from a "
             "running shard coordinator")
    fls.add_argument("--host", default="127.0.0.1")
    fls.add_argument("--port", type=int, default=7654,
                     help="coordinator port")
    fls.add_argument("--interval", type=float, default=1.0,
                     help="seconds between the two metric scrapes each "
                          "rate is computed over")
    fls.add_argument("--watch", action="store_true",
                     help="refresh continuously until interrupted")
    fls.set_defaults(func=_cmd_fleet_status)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point.

    Engine, storage and validation failures exit with code 2 and a
    one-line message on stderr instead of a traceback; anything else is
    a genuine bug and propagates.
    """
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(raw_argv)
    args.raw_argv = raw_argv
    try:
        return args.func(args)
    except (NWCError, StorageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
