"""The metric catalogue: every name the benchmark prints, with its unit,
which direction is better, and — for end-to-end metrics — the bound by
which it may worsen before a change counts as a regression.

``BENCHMARK.json`` at the repo root registers ``END_TO_END`` and
``PER_LAYER`` (``test_bench.py`` checks the two agree).  ``DETAIL``
holds the user-visible metrics that cannot be registered: the registered
end-to-end set must be printed by *every* workload, may never read 0,
and must hold its bound between seeds on a noisy box — which rules out
metrics only some workloads have, ``failed_share``, and the p90.  They
are printed, recorded and compared by ``run.py --compare`` all the same.
"""

from __future__ import annotations

#: (name, unit, better, bound).  Printed by every workload with
#: ``--trace 0``.  The reference box is a shared 2-core host whose speed
#: moves by tens of percent for minutes at a time, so every time metric
#: sits at the ceiling of 25 %; counts and memory, which it cannot move,
#: are tighter.  See README.md for the measured spreads.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_ops_s", "1/s", "higher", 0.25),
    ("nwc_p50_ms", "ms", "lower", 0.25),
    ("node_accesses_per_nwc", "count", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

ALL = ("engine_paper", "serve_cold", "serve_hot", "subs_churn", "fleet_nwc")

#: (name, unit, better, bound, workloads that report it).
DETAIL = (
    ("nwc_p90_ms", "ms", "lower", 0.25, ALL),
    # 2..10 samples of very unequal queries: shown, never gated.
    ("knwc_p50_ms", "ms", "lower", None, ("engine_paper", "serve_cold")),
    ("update_p50_ms", "ms", "lower", 0.25, ("subs_churn", "fleet_nwc")),
    ("update_p90_ms", "ms", "lower", 0.25, ("subs_churn", "fleet_nwc")),
    ("subscribe_per_s", "1/s", "higher", 0.25, ("subs_churn",)),
    ("notify_p50_ms", "ms", "lower", 0.25, ("subs_churn",)),
    ("notify_p90_ms", "ms", "lower", 0.25, ("subs_churn",)),
    # Absolute, not relative: any failure at all is out of bounds.
    ("failed_share", "share", "lower", 0.0, ALL),
)

#: (name, unit, better).  Printed by every workload with ``--trace 1``.
PER_LAYER = (
    # core — a twin engine in this process, on the workload's own queries
    ("core.nwc_engine_ms_p50", "ms", "lower"),
    ("core.knwc_engine_ms_p50", "ms", "lower"),
    ("core.search_share", "share", "lower"),
    ("core.window_query_share", "share", "lower"),
    ("core.enumerate_share", "share", "lower"),
    ("core.window_queries_per_nwc", "count", "lower"),
    ("core.enumerations_per_nwc", "count", "lower"),
    ("core.srr_skips_per_nwc", "count", "higher"),
    ("core.dip_prunes_per_nwc", "count", "higher"),
    ("core.dep_prunes_per_nwc", "count", "higher"),
    ("core.iwp_starts_per_nwc", "count", "higher"),
    ("core.update_ms_p50", "ms", "lower"),
    ("core.refresh_after_update_ms_p50", "ms", "lower"),
    # index
    ("index.bulk_load_s", "s", "lower"),
    ("index.flat_convert_s", "s", "lower"),
    ("index.window_query_us_p50", "us", "lower"),
    ("index.window_query_nodes_per_call", "count", "lower"),
    # grid
    ("grid.build_s", "s", "lower"),
    ("grid.upper_bound_us_p50", "us", "lower"),
    ("grid.prefix_upper_bound_us_p50", "us", "lower"),
    # storage
    ("storage.wal_append_us_p50", "us", "lower"),
    ("storage.wal_bytes_per_update", "bytes", "lower"),
    ("storage.wal_fsyncs_per_update", "count", "lower"),
    ("storage.save_tree_s", "s", "lower"),
    ("storage.load_flat_s", "s", "lower"),
    # serve.protocol / serve.cache — direct calls on the workload's answers
    ("serve.protocol.encode_us_p50", "us", "lower"),
    ("serve.protocol.decode_us_p50", "us", "lower"),
    ("serve.protocol.response_bytes_p50", "bytes", "lower"),
    ("serve.cache.hit_share", "share", "higher"),
    ("serve.cache.get_us_p50", "us", "lower"),
    ("serve.cache.put_us_p50", "us", "lower"),
    ("serve.cache.note_update_us_p50", "us", "lower"),
    ("serve.cache.carried_share", "share", "higher"),
    # serve.server / transport — scrape + client clock on a replay
    ("serve.server.nwc_ms_mean", "ms", "lower"),
    ("serve.server.update_ms_mean", "ms", "lower"),
    ("serve.server.overhead_ms_mean", "ms", "lower"),
    ("serve.transport_ms_mean", "ms", "lower"),
    ("serve.client.health_roundtrip_us_p50", "us", "lower"),
    ("serve.server.queue_depth_max", "count", "lower"),
    ("serve.server.rejected", "count", "lower"),
    ("serve.server.two_reader_slowdown", "ratio", "lower"),
    ("serve.server.boot_s", "s", "lower"),
    ("serve.ledger_residual_share", "share", "lower"),
    # shard
    ("shard.partition_s", "s", "lower"),
    ("shard.boot_s", "s", "lower"),
    ("shard.fanout_mean", "count", "lower"),
    ("shard.prune_skip_share", "share", "higher"),
    ("shard.refetches", "count", "lower"),
    ("shard.engine_ms_p50", "ms", "lower"),
    ("shard.net_queue_ms_p50", "ms", "lower"),
    ("shard.coordinator_self_ms_p50", "ms", "lower"),
    ("shard.merge_us_p50", "us", "lower"),
    ("shard.hop_ms_p50", "ms", "lower"),
    ("shard.knwc_probe_s", "s", "lower"),
    # sub
    ("sub.index_add_us_p50", "us", "lower"),
    ("sub.index_probe_us_p50", "us", "lower"),
    ("sub.reevals_per_update", "count", "lower"),
    ("sub.notifications_per_update", "count", "lower"),
    ("sub.useful_reeval_share", "share", "higher"),
    ("sub.reeval_ms_mean", "ms", "lower"),
    ("sub.dropped", "count", "lower"),
    # obs / datasets
    ("obs.trace_overhead_ratio", "ratio", "lower"),
    ("obs.served_trace_overhead_ratio", "ratio", "lower"),
    ("obs.metrics_scrape_ms", "ms", "lower"),
    ("datasets.generate_s", "s", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + DETAIL + PER_LAYER}
