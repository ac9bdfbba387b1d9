"""Fleet metrics: structural registry export, exact merge, rollups.

A sharded fleet has one :class:`~repro.obs.metrics.MetricsRegistry` per
process (coordinator + N shard workers), and no single scrape sees the
whole system.  This module makes the fleet scrapeable as one registry:

* :func:`registry_state` — a lossless structural export of a registry
  (``to_dict()`` renders histograms as quantile summaries, which cannot
  be merged; the state form ships the raw bucket counts instead);
* :func:`merge_into` / :func:`merge_fleet` — rebuild and combine
  registries from state payloads, optionally stamping every child with
  extra labels (the coordinator stamps ``shard``).  Counters and gauges
  add; histograms add bucket-wise, which is **exact** because every
  process uses the same fixed bucket bounds — merging per-shard
  histograms yields byte-identical quantile estimates to a single
  histogram fed the concatenated observations (same counts, same
  ``min``/``max`` clamps).  Addition of per-shard values is carried out
  on integral counts wherever exactness matters, so the merge is
  associative and commutative (property-tested in
  ``tests/test_obs_fleet.py``);
* :func:`rollup` — drop one label (usually ``shard``) and re-merge, so
  fleet totals appear once instead of per shard;
* :func:`fleet_rows` — the ``repro fleet-status`` table: per-shard qps,
  windowed p99, prune rate, SLO burn, live subscriptions,
  notification rate and re-evaluation p99, computed from two state
  snapshots taken an interval apart.

The wire form is versioned (``{"v": 1, "families": [...]}``) and rides
the serve protocol's ``metrics`` op (``format: "state"``); the
coordinator's ``scope: "fleet"`` handler scatter-scrapes every worker
and returns the merged view.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping

from .metrics import Gauge, Histogram, MetricsRegistry

__all__ = [
    "fleet_rows",
    "merge_fleet",
    "merge_into",
    "registry_state",
    "rollup",
    "state_to_registry",
]

#: Version tag of the state wire form.
STATE_VERSION = 1


def _histogram_state(metric: Histogram) -> dict[str, Any]:
    # min/max are ±inf on an empty histogram; JSON cannot carry inf, so
    # the wire form uses null and the merge skips empty histograms.
    empty = metric.count == 0
    return {
        "bucket_counts": list(metric.bucket_counts),
        "inf_count": metric.inf_count,
        "count": metric.count,
        "sum": metric.sum,
        "min": None if empty else metric.min,
        "max": None if empty else metric.max,
    }


def registry_state(registry: MetricsRegistry) -> dict[str, Any]:
    """Lossless structural export of ``registry`` (JSON-ready)."""
    families = []
    for family in registry._iter_families():
        children = []
        buckets: list[float] | None = None
        for key in sorted(family.children):
            metric = family.children[key]
            entry: dict[str, Any] = {"labels": {k: v for k, v in key}}
            if isinstance(metric, Histogram):
                buckets = list(metric.bounds)
                entry["hist"] = _histogram_state(metric)
            else:
                entry["value"] = metric.value
            children.append(entry)
        if buckets is None and family.buckets is not None:
            buckets = [float(b) for b in family.buckets]
        families.append({
            "name": family.name,
            "kind": family.kind,
            "help": family.help,
            "buckets": buckets,
            "children": children,
        })
    return {"v": STATE_VERSION, "families": families}


def _merge_histogram(target: Histogram, state: Mapping[str, Any]) -> None:
    counts = state.get("bucket_counts") or []
    if len(counts) != len(target.bucket_counts):
        raise ValueError(
            f"histogram bucket count mismatch: {len(counts)} vs "
            f"{len(target.bucket_counts)} — fixed buckets must agree fleet-wide"
        )
    if not state.get("count"):
        return
    for index, value in enumerate(counts):
        target.bucket_counts[index] += int(value)
    target.inf_count += int(state.get("inf_count", 0))
    target.count += int(state["count"])
    target.sum += float(state.get("sum", 0.0))
    lo = state.get("min")
    hi = state.get("max")
    if lo is not None:
        target.min = min(target.min, float(lo))
    if hi is not None:
        target.max = max(target.max, float(hi))


def merge_into(registry: MetricsRegistry, state: Mapping[str, Any],
               extra_labels: Mapping[str, str] | None = None) -> MetricsRegistry:
    """Merge one :func:`registry_state` payload into ``registry``.

    Counters and gauges add; histograms add bucket-wise and require the
    exact same bucket bounds (``ValueError`` otherwise).  Every merged
    child is additionally stamped with ``extra_labels`` when given.
    Returns ``registry`` for chaining.
    """
    if not isinstance(state, Mapping) or "families" not in state:
        raise ValueError("malformed registry state payload")
    for family in state["families"]:
        name = family["name"]
        kind = family["kind"]
        help_text = family.get("help", "")
        buckets = family.get("buckets")
        for child in family.get("children", ()):
            labels = dict(child.get("labels") or {})
            if extra_labels:
                labels.update(extra_labels)
            if kind == "counter":
                registry.counter(name, help_text, labels).inc(
                    float(child.get("value", 0.0)))
            elif kind == "gauge":
                # Gauges add like counters under a merge: each source
                # child appears once per scrape, so a label-disjoint
                # merge preserves values and a rollup sums them.
                registry.gauge(name, help_text, labels).inc(
                    float(child.get("value", 0.0)))
            elif kind == "histogram":
                if not buckets:
                    raise ValueError(
                        f"histogram family {name!r} state carries no buckets")
                target = registry.histogram(
                    name, help_text, labels, buckets=tuple(buckets))
                if list(target.bounds) != [float(b) for b in buckets]:
                    raise ValueError(
                        f"histogram {name!r} bucket bounds differ from the "
                        "registry's — fixed buckets must agree fleet-wide")
                _merge_histogram(target, child.get("hist") or {})
            else:
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")
    return registry


def state_to_registry(state: Mapping[str, Any]) -> MetricsRegistry:
    """Rebuild a registry from one :func:`registry_state` payload."""
    return merge_into(MetricsRegistry(), state)


def merge_fleet(
    scrapes: Iterable[tuple[Mapping[str, str], Mapping[str, Any]]],
) -> MetricsRegistry:
    """Merge ``(extra_labels, state)`` scrapes into one fresh registry.

    The coordinator passes ``({"shard": "coordinator"}, own_state)``
    plus ``({"shard": "<i>"}, worker_state)`` per worker, so every
    child of the result carries a ``shard`` label and nothing collides.
    """
    merged = MetricsRegistry()
    for extra_labels, state in scrapes:
        merge_into(merged, state, extra_labels=extra_labels)
    return merged


def rollup(registry: MetricsRegistry, label: str = "shard") -> MetricsRegistry:
    """A label-dropped re-merge: children identical up to ``label`` are
    summed (bucket-wise for histograms), so each fleet total appears
    exactly once."""
    state = registry_state(registry)
    for family in state["families"]:
        for child in family["children"]:
            child["labels"].pop(label, None)
    return state_to_registry(state)


# ----------------------------------------------------------------------
# fleet-status table rows
# ----------------------------------------------------------------------
def _children(registry: MetricsRegistry, name: str):
    family = registry._families.get(name)
    if family is None:
        return
    for key, metric in family.children.items():
        yield dict(key), metric


def _shard_of(labels: Mapping[str, str], label: str) -> str | None:
    return labels.get(label)


def _windowed_p99_ms(before: MetricsRegistry, after: MetricsRegistry,
                     shard: str, label: str,
                     family: str = "serve_request_seconds") -> float:
    """p99 over ``family`` observations made between the two snapshots,
    estimated by bucket-count subtraction; falls back to the cumulative
    histogram when the window saw no observations."""
    window: Histogram | None = None
    cumulative: Histogram | None = None
    before_hists = {
        tuple(sorted(labels.items())): metric
        for labels, metric in _children(before, family)
        if _shard_of(labels, label) == shard
    }
    for labels, metric in _children(after, family):
        if _shard_of(labels, label) != shard:
            continue
        if cumulative is None:
            cumulative = Histogram(metric.bounds)
            window = Histogram(metric.bounds)
        _merge_histogram(cumulative, _histogram_state(metric))
        prior = before_hists.get(tuple(sorted(labels.items())))
        delta = _histogram_state(metric)
        if prior is not None:
            delta["bucket_counts"] = [
                a - b for a, b in zip(metric.bucket_counts, prior.bucket_counts)
            ]
            delta["inf_count"] = metric.inf_count - prior.inf_count
            delta["count"] = metric.count - prior.count
            delta["sum"] = metric.sum - prior.sum
            # Windowed min/max cannot be differenced; the cumulative
            # min/max still bound every windowed observation, so the
            # quantile clamps stay sound.
        _merge_histogram(window, delta)
    if window is not None and window.count:
        return window.quantile(0.99) * 1e3
    if cumulative is not None and cumulative.count:
        return cumulative.quantile(0.99) * 1e3
    return 0.0


def _delta_sum(before: MetricsRegistry, after: MetricsRegistry,
               name: str, shard: str, label: str,
               predicate=None) -> float:
    prior = {
        tuple(sorted(labels.items())): metric.value
        for labels, metric in _children(before, name)
    }
    total = 0.0
    for labels, metric in _children(after, name):
        if _shard_of(labels, label) != shard:
            continue
        if predicate is not None and not predicate(labels):
            continue
        total += metric.value - prior.get(tuple(sorted(labels.items())), 0.0)
    return total


def fleet_rows(before: MetricsRegistry, after: MetricsRegistry,
               interval_s: float, label: str = "shard") -> list[dict[str, Any]]:
    """Per-shard status rows from two fleet snapshots ``interval_s``
    apart.  Rows are sorted coordinator-first, then by shard index."""
    interval_s = max(float(interval_s), 1e-9)
    shards: set[str] = set()
    for name in ("serve_requests_total", "slo_burn_rate", "shard_prune_skips_total"):
        for labels, _metric in _children(after, name):
            value = _shard_of(labels, label)
            if value is not None:
                shards.add(value)

    def sort_key(shard: str):
        return (0, 0) if shard == "coordinator" else (
            (1, int(shard)) if shard.isdigit() else (2, 0))

    rows: list[dict[str, Any]] = []
    for shard in sorted(shards, key=sort_key):
        requests = _delta_sum(before, after, "serve_requests_total", shard, label)
        errors = _delta_sum(
            before, after, "serve_requests_total", shard, label,
            predicate=lambda labels: labels.get("outcome") not in ("ok", None))
        burn = 0.0
        for labels, metric in _children(after, "slo_burn_rate"):
            if _shard_of(labels, label) == shard:
                burn = max(burn, metric.value)
        live_subs = 0.0
        for labels, metric in _children(after, "sub_active"):
            if _shard_of(labels, label) == shard:
                live_subs += metric.value
        rows.append({
            "shard": shard,
            "requests": requests,
            "errors": errors,
            "qps": requests / interval_s,
            "p99_ms": _windowed_p99_ms(before, after, shard, label),
            "prune_per_s": _delta_sum(
                before, after, "shard_prune_skips_total", shard, label) / interval_s,
            "slo_burn": burn if math.isfinite(burn) else 0.0,
            "live_subs": live_subs,
            "notify_per_s": _delta_sum(
                before, after, "sub_notifications_total", shard,
                label) / interval_s,
            "reeval_p99_ms": _windowed_p99_ms(
                before, after, shard, label, family="sub_reeval_seconds"),
        })
    return rows
