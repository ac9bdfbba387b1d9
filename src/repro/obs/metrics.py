"""Metrics registry: counters, gauges and fixed-bucket histograms.

The paper's single metric — R*-tree node accesses — answers *how much
work* a query did; a serving system also needs *where the time went* and
*which component did the work*.  This module is the aggregation side of
that story (the per-query side is :mod:`repro.obs.trace`):

* :class:`Counter` / :class:`Gauge` — monotone and point-in-time values;
* :class:`Histogram` — fixed upper-bound buckets with a running sum and
  count, plus bucket-interpolated quantile estimates (p50/p95/p99);
* :class:`MetricsRegistry` — the named family store every instrumented
  component shares.  One registry is constructor-injected into
  :class:`~repro.core.engine.NWCEngine`,
  :class:`~repro.storage.buffer.BufferPool` and
  :class:`~repro.storage.pages.PageFile`, so a process-wide view is one
  ``dump_metrics()`` call.

There are no external dependencies: ``dump_metrics()`` renders the
Prometheus text exposition format directly and ``to_dict()`` gives the
JSON-ready form the ``experiment --metrics`` flag writes.  Components
treat the registry as optional (``None`` disables recording entirely),
which keeps the un-instrumented hot paths free of metric calls.
"""

from __future__ import annotations

import bisect
import math
import time
from typing import Iterator, Mapping

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_WORK_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default histogram buckets for wall-clock latencies, in seconds.
#: Spans sub-100-microsecond page reads to multi-second sweep cells.
DEFAULT_LATENCY_BUCKETS = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default buckets for per-query work counters (node accesses, windows).
DEFAULT_WORK_BUCKETS = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0, 25000.0, 50000.0,
)


def _validate_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise ValueError(f"metric name cannot start with a digit: {name!r}")
    return name


def _label_key(labels: Mapping[str, object] | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format: backslash first,
    then double-quote and newline."""
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _escape_help(text: str) -> str:
    """Escape a HELP string per the exposition format (backslash and
    newline only — quotes are legal in help text)."""
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _render_labels(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    escaped = ((name, _escape_label_value(value)) for name, value in key)
    return "{" + ",".join(f'{name}="{value}"' for name, value in escaped) + "}"


def _render_value(value: float) -> str:
    """Prometheus-style number rendering (integers without the dot)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount


class Gauge:
    """A value that can go up and down (pool sizes, in-flight tasks)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram with a running count and sum.

    Buckets are cumulative upper bounds (Prometheus ``le`` semantics):
    ``bucket_counts[i]`` observations were ``<= bounds[i]``, with an
    implicit ``+Inf`` bucket holding everything larger.  Quantiles are
    estimated by linear interpolation inside the bucket that crosses the
    requested rank — exact at bucket edges, monotone everywhere, and
    within one bucket width of the true value, which is all a fixed-
    bucket design can promise.
    """

    __slots__ = ("bounds", "bucket_counts", "inf_count", "count", "sum",
                 "min", "max")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("bucket bounds must be strictly increasing")
        if bounds[-1] == math.inf:
            bounds = bounds[:-1]  # the +Inf bucket is implicit
        self.bounds = bounds
        self.bucket_counts = [0] * len(bounds)
        self.inf_count = 0
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = bisect.bisect_left(self.bounds, value)
        if index == len(self.bounds):
            self.inf_count += 1
        else:
            self.bucket_counts[index] += 1

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 <= q <= 1``); NaN when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return math.nan
        rank = q * self.count
        seen = 0.0
        lower = self.min
        for bound, bucket_count in zip(self.bounds, self.bucket_counts):
            if bucket_count:
                if seen + bucket_count >= rank:
                    lo = min(lower, bound)
                    frac = (rank - seen) / bucket_count
                    return min(lo + (bound - lo) * frac, self.max)
                seen += bucket_count
            lower = bound
        return self.max  # rank falls in the +Inf bucket

    def summary(self) -> dict[str, float]:
        """``count``/``sum``/``mean`` plus p50, p95, p99 estimates.

        An empty histogram reports zeros (not NaN) so summaries stay
        JSON-clean and safe to difference.
        """
        if self.count == 0:
            return {"count": 0.0, "sum": 0.0, "mean": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": float(self.count),
            "sum": self.sum,
            "mean": self.sum / self.count,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


#: One metric family: a kind, a help string and labeled children.
_KINDS = ("counter", "gauge", "histogram")


class _Family:
    __slots__ = ("name", "kind", "help", "children", "buckets")

    def __init__(self, name: str, kind: str, help_text: str,
                 buckets: tuple[float, ...] | None) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.children: dict[tuple[tuple[str, str], ...], object] = {}
        self.buckets = buckets

    def child(self, key: tuple[tuple[str, str], ...]):
        metric = self.children.get(key)
        if metric is None:
            if self.kind == "counter":
                metric = Counter()
            elif self.kind == "gauge":
                metric = Gauge()
            else:
                metric = Histogram(self.buckets or DEFAULT_LATENCY_BUCKETS)
            self.children[key] = metric
        return metric


class MetricsRegistry:
    """Named store of metric families shared by instrumented components.

    Accessors are get-or-create and idempotent: asking twice for the
    same ``(name, labels)`` returns the same object, so components can
    resolve their metrics once at construction time and pay only an
    attribute increment per event afterwards.  Asking for an existing
    name with a different kind is an error — one name, one meaning.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    def __len__(self) -> int:
        return len(self._families)

    def _family(self, name: str, kind: str, help_text: str,
                buckets: tuple[float, ...] | None = None) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = _Family(_validate_name(name), kind, help_text, buckets)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {family.kind}"
            )
        return family

    def counter(self, name: str, help_text: str = "",
                labels: Mapping[str, object] | None = None) -> Counter:
        """Get or create a counter."""
        return self._family(name, "counter", help_text).child(_label_key(labels))

    def gauge(self, name: str, help_text: str = "",
              labels: Mapping[str, object] | None = None) -> Gauge:
        """Get or create a gauge."""
        return self._family(name, "gauge", help_text).child(_label_key(labels))

    def histogram(self, name: str, help_text: str = "",
                  labels: Mapping[str, object] | None = None,
                  buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS) -> Histogram:
        """Get or create a histogram with the given bucket bounds."""
        return self._family(name, "histogram", help_text, buckets).child(
            _label_key(labels)
        )

    def time(self, histogram: Histogram) -> "_HistogramTimer":
        """Context manager observing the block's wall time into
        ``histogram``."""
        return _HistogramTimer(histogram)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def _iter_families(self) -> Iterator[_Family]:
        return iter(sorted(self._families.values(), key=lambda f: f.name))

    def dump_metrics(self) -> str:
        """Render every metric in the Prometheus text exposition format.

        Families are sorted by name and children by label key, so the
        output is deterministic (golden-testable) for a given state.
        """
        lines: list[str] = []
        for family in self._iter_families():
            if family.help:
                lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key in sorted(family.children):
                metric = family.children[key]
                label_text = _render_labels(key)
                if isinstance(metric, (Counter, Gauge)):
                    lines.append(
                        f"{family.name}{label_text} {_render_value(metric.value)}"
                    )
                    continue
                cumulative = 0
                for bound, bucket_count in zip(metric.bounds, metric.bucket_counts):
                    cumulative += bucket_count
                    le_key = key + (("le", _render_value(bound)),)
                    lines.append(
                        f"{family.name}_bucket{_render_labels(le_key)} {cumulative}"
                    )
                inf_key = key + (("le", "+Inf"),)
                lines.append(
                    f"{family.name}_bucket{_render_labels(inf_key)} {metric.count}"
                )
                lines.append(f"{family.name}_sum{label_text} {_render_value(metric.sum)}")
                lines.append(f"{family.name}_count{label_text} {metric.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> dict:
        """JSON-ready view: one entry per family, children keyed by
        rendered label text (empty string for the unlabeled child)."""
        out: dict[str, dict] = {}
        for family in self._iter_families():
            children: dict[str, object] = {}
            for key in sorted(family.children):
                metric = family.children[key]
                if isinstance(metric, (Counter, Gauge)):
                    children[_render_labels(key)] = metric.value
                else:
                    summary = metric.summary()
                    if metric.count:
                        summary["min"] = metric.min
                        summary["max"] = metric.max
                    children[_render_labels(key)] = summary
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "values": children,
            }
        return out


class _HistogramTimer:
    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "_HistogramTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._histogram.observe(time.perf_counter() - self._start)
