"""Per-query tracing: structured span trees with I/O and attribution.

A trace answers, for one query, the questions the aggregate registry
cannot: *which* window query burned the node accesses, *how long* its
window enumeration took, and *which paper optimization* saved work.  The
span tree mirrors the shape of Algorithm 1, and is the same whichever
search answers the query (``repro.core.oracle`` or
``repro.core.columnar``):

.. code-block:: text

    query:nwc  scheme=NWC* execution=columnar
    └─ search                      (the best-first object loop)
       ├─ window_query  oid=17    (one Algorithm-1 region fetch)
       │  └─ enumerate            (candidate-window sweep + measures)
       ├─ window_query  oid=4
       ...

Every span records wall time and the delta of the tree's
:class:`~repro.storage.IOStats` across its lifetime, so the tree is
*conservative*: a parent's I/O delta equals its own work plus the sum of
its children, and the root's delta is exactly the query result's
``stats`` snapshot.  On top of that, spans carry **attribution
counters** for the paper's optimizations (how many objects SRR skipped,
regions SRR shrunk, index nodes DIP/DEP pruned, window queries DEP
cancelled, root descents IWP avoided), which the CLI's ``--explain``
mode turns into a savings report.

Two tracer implementations share the interface:

* :data:`NULL_TRACER` (a :class:`NullTracer`) — the default everywhere.
  Its ``enabled`` flag is ``False`` and its span calls do nothing, so
  the disabled cost is a handful of attribute reads: an unobserved
  query builds no attribution and reads no clock
  (``tests/test_core_leaf_batch.py`` counts both).  A tracer never
  picks which code answers: a traced query runs the code an untraced
  one runs, and only the clock reads at span edges are its own.
* :class:`QueryTracer` — records spans, bounded by ``max_spans`` so a
  baseline-scheme query over a large dataset cannot hoard memory; spans
  beyond the cap are counted in ``dropped_spans`` instead of kept.  A
  tracer belongs to one query at a time (it binds ``stats`` to the
  query's counters): a server gives each sampled request its own.

Export: :func:`format_span_tree` renders the tree for terminals,
:func:`span_to_dict` / :func:`write_jsonl` produce the structured sink
(one JSON object per root span per line), and :func:`explain` summarizes
attribution across a whole trace.
"""

from __future__ import annotations

import json
import os
import time
from typing import IO, Iterable, Mapping

__all__ = [
    "ATTRIBUTION_KEYS",
    "NULL_TRACER",
    "NullTracer",
    "QueryTracer",
    "Span",
    "explain",
    "format_span_tree",
    "span_from_dict",
    "span_to_dict",
    "write_jsonl",
]

#: Attribution counter names, in report order, with their meanings.
ATTRIBUTION_KEYS: tuple[tuple[str, str], ...] = (
    ("srr_objects_skipped", "objects skipped by SRR (region shrunk away)"),
    ("srr_regions_shrunk", "search regions shrunk by SRR"),
    ("srr_early_stop", "object streams stopped early by SRR"),
    ("dip_nodes_pruned", "index nodes pruned by DIP"),
    ("dep_nodes_pruned", "index nodes pruned by DEP"),
    ("dep_windows_cancelled", "window queries cancelled by DEP"),
    ("iwp_root_descents_avoided", "root descents avoided by IWP"),
    ("windows_pruned_by_bound", "qualified windows pruned by MINDIST bound"),
)


class Span:
    """One timed node of a trace tree.

    Attributes:
        name: Span kind (``query:nwc``, ``search``, ``window_query``,
            ``enumerate``).
        attrs: Free-form attributes (query parameters, object ids,
            member counts).
        io: Counter deltas of the tree's ``IOStats`` across the span.
        counts: Attribution counters recorded while the span was open.
        children: Nested spans, in start order.
    """

    __slots__ = ("name", "attrs", "io", "counts", "children",
                 "start", "duration", "_io_before")

    def __init__(self, name: str, attrs: dict | None = None) -> None:
        self.name = name
        self.attrs = attrs if attrs is not None else {}
        self.io: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.children: list[Span] = []
        self.start = 0.0
        self.duration = 0.0
        self._io_before: dict[str, int] | None = None

    def count(self, key: str, amount: int = 1) -> None:
        """Bump one attribution counter on this span."""
        self.counts[key] = self.counts.get(key, 0) + amount

    @property
    def self_io(self) -> dict[str, int]:
        """This span's I/O minus its children's — the work it did
        itself rather than delegated."""
        own = dict(self.io)
        for child in self.children:
            for key, value in child.io.items():
                own[key] = own.get(key, 0) - value
        return own

    def total_counts(self) -> dict[str, int]:
        """Attribution counters summed over this span and its subtree."""
        totals = dict(self.counts)
        for child in self.children:
            for key, value in child.total_counts().items():
                totals[key] = totals.get(key, 0) + value
        return totals


class NullTracer:
    """The do-nothing tracer; instrumentation checks ``enabled`` once
    per query and skips every recording path when it is ``False``."""

    enabled = False
    __slots__ = ()

    def start_span(self, name: str, attrs: dict | None = None) -> None:
        return None

    def end_span(self, span) -> None:
        return None

    def span(self, name: str, attrs: dict | None = None) -> "_NullSpanContext":
        return _NULL_SPAN

    @property
    def roots(self) -> tuple[Span, ...]:
        return ()


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpanContext()

#: Shared instance: the default ``tracer`` of every instrumented class.
NULL_TRACER = NullTracer()


class QueryTracer:
    """Records a span tree per traced query.

    Args:
        stats: The :class:`~repro.storage.IOStats` instance whose deltas
            spans capture; usually the engine wires its tree's stats in,
            so callers only construct a bare tracer.
        max_spans: Hard cap on retained spans across the whole trace;
            the cap never changes timings or I/O accounting, only how
            much of the tree is kept (``dropped_spans`` counts the rest).
    """

    enabled = True

    def __init__(self, stats=None, max_spans: int = 10_000) -> None:
        if max_spans <= 0:
            raise ValueError("max_spans must be positive")
        self.stats = stats
        self.max_spans = max_spans
        self.span_count = 0
        self.dropped_spans = 0
        self._stack: list[Span | None] = []
        self._roots: list[Span] = []

    @property
    def roots(self) -> tuple[Span, ...]:
        """Completed top-level spans (one per traced query)."""
        return tuple(self._roots)

    @property
    def last(self) -> Span | None:
        """The most recently completed top-level span."""
        return self._roots[-1] if self._roots else None

    def start_span(self, name: str, attrs: dict | None = None) -> Span | None:
        """Open a span under the innermost open span (or as a root).

        Returns ``None`` past ``max_spans``; :meth:`end_span` accepts
        that ``None`` so call sites need no cap-awareness.
        """
        if self.span_count >= self.max_spans:
            self.dropped_spans += 1
            self._stack.append(None)
            return None
        self.span_count += 1
        span = Span(name, attrs)
        if self.stats is not None:
            span._io_before = self.stats.snapshot()
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def end_span(self, span: Span | None) -> None:
        """Close the innermost open span (which must be ``span``)."""
        ended = time.perf_counter()
        if not self._stack:
            raise RuntimeError("end_span without a matching start_span")
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(
                f"span nesting violated: closing {getattr(span, 'name', None)!r} "
                f"but {getattr(top, 'name', None)!r} is innermost"
            )
        if span is None:
            return
        span.duration = ended - span.start
        if span._io_before is not None and self.stats is not None:
            after = self.stats.snapshot()
            span.io = {
                key: after[key] - before
                for key, before in span._io_before.items()
                if after[key] != before
            }
            span._io_before = None
        parent = next((s for s in reversed(self._stack) if s is not None), None)
        if parent is not None:
            parent.children.append(span)
        else:
            self._roots.append(span)

    def span(self, name: str, attrs: dict | None = None) -> "_SpanContext":
        """``with tracer.span("..."):`` convenience wrapper."""
        return _SpanContext(self, name, attrs)


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_attrs", "span")

    def __init__(self, tracer: QueryTracer, name: str, attrs: dict | None) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self.span: Span | None = None

    def __enter__(self) -> Span | None:
        self.span = self._tracer.start_span(self._name, self._attrs)
        return self.span

    def __exit__(self, *exc_info) -> None:
        self._tracer.end_span(self.span)


# ----------------------------------------------------------------------
# Rendering and export
# ----------------------------------------------------------------------
def _format_attrs(attrs: Mapping[str, object]) -> str:
    parts = []
    for key, value in attrs.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:.6g}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def format_span_tree(span: Span, io_key: str = "node_accesses") -> str:
    """Render one span tree as an indented text block.

    Each line shows the span name, wall time, its subtree's ``io_key``
    delta (with the span's own share in parentheses when it has
    children), attributes and any attribution counts.
    """
    lines: list[str] = []

    def render(node: Span, prefix: str, is_last: bool, is_root: bool) -> None:
        connector = "" if is_root else ("└─ " if is_last else "├─ ")
        total = node.io.get(io_key, 0)
        io_text = f"{io_key}={total}"
        if node.children:
            io_text += f" (self={node.self_io.get(io_key, 0)})"
        fields = [node.name, f"{node.duration * 1e3:.3f}ms", io_text]
        if node.attrs:
            fields.append(_format_attrs(node.attrs))
        if node.counts:
            fields.append(_format_attrs(node.counts))
        lines.append(prefix + connector + "  ".join(fields))
        child_prefix = prefix if is_root else prefix + ("   " if is_last else "│  ")
        for index, child in enumerate(node.children):
            render(child, child_prefix, index == len(node.children) - 1, False)

    render(span, "", True, True)
    return "\n".join(lines)


def span_to_dict(span: Span) -> dict:
    """JSON-ready form of one span subtree."""
    return {
        "name": span.name,
        "duration_s": span.duration,
        "attrs": dict(span.attrs),
        "io": dict(span.io),
        "counts": dict(span.counts),
        "children": [span_to_dict(child) for child in span.children],
    }


def span_from_dict(payload: Mapping) -> Span:
    """Rebuild a :class:`Span` subtree from :func:`span_to_dict` output.

    This is how a trace crosses a process boundary: shard workers ship
    their subtree in the response envelope as the dict form and the
    coordinator grafts the rebuilt spans under its stitched root.
    Malformed payloads raise ``ValueError``.
    """
    if not isinstance(payload, Mapping):
        raise ValueError("span payload must be an object")
    try:
        span = Span(str(payload.get("name", "")), dict(payload.get("attrs") or {}))
        span.duration = float(payload.get("duration_s", 0.0))
        span.io = {str(k): int(v) for k, v in (payload.get("io") or {}).items()}
        span.counts = {str(k): int(v)
                       for k, v in (payload.get("counts") or {}).items()}
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed span payload: {exc}") from exc
    children = payload.get("children") or ()
    if not isinstance(children, (list, tuple)):
        raise ValueError("span children must be a list")
    span.children = [span_from_dict(child) for child in children]
    return span


def write_jsonl(spans: Iterable[Span], path_or_file: str | os.PathLike[str] | IO[str]) -> int:
    """Write one JSON object per root span per line; returns the count.

    Accepts a path (opened for append, the sink convention) or any
    text file object (e.g. ``sys.stdout``).
    """
    count = 0
    if hasattr(path_or_file, "write"):
        for span in spans:
            path_or_file.write(json.dumps(span_to_dict(span), sort_keys=True) + "\n")
            count += 1
        return count
    with open(path_or_file, "a") as handle:
        for span in spans:
            handle.write(json.dumps(span_to_dict(span), sort_keys=True) + "\n")
            count += 1
    return count


def explain(span: Span) -> str:
    """Summarize which optimizations fired in one query's trace.

    For each attribution counter the report shows the count and — where
    the trace has the data — what it saved: DIP/DEP node prunes save at
    least one node access each, DEP cancellations save whole window
    queries, and IWP avoided descents save the root-to-leaf path.
    """
    totals = span.total_counts()
    io = span.io
    lines = [f"optimization attribution for {span.name} "
             f"({span.duration * 1e3:.3f}ms, "
             f"{io.get('node_accesses', 0)} node accesses):"]
    fired = False
    for key, description in ATTRIBUTION_KEYS:
        value = totals.get(key, 0)
        if not value:
            continue
        fired = True
        lines.append(f"  {key:<28} {value:>8}  ({description})")
    if not fired:
        lines.append("  (no optimization fired — baseline scheme or "
                     "nothing to prune)")
    window_queries = io.get("window_queries", 0)
    cancelled = io.get("window_queries_cancelled", 0)
    if window_queries or cancelled:
        lines.append(
            f"  window queries issued: {window_queries}, "
            f"cancelled by DEP: {cancelled}"
        )
    rpcs = [child for child in span.children if child.name.startswith("rpc:")]
    if rpcs:
        lines.append("  per-shard attribution (stitched trace):")
        for child in rpcs:
            attrs = child.attrs
            rpc_ms = float(attrs.get("rpc_s", child.duration) or 0.0) * 1e3
            engine_ms = float(attrs.get("engine_s", 0.0) or 0.0) * 1e3
            net_ms = float(attrs.get("net_s", 0.0) or 0.0) * 1e3
            lines.append(
                f"    shard {attrs.get('shard', '?')!s:>3} {child.name[4:]:<14} "
                f"[{attrs.get('stage', '?')}]  rpc {rpc_ms:.3f}ms = "
                f"engine {engine_ms:.3f}ms + net/queue {net_ms:.3f}ms  "
                f"node_accesses={child.io.get('node_accesses', 0)}"
            )
    return "\n".join(lines)
