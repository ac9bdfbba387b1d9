"""Wire protocol of the query server: newline-delimited JSON.

Every request and response is one JSON object on one line (NDJSON).
Requests carry an ``op`` (``nwc``, ``knwc``, ``insert``, ``delete``,
``snapshot``, ``checkpoint``, ``health``, ``metrics``, ``subscribe``,
``unsubscribe``) plus op-specific fields and an optional opaque ``id``
the server echoes back.  ``subscribe`` registers a *standing* query:
after the ack, the server pushes unsolicited ``notify`` frames
(:func:`notify_frame`) over the same connection whenever an update
changed the answer — each carrying the fresh result, the dataset
version it was evaluated at and a per-subscription monotone
``revision``.  Updates
may additionally carry a client-generated request id ``req``: the
server remembers acknowledged ``req`` ids (and persists them through
its write-ahead log) and answers a repeated id with the original
response plus ``"deduped": true`` instead of applying the update again
— the contract that makes client retries idempotent.  Responses carry
``ok`` — ``true`` with op-specific payload fields, or ``false`` with a
typed ``error`` object (``code`` from :data:`ERROR_CODES`).

Any request may carry a ``trace`` object (``trace_id``, ``span_id``,
``sampled`` — see :class:`repro.obs.context.TraceContext`): a sampled
context makes the server record a span tree for the request and return
it (serialized, with its I/O deltas) under ``trace`` in the response,
parented at the caller's ``span_id``.  The ``metrics`` op accepts
``format`` (``json``/``prometheus``/``state``) and ``scope``
(``local``, or ``fleet`` on a shard coordinator, which scatter-scrapes
every worker and merges the registries under a ``shard`` label).

Query answers are serialized deterministically: ``json`` renders floats
with ``repr``, which round-trips IEEE doubles exactly, so a cached
response compares bit-identical to a freshly computed one whenever the
underlying :class:`~repro.core.results.NWCResult` is the same.  The
serialized ``result`` object deliberately excludes the volatile I/O
counters (those travel separately under ``stats``), because work done
is not part of the answer.

This module also derives the *shield radii* the result cache uses for
targeted invalidation — the geometric argument lives with the
serialization because both must agree on what exactly is cached (see
:mod:`repro.serve.cache` for how the radii are applied).
"""

from __future__ import annotations

import json
import math
from typing import Any

from ..core import DistanceMeasure, KNWCQuery, KNWCResult, NWCQuery, NWCResult
from ..core.knwc import Rank
from ..core.results import ObjectGroup
from ..geometry import PointObject, Rect
from ..obs.context import TraceContext

__all__ = [
    "ERROR_CODES",
    "MAINTENANCE_MODES",
    "EncodedResult",
    "decode_line",
    "encode_line",
    "encode_result",
    "error_response",
    "group_from_payload",
    "parse_knwc",
    "parse_nwc",
    "parse_point",
    "parse_page",
    "parse_request_id",
    "parse_subscription",
    "parse_subscription_id",
    "parse_trace",
    "notify_frame",
    "serialize_knwc",
    "serialize_nwc",
    "shield_radii_knwc",
    "shield_radii_nwc",
]

#: Typed error codes a response can carry.
ERROR_CODES = (
    "bad_request",        # unparsable line, unknown op, invalid parameters
    "overloaded",         # admission control rejected the request
    "deadline_exceeded",  # the request expired before the engine ran it
    "draining",           # the server is shutting down gracefully
    "shard_unavailable",  # a sharded coordinator lost a required shard
    "internal",           # unexpected failure; the message names the cause
)

#: kNWC result-maintenance modes accepted on the wire.
MAINTENANCE_MODES = ("exact", "paper")

#: Maximum accepted request line (bytes); a guard against runaway input.
MAX_LINE_BYTES = 1 << 20


class ProtocolError(ValueError):
    """A request the server cannot interpret (maps to ``bad_request``)."""


#: The one encoder of every line: compact separators, sorted keys.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


class EncodedResult(dict):
    """A ``result`` payload that carries its own wire text.

    Built once by :func:`encode_result` when an answer is computed; to
    every in-process reader it is the plain payload dict, while
    :func:`encode_line` splices :attr:`wire` into a response instead of
    re-encoding the answer — so a cache hit serves stored bytes.  Treat
    it as immutable: the text is not refreshed on mutation.
    """

    __slots__ = ("wire",)


def encode_result(payload: dict[str, Any]) -> EncodedResult:
    """``payload`` with its wire text attached (encoded once, here)."""
    result = EncodedResult(payload)
    result.wire = _ENCODER.encode(payload)
    return result


def encode_line(obj: dict[str, Any]) -> bytes:
    """One NDJSON line: compact separators, sorted keys (deterministic).

    An :class:`EncodedResult` under ``result`` is spliced in as its
    stored text between the keys that sort before and after it; the
    line equals the ``json.dumps`` of the plain dict byte for byte.
    """
    result = obj.get("result")
    if type(result) is not EncodedResult:
        return (_ENCODER.encode(obj) + "\n").encode()
    head: dict[str, Any] = {}
    tail: dict[str, Any] = {}
    for key, value in obj.items():
        if key < "result":
            head[key] = value
        elif key != "result":
            tail[key] = value
    text = '"result":' + result.wire
    text = (_ENCODER.encode(head)[:-1] + "," if head else "{") + text
    text += "," + _ENCODER.encode(tail)[1:] if tail else "}"
    return (text + "\n").encode()


def decode_line(line: bytes) -> dict[str, Any]:
    """Parse one request line into a dict, or raise :class:`ProtocolError`."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("request must be a JSON object")
    return obj


def error_response(code: str, message: str, request_id=None) -> dict[str, Any]:
    """The ``ok: false`` envelope for a typed error."""
    assert code in ERROR_CODES, code
    response: dict[str, Any] = {
        "ok": False,
        "error": {"code": code, "message": message},
    }
    if request_id is not None:
        response["id"] = request_id
    return response


# ----------------------------------------------------------------------
# Request parsing
# ----------------------------------------------------------------------
def _number(payload: dict, key: str) -> float:
    value = payload.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ProtocolError(f"field {key!r} must be a number, got {value!r}")
    return float(value)


def _finite(value) -> bool:
    """Whether ``value`` is a finite JSON number (``bool`` is not)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _integer(payload: dict, key: str, default: int | None = None) -> int:
    value = payload.get(key, default)
    if value is None or isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"field {key!r} must be an integer, got {value!r}")
    return value


def parse_nwc(payload: dict[str, Any]) -> NWCQuery:
    """Build the :class:`NWCQuery` described by an ``nwc`` request."""
    measure_name = payload.get("measure", DistanceMeasure.MAX.value)
    try:
        measure = DistanceMeasure(measure_name)
    except ValueError as exc:
        raise ProtocolError(f"unknown measure {measure_name!r}") from exc
    return NWCQuery(
        _number(payload, "x"), _number(payload, "y"),
        _number(payload, "length"), _number(payload, "width"),
        _integer(payload, "n"), measure,
    )


def parse_knwc(payload: dict[str, Any]) -> tuple[KNWCQuery, str]:
    """Build the :class:`KNWCQuery` (and maintenance mode) of a ``knwc``
    request."""
    base = parse_nwc(payload)
    query = KNWCQuery(base, _integer(payload, "k"), _integer(payload, "m", 0))
    maintenance = payload.get("maintenance", "exact")
    if maintenance not in MAINTENANCE_MODES:
        raise ProtocolError(f"unknown maintenance mode {maintenance!r}")
    return query, maintenance


#: Longest accepted ``req`` id — they are persisted per-record in the
#: WAL and in the checkpoint pointer, so size is bounded on the wire.
MAX_REQUEST_ID_CHARS = 128


def parse_request_id(payload: dict[str, Any]) -> str | None:
    """The optional idempotency id (``req``) of an update request."""
    req = payload.get("req")
    if req is None:
        return None
    if not isinstance(req, str) or not req:
        raise ProtocolError("field 'req' must be a non-empty string")
    if len(req) > MAX_REQUEST_ID_CHARS:
        raise ProtocolError(
            f"field 'req' exceeds {MAX_REQUEST_ID_CHARS} characters")
    return req


def parse_page(payload: dict[str, Any]) -> tuple[int, Rank | None, float]:
    """The ``(limit, after, ceiling)`` of a ``knwc_pool`` page request.

    ``limit`` is a positive integer; ``after`` is the cursor the page
    starts strictly after — ``[distance, [anchor distance, frame y],
    [oids…]]``, the rank of the previous page's last group — or
    absent/``null`` for the first page; ``ceiling`` is the finite,
    positive distance the page stops below, or absent/``null`` (``inf``:
    no ceiling).
    """
    limit = payload.get("limit")
    if isinstance(limit, bool) or not isinstance(limit, int) or limit <= 0:
        raise ProtocolError(
            f"field 'limit' must be a positive integer, got {limit!r}")
    ceiling = payload.get("ceiling")
    if ceiling is None:
        ceiling = math.inf
    elif _finite(ceiling) and ceiling > 0:
        ceiling = float(ceiling)
    else:
        raise ProtocolError(
            f"field 'ceiling' must be a finite positive number, got "
            f"{ceiling!r}")
    after = payload.get("after")
    if after is None:
        return limit, None, ceiling
    try:
        distance, order, oids = after
        anchor, frame_y = order
        if not (_finite(distance) and _finite(anchor) and _finite(frame_y)
                and all(isinstance(oid, int) and not isinstance(oid, bool)
                        for oid in oids)):
            raise ValueError("non-finite number or non-integer oid")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(
            "field 'after' must be [distance, [anchor distance, frame y], "
            "[oids...]] with finite numbers and integer oids, got "
            f"{after!r}") from exc
    return limit, (float(distance), (float(anchor), float(frame_y)),
                   tuple(oids)), ceiling


def parse_trace(payload: dict[str, Any]) -> TraceContext | None:
    """The optional distributed-trace context of any request.

    Absent or ``null`` means untraced; malformed contexts are a
    :class:`ProtocolError` (→ ``bad_request``), never silently dropped,
    so a caller who asked for a trace cannot lose it to a typo.
    """
    raw = payload.get("trace")
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ProtocolError("field 'trace' must be an object or null")
    try:
        return TraceContext.from_wire(raw)
    except ValueError as exc:
        raise ProtocolError(f"malformed trace context: {exc}") from exc


#: Longest accepted subscription id (``sub``) — persisted in WAL
#: ``subscribe`` records and the checkpoint pointer, like ``req`` ids.
MAX_SUBSCRIPTION_ID_CHARS = 128


def parse_subscription_id(payload: dict[str, Any],
                          required: bool = False) -> str | None:
    """The subscription id (``sub``) of a subscription frame.

    ``subscribe`` may omit it (the server then generates one and
    returns it in the ack); ``unsubscribe`` requires it.
    """
    sub = payload.get("sub")
    if sub is None:
        if required:
            raise ProtocolError("field 'sub' is required")
        return None
    if not isinstance(sub, str) or not sub:
        raise ProtocolError("field 'sub' must be a non-empty string")
    if len(sub) > MAX_SUBSCRIPTION_ID_CHARS:
        raise ProtocolError(
            f"field 'sub' exceeds {MAX_SUBSCRIPTION_ID_CHARS} characters")
    return sub


def parse_subscription(payload: dict[str, Any]
                       ) -> tuple[str, dict[str, Any], Any, str]:
    """The standing query of a ``subscribe`` request.

    Returns ``(kind, spec, query, maintenance)`` where ``spec`` is the
    *canonical* field dict (re-parses to the same query) that the WAL
    record and the checkpoint pointer persist.  The kind is ``knwc``
    when the request carries ``k``, ``nwc`` otherwise.
    """
    if "k" in payload:
        query, maintenance = parse_knwc(payload)
        base = query.base
        spec = {"x": base.qx, "y": base.qy, "length": base.length,
                "width": base.width, "n": base.n,
                "measure": base.measure.value, "k": query.k, "m": query.m,
                "maintenance": maintenance}
        return "knwc", spec, query, maintenance
    query = parse_nwc(payload)
    spec = {"x": query.qx, "y": query.qy, "length": query.length,
            "width": query.width, "n": query.n,
            "measure": query.measure.value}
    return "nwc", spec, query, "exact"


def notify_frame(sub_id: str, kind: str, revision: int, version: int,
                 result: dict[str, Any]) -> dict[str, Any]:
    """One server-push ``notify`` frame: the fresh answer of a standing
    query, stamped with the dataset version it was evaluated at and the
    subscription's monotone revision.  Deliberately carries no ``ok``
    field — a client mistakenly issuing one-shot calls on a streaming
    connection fails loudly instead of consuming a notification as its
    response.
    """
    return {"op": "notify", "sub": sub_id, "kind": kind,
            "revision": revision, "version": version, "result": result}


def parse_point(payload: dict[str, Any]) -> PointObject:
    """The :class:`PointObject` of an ``insert``/``delete`` request."""
    oid = _integer(payload, "oid")
    obj = PointObject(oid, _number(payload, "x"), _number(payload, "y"))
    if not (math.isfinite(obj.x) and math.isfinite(obj.y)):
        raise ProtocolError("object coordinates must be finite")
    return obj


# ----------------------------------------------------------------------
# Result serialization
# ----------------------------------------------------------------------
def _serialize_group(group: ObjectGroup) -> dict[str, Any]:
    return {
        "distance": group.distance,
        "objects": [[p.oid, p.x, p.y] for p in group.objects],
        "window": [group.window.x1, group.window.y1,
                   group.window.x2, group.window.y2],
    }


def group_from_payload(payload: dict[str, Any]) -> ObjectGroup:
    """Rebuild the :class:`ObjectGroup` serialized by
    ``_serialize_group`` — the inverse a scatter-gather coordinator
    needs to merge shard answers.  ``json`` renders floats with
    ``repr``, so the round trip is bit-exact and the rebuilt group
    compares equal to the original.
    """
    try:
        objects = tuple(
            PointObject(int(o[0]), float(o[1]), float(o[2]))
            for o in payload["objects"]
        )
        window = payload["window"]
        rect = Rect(float(window[0]), float(window[1]),
                    float(window[2]), float(window[3]))
        return ObjectGroup(objects, float(payload["distance"]), rect)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed group payload: {exc}") from exc


def serialize_nwc(result: NWCResult) -> dict[str, Any]:
    """The deterministic answer payload of one NWC result (no stats)."""
    return {
        "found": result.found,
        "group": _serialize_group(result.group) if result.group else None,
        "reason": result.reason,
    }


def serialize_knwc(result: KNWCResult) -> dict[str, Any]:
    """The deterministic answer payload of one kNWC result (no stats)."""
    return {
        "groups": [_serialize_group(g) for g in result.groups],
        "reason": result.reason,
    }


# ----------------------------------------------------------------------
# Cache shields
# ----------------------------------------------------------------------
# An update at point u can change a cached answer only by changing some
# candidate window's group, and every window containing u lies within
# dist(q, u) ± diagonal of the query point.  Quantitatively, for a
# cached best distance d:
#
# * an inserted object can only join (or newly qualify) a window whose
#   group distance is at least dist(q, u) - diagonal under every
#   measure, so inserts farther than d + diagonal cannot beat d;
# * a deleted object can only change groups of windows it was inside,
#   and the re-selected group's distance is at least
#   dist(q, u) - 2·diagonal (the extra diagonal covers the
#   NEAREST_WINDOW measure, whose group distance may sit one diagonal
#   below its members' distances), so deletes farther than
#   d + 2·diagonal cannot produce a group beating d — and cannot have
#   touched the cached winning window either, whose objects all lie
#   within d + diagonal of q.
#
# The cache keeps an entry across an update iff dist(q, u) is *strictly*
# greater than the shield radius; strictness means a new group can never
# even tie the cached distance, so oid tie-breaking cannot flip the
# answer.  We use the conservative d + 2·diagonal for both operations.
#
# Entries without a usable bound fall back to full invalidation:
# a radius of +inf means "any such update invalidates", -inf means
# "no such update can affect this entry".
ALWAYS_INVALIDATE = math.inf
NEVER_INVALIDATE = -math.inf


def shield_radii_nwc(query: NWCQuery, result: NWCResult) -> tuple[float, float]:
    """``(insert_radius, delete_radius)`` shielding a cached NWC answer.

    A *found* answer is invalidated by updates within
    ``distance + 2·diagonal`` of the query point.  A *not found* answer
    is invalidated by any insert (a new object anywhere can create the
    first qualified window) but by no delete (removing objects can never
    create a window; the size-threshold ``reason`` flip is handled by
    the delete probe's ``n > new_size`` rule, see
    :meth:`repro.sub.SubscriptionIndex.affected`).
    """
    if result.found and math.isfinite(result.distance):
        radius = result.distance + 2.0 * query.diagonal
        return radius, radius
    return ALWAYS_INVALIDATE, NEVER_INVALIDATE


def shield_radii_knwc(query: KNWCQuery, result: KNWCResult) -> tuple[float, float]:
    """``(insert_radius, delete_radius)`` shielding a cached kNWC answer.

    With a full complement of ``k`` groups, any candidate group changed
    by an update beyond ``max distance + 2·diagonal`` ranks strictly
    after every returned group, so the greedy replay picks the same
    ``k`` — the same radius shields both operations.  A *partial*
    answer (``0 < len < k``) has no such bound: a changed candidate
    anywhere may gain or lose overlap-feasibility, so both operations
    fall back to full invalidation.  An *empty* answer behaves like a
    not-found NWC answer.
    """
    if len(result.groups) == query.k:
        worst = max(g.distance for g in result.groups)
        if math.isfinite(worst):
            radius = worst + 2.0 * query.base.diagonal
            return radius, radius
        return ALWAYS_INVALIDATE, ALWAYS_INVALIDATE
    if result.groups:
        return ALWAYS_INVALIDATE, ALWAYS_INVALIDATE
    return ALWAYS_INVALIDATE, NEVER_INVALIDATE
