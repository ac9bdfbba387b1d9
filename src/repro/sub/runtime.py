"""Subscription evaluation and maintenance.

:func:`reconcile` is the one maintenance step every code path shares:
:func:`repro.serve.durability.apply_record` calls it right after an
update applies — on a live server inside the exclusive write slot (so
notifications are bit-identical to a fresh query at that dataset
version), and record by record during recovery — which is exactly why
revisions continue across ``kill -9`` instead of forking: the replayed
re-evaluations are the same deterministic computations, run by the same
code, the live server performed.

:func:`register` and :func:`unregister` are shared the same way: a
live server's ``subscribe``/``unsubscribe`` and the replay of their
records run them, so the acks are built once.

The index names the subscriptions an update makes due
(:meth:`~repro.sub.index.SubscriptionIndex.due`); :func:`advance`
stores one fresh evaluation of each.  A shard coordinator runs both
halves around scatter-gather re-evaluations.

The :mod:`repro.serve.protocol` imports are deliberately lazy: the
serve package imports :mod:`repro.sub` (durability restores
subscription state), so a module-level import here would be circular.
"""

from __future__ import annotations

from typing import Any

from .index import Subscription, SubscriptionIndex

__all__ = [
    "advance",
    "evaluate_subscription",
    "parse_spec",
    "reconcile",
    "register",
    "subscription_from_record",
    "unregister",
]


def parse_spec(kind: str, spec: dict[str, Any],
               maintenance: str) -> tuple[Any, float, float, int]:
    """Parse a subscription ``spec`` into ``(query, qx, qy, n)``
    through the wire parsers, so a spec that came off the WAL is
    validated exactly like a live request."""
    from ..serve import protocol

    if kind == "nwc":
        query = protocol.parse_nwc(spec)
        return query, query.qx, query.qy, query.n
    if kind == "knwc":
        query, parsed_maintenance = protocol.parse_knwc(spec)
        if parsed_maintenance != maintenance:
            raise ValueError(
                f"maintenance mismatch: spec says {parsed_maintenance!r}, "
                f"state says {maintenance!r}")
        base = query.base
        return query, base.qx, base.qy, base.n
    raise ValueError(f"unknown subscription kind {kind!r}")


def evaluate_subscription(engine: Any,
                          sub: Subscription) -> tuple[dict[str, Any],
                                                      float, float]:
    """One fresh evaluation: ``(serialized answer, insert_radius,
    delete_radius)`` — the exact payload a one-shot query op would
    return, so pushed notifications are bit-identical to querying."""
    from ..serve import protocol

    if sub.kind == "nwc":
        result = engine.nwc(sub.query)
        return (protocol.serialize_nwc(result),
                *protocol.shield_radii_nwc(sub.query, result))
    if sub.kind == "knwc":
        result = engine.knwc(sub.query, maintenance=sub.maintenance)
        return (protocol.serialize_knwc(result),
                *protocol.shield_radii_knwc(sub.query, result))
    raise ValueError(f"cannot evaluate subscription kind {sub.kind!r}")


def subscription_from_record(record: dict[str, Any]) -> Subscription:
    """Build the :class:`Subscription` a WAL ``subscribe`` record
    describes (revision 0 — the caller evaluates or restores the answer
    state)."""
    sub_id = record.get("sub")
    if not isinstance(sub_id, str) or not sub_id:
        raise ValueError("subscribe record without a subscription id")
    kind = str(record.get("kind", "nwc"))
    spec = {key: value for key, value in record.items()
            if key not in ("op", "sub", "kind", "req")}
    maintenance = str(spec.get("maintenance", "exact"))
    query, qx, qy, n = parse_spec(kind, spec, maintenance)
    return Subscription(sub_id=sub_id, kind=kind, spec=spec, query=query,
                        maintenance=maintenance, qx=qx, qy=qy, n=n)


def register(index: SubscriptionIndex, sub: Subscription,
             evaluation: tuple[dict[str, Any], float, float],
             version: int) -> dict[str, Any]:
    """Add a new standing query at revision 1 with its first
    ``evaluation`` (made at dataset ``version``) and return the
    ``subscribe`` ack.  The one registration step: a live server runs
    it for the subscribe it serves, recovery for the record it
    replays, so both build the same ack."""
    sub.result, sub.insert_radius, sub.delete_radius = evaluation
    sub.revision, sub.version = 1, version
    index.add(sub)
    return {"ok": True, "op": "subscribe", "sub": sub.sub_id,
            "kind": sub.kind, "version": version, "revision": 1,
            "result": sub.result}


def unregister(index: SubscriptionIndex, sub_id: str,
               version: int) -> dict[str, Any]:
    """Drop a standing query, detached from its push target, and return
    the ``unsubscribe`` ack (an unknown id is acked as not removed)."""
    removed = index.remove(sub_id)
    if removed is not None and removed.conn is not None:
        removed.conn.subs.discard(sub_id)
        removed.conn = None
    return {"ok": True, "op": "unsubscribe", "sub": sub_id,
            "removed": removed is not None, "version": version}


def advance(index: SubscriptionIndex, sub: Subscription, version: int,
            evaluation: tuple[dict[str, Any], float, float]) -> bool:
    """Store one fresh ``evaluation`` (``(payload, insert_radius,
    delete_radius)``, made at dataset ``version``) on ``sub``.  Returns
    whether the answer changed — then the payload and radii are stored,
    ``revision`` is bumped and the subscription rebucketed (the caller
    pushes the ``notify`` frame)."""
    payload, insert_radius, delete_radius = evaluation
    sub.version = version
    if payload == sub.result:
        return False
    sub.result = payload
    sub.revision += 1
    sub.insert_radius = insert_radius
    sub.delete_radius = delete_radius
    index.rebucket(sub)
    return True


def reconcile(index: SubscriptionIndex, engine: Any, op: str,
              x: float, y: float, new_size: int,
              version: int) -> tuple[list[Subscription], int]:
    """Bring every subscription the update can affect up to date: the
    index names them (:meth:`~SubscriptionIndex.due`), each is
    re-evaluated on ``engine`` and stored through :func:`advance`.

    Called with the update already applied (dataset at ``version``) and
    the caller holding whatever makes engine access exclusive — the
    write slot on a live server, nothing during single-threaded replay.

    Returns ``(changed, reevals)``: the subscriptions whose answer
    changed (the caller pushes their ``notify`` frames) and the
    evaluations actually run (the incrementality metric).
    """
    due = index.due(op, x, y, new_size)
    changed = [sub for sub in due
               if advance(index, sub, version,
                          evaluate_subscription(engine, sub))]
    return changed, len(due)
