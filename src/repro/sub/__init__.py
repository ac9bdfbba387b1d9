"""Continuous NWC/kNWC subscriptions (standing queries).

A *subscription* is a query the server keeps answering as the dataset
moves: clients register it once (``subscribe``), the server re-evaluates
it under the exclusive write slot whenever an update can possibly change
its answer, and pushes a ``notify`` frame — the fresh result plus a
monotonically increasing ``revision`` — over the subscriber's
connection whenever the answer actually changed.

The subsystem is incremental by the same geometric argument, and the
same index, the serve cache uses for invalidation: an update at ``u``
provably cannot change an answer with best distance ``d`` unless
``dist(q, u) <= d + 2·diagonal`` (see
:func:`repro.serve.protocol.shield_radii_nwc`).
:class:`SubscriptionIndex` buckets every live subscription into a
coarse grid by that shield disk, so one insert/delete probes a single
grid cell (plus the always-invalidated set) instead of walking every
standing query.

:func:`reconcile` is the single maintenance step shared by the live
server and WAL replay — which is what makes revisions *recoverable*:
replaying the log re-runs the exact same re-evaluations, so a
``kill -9`` cannot fork revision history.  A shard coordinator keeps
fleet subscriptions in its own index and runs the same two halves —
the index's ``due`` naming step, then :func:`advance` — around
scatter-gather re-evaluations.
"""

from .index import DEFAULT_CELL_SIZE, Subscription, SubscriptionIndex
from .runtime import (advance, evaluate_subscription, reconcile,
                      subscription_from_record)

__all__ = [
    "DEFAULT_CELL_SIZE",
    "Subscription",
    "SubscriptionIndex",
    "advance",
    "evaluate_subscription",
    "reconcile",
    "subscription_from_record",
]
