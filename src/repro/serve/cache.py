"""Update-aware semantic result cache for the query server.

Entries are keyed on the full query description — kind, location,
window, ``n``, measure and kNWC parameters (each server owns its
cache, so the engine behind every key is the same).  The cache tracks the dataset version it was last reconciled to,
and a lookup only hits at that version, so staleness is impossible by
construction; the interesting part is what happens on updates.

Every :meth:`ResultCache.put` files the entry, with two *shield radii*
derived from its answer (:func:`repro.serve.protocol.shield_radii_nwc`),
in a :class:`repro.sub.SubscriptionIndex` — the shield index standing
queries use.  On an update, :meth:`note_insert`/:meth:`note_delete`
probe it: the entries it names are evicted, and every other entry is
*carried forward* to the new version without being visited (its
cached answer provably equals what the engine would recompute).
Entries without a usable bound get an infinite radius — the per-entry
fallback to full invalidation.

Eviction is LRU, which bounds memory; it plays no part in
correctness.

The cache is not thread-safe by design: the server touches it from the
event-loop thread only.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

from ..obs.metrics import MetricsRegistry
from ..sub.index import SubscriptionIndex

__all__ = ["CacheStats", "ResultCache"]

#: Default entry capacity.
DEFAULT_CACHE_ENTRIES = 1024

#: Cache event outcomes exported through the
#: ``nwc_cache_events_total`` family (``layer="serve"``).
_EVENTS = ("hit", "miss", "invalidated", "carried", "evicted")


@dataclass(slots=True)
class _Entry:
    key: Hashable
    payload: dict[str, Any]
    qx: float
    qy: float
    n: int
    insert_radius: float
    delete_radius: float


@dataclass(frozen=True, slots=True)
class CacheStats:
    """Point-in-time counters of one :class:`ResultCache`."""

    entries: int
    hits: int
    misses: int
    invalidated: int
    carried: int
    evicted: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultCache:
    """LRU result cache with shielded, update-aware invalidation."""

    def __init__(
        self,
        max_entries: int = DEFAULT_CACHE_ENTRIES,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        """Args:
            max_entries: LRU capacity; 0 disables caching entirely.
            metrics: Optional registry; cache events are counted into
                ``nwc_cache_events_total{layer="serve"}``.
        """
        if max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        self.max_entries = max_entries
        self._entries: OrderedDict[Hashable, _Entry] = OrderedDict()
        self._shields: SubscriptionIndex[_Entry] = SubscriptionIndex()
        #: The dataset version every live entry is valid at.
        self._version = 0
        self.hits = 0
        self.misses = 0
        self.invalidated = 0
        self.carried = 0
        self.evicted = 0
        if metrics is None:
            self._m_events = None
        else:
            self._m_events = {
                event: metrics.counter(
                    "nwc_cache_events_total",
                    "Result cache events by layer",
                    labels={"layer": "serve", "outcome": event},
                )
                for event in _EVENTS
            }

    def __len__(self) -> int:
        return len(self._entries)

    def _record(self, event: str, amount: int = 1) -> None:
        attr = {"hit": "hits", "miss": "misses"}.get(event, event)
        setattr(self, attr, getattr(self, attr) + amount)
        if self._m_events is not None and amount:
            self._m_events[event].inc(amount)

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, key: Hashable, version: int) -> dict[str, Any] | None:
        """The cached payload for ``key`` at ``version``, or ``None``.

        A lookup at any version but the one the cache was last
        reconciled to evicts the entry (it is not known valid there) and
        counts as a miss.
        """
        entry = self._entries.get(key)
        if entry is None:
            self._record("miss")
            return None
        if version != self._version:
            self._drop(key)
            self._record("invalidated")
            self._record("miss")
            return None
        self._entries.move_to_end(key)
        self._record("hit")
        return entry.payload

    def put(
        self,
        key: Hashable,
        version: int,
        payload: dict[str, Any],
        qx: float,
        qy: float,
        n: int,
        insert_radius: float,
        delete_radius: float,
    ) -> None:
        """Store one answer computed at ``version``.

        An answer older than the cache's version is not stored (it could
        never hit).  A newer one means updates the cache was never told
        about: everything it holds is invalidated and it adopts
        ``version``.

        Args:
            qx, qy: Query location the shield radii are measured from.
            n: The query's group size (guards the delete-below-``n``
                size-threshold flip, see :meth:`note_delete`).
            insert_radius: Inserts at distance <= this invalidate the
                entry (``+inf`` = any insert, ``-inf`` = none).
            delete_radius: Same for deletes.
        """
        if self.max_entries == 0 or version < self._version:
            return
        if version > self._version:
            self._reconcile(set(self._entries), version)
        entry = _Entry(key, payload, qx, qy, n, insert_radius, delete_radius)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self._shields.add(entry)
        while len(self._entries) > self.max_entries:
            self._shields.remove(self._entries.popitem(last=False)[0])
            self._record("evicted")

    def _drop(self, key: Hashable) -> None:
        del self._entries[key]
        self._shields.remove(key)

    # ------------------------------------------------------------------
    # Update-aware invalidation
    # ------------------------------------------------------------------
    def note_insert(self, x: float, y: float, new_version: int) -> None:
        """Reconcile the cache with an insert at ``(x, y)``.

        Entries whose insert shield strictly excludes the new object are
        carried forward to ``new_version``; the rest are evicted.
        """
        self._reconcile(self._shields.affected(x, y, "insert"), new_version)

    def note_delete(self, x: float, y: float, new_version: int,
                    new_size: int) -> None:
        """Reconcile the cache with a delete at ``(x, y)``.

        Beyond the shield-radius rule, an entry is also evicted when the
        shrunk dataset (``new_size``) can no longer hold ``n`` objects:
        a fresh engine call would then answer with the explicit
        ``"n exceeds dataset size"`` reason, which the cached payload
        does not carry.
        """
        self._reconcile(self._shields.affected(x, y, "delete", new_size),
                        new_version)

    def _reconcile(self, dropped: set[Hashable], new_version: int) -> None:
        for key in dropped:
            self._drop(key)
        self._version = new_version
        self._record("carried", len(self._entries))
        self._record("invalidated", len(dropped))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        """Snapshot of the running counters."""
        return CacheStats(
            entries=len(self._entries), hits=self.hits, misses=self.misses,
            invalidated=self.invalidated,
            carried=self.carried, evicted=self.evicted,
        )
