"""Update-aware semantic result cache for the query server.

Entries are keyed on the full query description — kind, location,
window, ``n``, measure, kNWC parameters and the engine's optimization
flags — and carry the dataset version they were computed at.  A lookup
only hits when the entry's version matches the server's current
version, so staleness is impossible by construction; the interesting
part is what happens on updates.

Every :meth:`ResultCache.put` records two *shield radii* derived from
the cached answer (see :func:`repro.serve.protocol.shield_radii_nwc`).
When the dataset changes, :meth:`note_insert`/:meth:`note_delete` walk
the live entries once: an entry whose radius strictly excludes the
updated location is *carried forward* to the new version (its cached
answer provably equals what the engine would recompute), everything
else is evicted.  Entries without a usable bound get an infinite
radius — the per-entry fallback to full invalidation.

Eviction is LRU with an optional TTL; both exist for hygiene (bounded
memory, bounded staleness of *metadata* like stats), not correctness.

The cache is not thread-safe by design: the server touches it from the
event-loop thread only.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable

from ..obs.metrics import MetricsRegistry

__all__ = ["CacheStats", "ResultCache"]

#: Default entry capacity.
DEFAULT_CACHE_ENTRIES = 1024

#: Cache event outcomes exported through the
#: ``nwc_cache_events_total`` family (``layer="serve"``).
_EVENTS = ("hit", "miss", "expired", "invalidated", "carried", "evicted")


@dataclass(slots=True)
class _Entry:
    payload: dict[str, Any]
    version: int
    expires_at: float
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
    expired: int
    invalidated: int
    carried: int
    evicted: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultCache:
    """LRU + TTL result cache with shielded, update-aware invalidation."""

    def __init__(
        self,
        max_entries: int = DEFAULT_CACHE_ENTRIES,
        ttl_s: float | None = None,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        """Args:
            max_entries: LRU capacity; 0 disables caching entirely.
            ttl_s: Entry lifetime in seconds; ``None`` means no expiry.
            metrics: Optional registry; cache events are counted into
                ``nwc_cache_events_total{layer="serve"}``.
            clock: Monotonic time source (injectable for tests).
        """
        if max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError("ttl_s must be positive (or None)")
        self.max_entries = max_entries
        self.ttl_s = ttl_s
        self._clock = clock
        self._entries: OrderedDict[Hashable, _Entry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.expired = 0
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

        A version mismatch evicts the entry (it can never hit again —
        versions only grow), an expired TTL likewise; both count as
        misses.
        """
        entry = self._entries.get(key)
        if entry is None:
            self._record("miss")
            return None
        if entry.version != version:
            del self._entries[key]
            self._record("invalidated")
            self._record("miss")
            return None
        if entry.expires_at <= self._clock():
            del self._entries[key]
            self._record("expired")
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

        Args:
            qx, qy: Query location the shield radii are measured from.
            n: The query's group size (guards the delete-below-``n``
                size-threshold flip, see :meth:`note_delete`).
            insert_radius: Inserts at distance <= this invalidate the
                entry (``+inf`` = any insert, ``-inf`` = none).
            delete_radius: Same for deletes.
        """
        if self.max_entries == 0:
            return
        expires = math.inf if self.ttl_s is None else self._clock() + self.ttl_s
        self._entries[key] = _Entry(
            payload, version, expires, qx, qy, n, insert_radius, delete_radius
        )
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._record("evicted")

    # ------------------------------------------------------------------
    # Update-aware invalidation
    # ------------------------------------------------------------------
    def note_insert(self, x: float, y: float, new_version: int) -> None:
        """Reconcile the cache with an insert at ``(x, y)``.

        Entries whose insert shield strictly excludes the new object are
        carried forward to ``new_version``; the rest are evicted.
        """
        self._reconcile(x, y, new_version, use_insert=True, new_size=None)

    def note_delete(self, x: float, y: float, new_version: int,
                    new_size: int) -> None:
        """Reconcile the cache with a delete at ``(x, y)``.

        Beyond the shield-radius rule, an entry is also evicted when the
        shrunk dataset (``new_size``) can no longer hold ``n`` objects:
        a fresh engine call would then answer with the explicit
        ``"n exceeds dataset size"`` reason, which the cached payload
        does not carry.
        """
        self._reconcile(x, y, new_version, use_insert=False, new_size=new_size)

    def _reconcile(self, x: float, y: float, new_version: int,
                   use_insert: bool, new_size: int | None) -> None:
        dropped: list[Hashable] = []
        carried = 0
        for key, entry in self._entries.items():
            radius = entry.insert_radius if use_insert else entry.delete_radius
            if new_size is not None and entry.n > new_size:
                dropped.append(key)
                continue
            if radius == -math.inf:
                entry.version = new_version
                carried += 1
                continue
            if math.hypot(x - entry.qx, y - entry.qy) > radius:
                entry.version = new_version
                carried += 1
            else:
                dropped.append(key)
        for key in dropped:
            del self._entries[key]
        self._record("carried", carried)
        self._record("invalidated", len(dropped))

    def invalidate_all(self) -> None:
        """Drop every entry (the whole-cache fallback)."""
        count = len(self._entries)
        self._entries.clear()
        self._record("invalidated", count)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        """Snapshot of the running counters."""
        return CacheStats(
            entries=len(self._entries), hits=self.hits, misses=self.misses,
            expired=self.expired, invalidated=self.invalidated,
            carried=self.carried, evicted=self.evicted,
        )
