"""The shield-radius index, shared by standing queries and the cache.

Every live subscription — and every result cache line
(:class:`repro.serve.cache.ResultCache` keeps its entries in an
instance of this index, keyed on the query key) — carries the *shield
radii* of its current answer (:func:`repro.serve.protocol.shield_radii_nwc`
/ ``shield_radii_knwc``): an update strictly farther from the query
point than the radius provably cannot change the answer.  The index
exploits that bound spatially — each item is bucketed into the coarse
grid cells its shield disk overlaps, so probing an update costs one
cell lookup instead of a scan over every item:

* finite radii → the cells covering the square circumscribing the
  shield disk of radius ``max(insert_radius, delete_radius)``;
* an infinite (``ALWAYS_INVALIDATE``) radius for an operation → the
  per-operation *always* set (e.g. a not-found answer, which any
  insert anywhere may flip);
* a ``NEVER_INVALIDATE`` radius → nothing at all for that operation
  (e.g. a not-found answer, which no delete can flip).

Probing is deliberately two-stage: :meth:`SubscriptionIndex.probe`
returns the coarse candidate set (cell ∪ always), and
:meth:`~SubscriptionIndex.affected` applies the exact
``dist(q, u) <= radius`` test on those candidates.  Deletes carry one
extra, non-geometric hazard: dropping the dataset below an item's
``n`` flips its answer to "n exceeds dataset size" *wherever* the
deleted object was — caught by the ``n > new_size`` sweep (guarded by
the running maximum ``n``, so it costs nothing until the dataset
actually shrinks near it).  This module is the only place that test
and those rules are written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Generic, Hashable, Iterator, TypeVar

__all__ = ["DEFAULT_CELL_SIZE", "Subscription", "SubscriptionIndex"]

#: Default coarse-grid cell size (world units).  Shield disks of the
#: evaluation datasets span a few hundred units; one probe then touches
#: a handful of subscriptions while bucketing stays a few dozen cells.
DEFAULT_CELL_SIZE = 250.0

#: Covering more cells than this falls back to the always sets — a
#: shield so large that bucketing it is more expensive than probing it.
MAX_CELLS_PER_SUB = 4096

_ALWAYS = math.inf
_NEVER = -math.inf

T = TypeVar("T")


@dataclass(slots=True)
class Subscription:
    """One standing query and the state that keeps it current.

    Attributes:
        sub_id: Wire identifier (``sub`` field of the frames).
        kind: ``"nwc"`` or ``"knwc"``.
        spec: The wire fields that re-parse into ``query`` (this is
            what the WAL ``subscribe`` record and the checkpoint
            pointer store).
        query: Parsed :class:`~repro.core.NWCQuery` /
            :class:`~repro.core.KNWCQuery`.
        maintenance: kNWC maintenance mode (``exact``/``paper``).
        qx, qy: Query point (shield disk center).
        n: Group size (the delete size-flip guard).
        result: Serialized current answer.
        revision: Monotone answer counter; 1 at registration, +1 per
            answer change.  Never reset — recovery replays the same
            re-evaluations, so it continues across ``kill -9``.
        version: Dataset version of the last evaluation.
        insert_radius, delete_radius: Current shield radii.
        conn: Transient push target (the subscriber's live connection
            wrapper, or ``None`` while detached); never persisted.
    """

    sub_id: str
    kind: str
    spec: dict[str, Any]
    query: Any = None
    maintenance: str = "exact"
    qx: float = 0.0
    qy: float = 0.0
    n: int = 1
    result: dict[str, Any] | None = None
    revision: int = 0
    version: int = 0
    insert_radius: float = _ALWAYS
    delete_radius: float = _ALWAYS
    conn: Any = None

    @property
    def key(self) -> str:
        """The index key: ``sub_id``."""
        return self.sub_id

    def to_state(self) -> dict[str, Any]:
        """The JSON-safe persistent form (checkpoint pointer entry)."""
        state: dict[str, Any] = {
            "sub": self.sub_id,
            "kind": self.kind,
            "spec": dict(self.spec),
            "revision": self.revision,
            "version": self.version,
            "ins": _encode_radius(self.insert_radius),
            "del": _encode_radius(self.delete_radius),
        }
        if self.result is not None:
            state["result"] = self.result
        if self.kind == "knwc":
            state["maintenance"] = self.maintenance
        return state

    @classmethod
    def parse(cls, sub_id: str, kind: str, spec: dict[str, Any],
              **state: Any) -> "Subscription":
        """A standing query from its stored ``kind`` and ``spec`` (plus
        ``state`` fields), parsed and validated like a live request."""
        from ..serve import protocol  # lazy: serve imports this package

        query, maintenance = protocol.parse_query(spec, kind)
        base = query.base
        return cls(sub_id=sub_id, kind=protocol.query_kind(query),
                   spec=spec, query=query, maintenance=maintenance,
                   qx=base.qx, qy=base.qy, n=base.n, **state)

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "Subscription":
        """Rebuild from :meth:`to_state` (checkpoint recovery)."""
        return cls.parse(
            str(state["sub"]), str(state["kind"]), dict(state["spec"]),
            result=state.get("result"),
            revision=int(state["revision"]), version=int(state["version"]),
            insert_radius=_decode_radius(state["ins"]),
            delete_radius=_decode_radius(state["del"]),
        )


def _encode_radius(radius: float) -> float | str:
    """JSON-safe radius: infinities become ``"always"``/``"never"``."""
    if radius == _ALWAYS:
        return "always"
    if radius == _NEVER:
        return "never"
    return radius


def _decode_radius(raw: Any) -> float:
    if raw == "always":
        return _ALWAYS
    if raw == "never":
        return _NEVER
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(f"radius must be a number, 'always' or 'never', "
                         f"got {raw!r}")
    value = float(raw)
    if math.isnan(value):
        raise ValueError("radius must not be NaN")
    return value


class SubscriptionIndex(Generic[T]):
    """Spatial registry of shielded items (see module docstring).

    An item exposes ``key``, ``qx``, ``qy``, ``n``, ``insert_radius``
    and ``delete_radius``: a :class:`Subscription` (keyed on
    ``sub_id``) or a result cache line (keyed on its query key).

    Not thread-safe by itself: the server mutates it only under the
    exclusive write slot, or from the event-loop thread for the cache.
    """

    def __init__(self, cell_size: float = DEFAULT_CELL_SIZE) -> None:
        if not (cell_size > 0 and math.isfinite(cell_size)):
            raise ValueError("cell_size must be positive and finite")
        self.cell_size = cell_size
        self._items: dict[Hashable, T] = {}
        self._cells: dict[tuple[int, int], set[Hashable]] = {}
        self._always_insert: set[Hashable] = set()
        self._always_delete: set[Hashable] = set()
        #: key -> the grid cells it is bucketed in.
        self._placement: dict[Hashable, tuple[tuple[int, int], ...]] = {}
        self._n_counts: dict[int, int] = {}
        self._max_n = 0
        #: An applied update may not have been reconciled: :meth:`due`
        #: then names every item.
        self.stale = False

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._items

    def get(self, key: Hashable) -> T | None:
        return self._items.get(key)

    def subscriptions(self) -> Iterator[T]:
        """All live items, in registration order."""
        return iter(self._items.values())

    @property
    def cell_count(self) -> int:
        return len(self._cells)

    def add(self, item: T) -> None:
        """Register (or replace — same key) an item."""
        key = item.key
        if key in self._items:
            self.remove(key)
        self._items[key] = item
        self._n_counts[item.n] = self._n_counts.get(item.n, 0) + 1
        self._max_n = max(self._max_n, item.n)
        self._place(key, item)

    def remove(self, key: Hashable) -> T | None:
        """Drop an item; returns it, or ``None`` if unknown."""
        item = self._items.pop(key, None)
        if item is None:
            return None
        self._displace(key)
        count = self._n_counts[item.n] - 1
        if count:
            self._n_counts[item.n] = count
        else:
            del self._n_counts[item.n]
            if item.n == self._max_n:
                self._max_n = max(self._n_counts, default=0)
        return item

    def rebucket(self, item: T) -> None:
        """Re-place an item after its shield radii changed (its
        answer — and therefore its protective disk — moved)."""
        key = item.key
        assert key in self._items
        self._displace(key)
        self._place(key, item)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        return (math.floor(x / self.cell_size), math.floor(y / self.cell_size))

    def _covering(self, item: T,
                  radius: float) -> tuple[tuple[int, int], ...] | None:
        """Cells overlapping the shield square, or ``None`` when the
        disk is too large to bucket economically."""
        x0, y0 = self._cell_of(item.qx - radius, item.qy - radius)
        x1, y1 = self._cell_of(item.qx + radius, item.qy + radius)
        if (x1 - x0 + 1) * (y1 - y0 + 1) > MAX_CELLS_PER_SUB:
            return None
        return tuple((ix, iy)
                     for ix in range(x0, x1 + 1)
                     for iy in range(y0, y1 + 1))

    def _place(self, key: Hashable, item: T) -> None:
        radii = (item.insert_radius, item.delete_radius)
        finite = [r for r in radii if math.isfinite(r)]
        cells = self._covering(item, max(finite)) if finite else ()
        for radius, always in zip(radii, (self._always_insert,
                                          self._always_delete)):
            # A disk too large to bucket (no cells) degrades to the
            # always set for its operation: strictly conservative —
            # never a missed probe.
            if radius == _ALWAYS or (cells is None and math.isfinite(radius)):
                always.add(key)
        self._placement[key] = cells = cells or ()
        for cell in cells:
            self._cells.setdefault(cell, set()).add(key)

    def _displace(self, key: Hashable) -> None:
        for cell in self._placement.pop(key):
            bucket = self._cells.get(cell)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._cells[cell]
        self._always_insert.discard(key)
        self._always_delete.discard(key)

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def probe(self, x: float, y: float, op: str) -> set[Hashable]:
        """Coarse candidate set for an update at ``(x, y)``: the keys in
        the update's grid cell plus the op's always set.  Conservative:
        a superset of every item the update can affect."""
        if op not in ("insert", "delete"):
            raise ValueError(f"unknown update op {op!r}")
        candidates = set(self._cells.get(self._cell_of(x, y), ()))
        candidates |= (self._always_insert if op == "insert"
                       else self._always_delete)
        return candidates

    def affected(self, x: float, y: float, op: str,
                 new_size: int | None = None) -> set[Hashable]:
        """Keys of the items an update at ``(x, y)`` may affect, in no
        particular order: the exact shield test on the probed
        candidates, plus — for a delete leaving ``new_size`` objects —
        every item whose ``n`` now exceeds it (its answer flips to the
        size-threshold reason regardless of geometry)."""
        candidates = self.probe(x, y, op)
        if op == "delete" and new_size < self._max_n:
            # The dataset shrank below the largest live n: sweep for
            # size flips.  Rare by construction (the guard is the max).
            candidates.update(key for key, item in self._items.items()
                              if item.n > new_size)
        return {key for key in candidates
                if self._within(x, y, self._items[key], op, new_size)}

    def affected_insert(self, x: float, y: float) -> list[T]:
        """The items an insert at ``(x, y)`` may affect, in key order."""
        return self._in_key_order(self.affected(x, y, "insert"))

    def affected_delete(self, x: float, y: float, new_size: int) -> list[T]:
        """Same for a delete that leaves ``new_size`` objects."""
        return self._in_key_order(self.affected(x, y, "delete", new_size))

    def due(self, op: str, x: float, y: float, new_size: int) -> list[T]:
        """The items to re-evaluate after an applied ``op`` at ``(x, y)``
        leaving ``new_size`` objects, in key order: the affected ones,
        or all while :attr:`stale` (cleared here; a caller whose
        re-evaluation fails sets it again)."""
        if self.stale:
            self.stale = False
            return self._in_key_order(set(self._items))
        return self._in_key_order(self.affected(x, y, op, new_size))

    def _in_key_order(self, keys: set[Hashable]) -> list[T]:
        # Re-evaluation order is part of the WAL replay contract: the
        # live server and recovery must walk subscriptions identically.
        return [self._items[key] for key in sorted(keys)]

    @staticmethod
    def _within(x: float, y: float, item: Any, op: str,
                new_size: int | None) -> bool:
        if op == "delete" and item.n > new_size:
            return True
        radius = item.insert_radius if op == "insert" else item.delete_radius
        if radius == _ALWAYS:
            return True
        if radius == _NEVER:
            return False
        # Non-strict: the shield argument only protects answers from
        # strictly farther updates (ties could flip oid tie-breaking).
        return math.hypot(x - item.qx, y - item.qy) <= radius

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_state(self) -> list[dict[str, Any]]:
        """Persistent form of every subscription (checkpoint pointer)."""
        return [sub.to_state() for sub in self._items.values()]

    @classmethod
    def from_state(cls, states: list[dict[str, Any]],
                   cell_size: float = DEFAULT_CELL_SIZE) -> "SubscriptionIndex":
        index = cls(cell_size=cell_size)
        for state in states:
            index.add(Subscription.from_state(state))
        return index
