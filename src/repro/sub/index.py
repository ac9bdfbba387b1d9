"""The standing-query registry: shield-radius bucketing.

Every live subscription carries the *shield radii* of its current
answer (:func:`repro.serve.protocol.shield_radii_nwc` /
``shield_radii_knwc``): an update strictly farther from the query point
than the radius provably cannot change the answer.  The index exploits
that bound spatially — each subscription is bucketed into the coarse
grid cells its shield disk overlaps, so probing an update costs one
cell lookup instead of a scan over every subscription:

* finite radii → the cells covering the square circumscribing the
  shield disk of radius ``max(insert_radius, delete_radius)``;
* an infinite (``ALWAYS_INVALIDATE``) radius for an operation → the
  per-operation *always* set (e.g. a not-found answer, which any
  insert anywhere may flip);
* a ``NEVER_INVALIDATE`` radius → nothing at all for that operation
  (e.g. a not-found answer, which no delete can flip).

Probing is deliberately two-stage: :meth:`SubscriptionIndex.probe`
returns the coarse candidate set (cell ∪ always), and
``affected_insert``/``affected_delete`` apply the exact
``dist(q, u) <= radius`` test on those candidates.  Deletes carry one
extra, non-geometric hazard: dropping the dataset below a
subscription's ``n`` flips its answer to "n exceeds dataset size"
*wherever* the deleted object was — mirrored from the cache's ``min
n`` check by the ``n > new_size`` sweep (guarded by the running
maximum ``n``, so it costs nothing until the dataset actually shrinks
near it).

``naive=True`` turns both probes into "everything" — the
re-evaluate-all baseline the benchmark's incrementality gate compares
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterator

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
    def from_state(cls, state: dict[str, Any]) -> "Subscription":
        """Rebuild from :meth:`to_state` (checkpoint recovery)."""
        from .runtime import parse_spec

        kind = str(state["kind"])
        spec = dict(state["spec"])
        maintenance = str(state.get("maintenance", "exact"))
        query, qx, qy, n = parse_spec(kind, spec, maintenance)
        return cls(
            sub_id=str(state["sub"]), kind=kind, spec=spec, query=query,
            maintenance=maintenance, qx=qx, qy=qy, n=n,
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


@dataclass(slots=True)
class _Placement:
    """Where one subscription currently sits in the index."""

    cells: tuple[tuple[int, int], ...] = ()
    always_insert: bool = False
    always_delete: bool = False


class SubscriptionIndex:
    """Spatial registry of live subscriptions (see module docstring).

    Not thread-safe by itself: the server mutates it only under the
    exclusive write slot, the same discipline the result cache rides.
    """

    def __init__(self, cell_size: float = DEFAULT_CELL_SIZE,
                 naive: bool = False) -> None:
        if not (cell_size > 0 and math.isfinite(cell_size)):
            raise ValueError("cell_size must be positive and finite")
        self.cell_size = cell_size
        #: ``True`` degrades every probe to "all subscriptions" — the
        #: benchmark's re-evaluate-everything baseline.
        self.naive = naive
        self._subs: dict[str, Subscription] = {}
        self._cells: dict[tuple[int, int], set[str]] = {}
        self._always_insert: set[str] = set()
        self._always_delete: set[str] = set()
        self._placement: dict[str, _Placement] = {}
        self._n_counts: dict[int, int] = {}
        self._max_n = 0

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._subs)

    def __contains__(self, sub_id: str) -> bool:
        return sub_id in self._subs

    def get(self, sub_id: str) -> Subscription | None:
        return self._subs.get(sub_id)

    def subscriptions(self) -> Iterator[Subscription]:
        """All live subscriptions, in registration order."""
        return iter(self._subs.values())

    @property
    def cell_count(self) -> int:
        return len(self._cells)

    def add(self, sub: Subscription) -> None:
        """Register (or replace — same ``sub_id``) a subscription."""
        if sub.sub_id in self._subs:
            self.remove(sub.sub_id)
        self._subs[sub.sub_id] = sub
        self._n_counts[sub.n] = self._n_counts.get(sub.n, 0) + 1
        self._max_n = max(self._max_n, sub.n)
        self._place(sub)

    def remove(self, sub_id: str) -> Subscription | None:
        """Drop a subscription; returns it, or ``None`` if unknown."""
        sub = self._subs.pop(sub_id, None)
        if sub is None:
            return None
        self._displace(sub_id)
        count = self._n_counts[sub.n] - 1
        if count:
            self._n_counts[sub.n] = count
        else:
            del self._n_counts[sub.n]
            if sub.n == self._max_n:
                self._max_n = max(self._n_counts, default=0)
        return sub

    def rebucket(self, sub: Subscription) -> None:
        """Re-place a subscription after its shield radii changed (its
        answer — and therefore its protective disk — moved)."""
        assert sub.sub_id in self._subs
        self._displace(sub.sub_id)
        self._place(sub)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        return (math.floor(x / self.cell_size), math.floor(y / self.cell_size))

    def _covering(self, sub: Subscription,
                  radius: float) -> tuple[tuple[int, int], ...] | None:
        """Cells overlapping the shield square, or ``None`` when the
        disk is too large to bucket economically."""
        x0, y0 = self._cell_of(sub.qx - radius, sub.qy - radius)
        x1, y1 = self._cell_of(sub.qx + radius, sub.qy + radius)
        if (x1 - x0 + 1) * (y1 - y0 + 1) > MAX_CELLS_PER_SUB:
            return None
        return tuple((ix, iy)
                     for ix in range(x0, x1 + 1)
                     for iy in range(y0, y1 + 1))

    def _place(self, sub: Subscription) -> None:
        placement = _Placement(
            always_insert=sub.insert_radius == _ALWAYS,
            always_delete=sub.delete_radius == _ALWAYS,
        )
        finite = [r for r in (sub.insert_radius, sub.delete_radius)
                  if math.isfinite(r)]
        if finite:
            cells = self._covering(sub, max(finite))
            if cells is None:
                # Too large to bucket: degrade to always-invalidate for
                # whichever operations had the finite radius (strictly
                # conservative — never a missed probe).
                placement.always_insert |= math.isfinite(sub.insert_radius)
                placement.always_delete |= math.isfinite(sub.delete_radius)
            else:
                placement.cells = cells
                for cell in cells:
                    self._cells.setdefault(cell, set()).add(sub.sub_id)
        if placement.always_insert:
            self._always_insert.add(sub.sub_id)
        if placement.always_delete:
            self._always_delete.add(sub.sub_id)
        self._placement[sub.sub_id] = placement

    def _displace(self, sub_id: str) -> None:
        placement = self._placement.pop(sub_id)
        for cell in placement.cells:
            bucket = self._cells.get(cell)
            if bucket is not None:
                bucket.discard(sub_id)
                if not bucket:
                    del self._cells[cell]
        self._always_insert.discard(sub_id)
        self._always_delete.discard(sub_id)

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def probe(self, x: float, y: float, op: str) -> set[str]:
        """Coarse candidate set for an update at ``(x, y)``: the ids in
        the update's grid cell plus the op's always set.  Conservative:
        a superset of every subscription the update can affect."""
        if op not in ("insert", "delete"):
            raise ValueError(f"unknown update op {op!r}")
        if self.naive:
            return set(self._subs)
        candidates = set(self._cells.get(self._cell_of(x, y), ()))
        candidates |= (self._always_insert if op == "insert"
                       else self._always_delete)
        return candidates

    def affected_insert(self, x: float, y: float) -> list[Subscription]:
        """Subscriptions an insert at ``(x, y)`` may affect (exact
        shield test applied on the probed candidates)."""
        if self.naive:
            return list(self._subs.values())
        affected = []
        for sub_id in sorted(self.probe(x, y, "insert")):
            sub = self._subs[sub_id]
            if self._within(x, y, sub, sub.insert_radius):
                affected.append(sub)
        return affected

    def affected_delete(self, x: float, y: float,
                        new_size: int) -> list[Subscription]:
        """Subscriptions a delete at ``(x, y)`` may affect: the shield
        test on the probed candidates, plus every subscription whose
        ``n`` now exceeds ``new_size`` (its answer flips to the
        size-threshold reason regardless of geometry)."""
        if self.naive:
            return list(self._subs.values())
        candidates = self.probe(x, y, "delete")
        if new_size < self._max_n:
            # The dataset shrank below the largest live n: sweep for
            # size flips.  Rare by construction (the guard is the max).
            candidates = set(candidates)
            candidates.update(sub_id for sub_id, sub in self._subs.items()
                              if sub.n > new_size)
        affected = []
        for sub_id in sorted(candidates):
            sub = self._subs[sub_id]
            if (sub.n > new_size
                    or self._within(x, y, sub, sub.delete_radius)):
                affected.append(sub)
        return affected

    @staticmethod
    def _within(x: float, y: float, sub: Subscription,
                radius: float) -> bool:
        if radius == _ALWAYS:
            return True
        if radius == _NEVER:
            return False
        # Non-strict: the shield argument only protects answers from
        # strictly farther updates (ties could flip oid tie-breaking).
        return math.hypot(x - sub.qx, y - sub.qy) <= radius

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_state(self) -> list[dict[str, Any]]:
        """Persistent form of every subscription (checkpoint pointer)."""
        return [sub.to_state() for sub in self._subs.values()]

    @classmethod
    def from_state(cls, states: list[dict[str, Any]],
                   cell_size: float = DEFAULT_CELL_SIZE) -> "SubscriptionIndex":
        index = cls(cell_size=cell_size)
        for state in states:
            index.add(Subscription.from_state(state))
        return index
