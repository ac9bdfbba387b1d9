"""Group maintenance for kNWC queries (Section 3.4).

Two interchangeable policies:

* :class:`PaperGroupList` — the paper's Steps 1-5 verbatim: a bounded
  list of at most ``k`` groups; a new group is inserted by distance rank,
  rejected when it overlaps a *closer* kept group in more than ``m``
  objects, and kept groups farther than an inserted one are evicted when
  they overlap it too much.  Candidates rejected against a group that is
  evicted later are **not** reconsidered, so this policy can deviate from
  Definition 3 (see DESIGN.md §4.1).

* :class:`ExactGroupBuffer` (default) — buffers every distinct candidate
  seen so far and re-derives the answer as the greedy filter: walk
  candidates in :data:`Rank` order, keep a group iff it overlaps every
  kept group in at most ``m`` objects, stop at ``k``.  This is exactly
  Definition 3's semantics, with its ties broken by the one answer order
  ``(distance, order key, sorted oids)``, and is what the brute-force
  reference computes, so the two are comparable in tests.

Both expose ``offer`` / ``bound`` / ``finalize`` so the engine is policy
agnostic.  ``bound()`` — the distance of the current ``k``-th group (or
``inf``) — drives SRR skipping and DIP pruning during the search.
:class:`CandidatePool` is the third policy: a page of the candidate
stream, with no overlap filter; NWC is its one-group page.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Protocol

from ..geometry import PointObject
from .results import ObjectGroup


#: Where a window lies in the search's enumeration: ``(anchor distance,
#: partner frame y)`` (see :func:`order_key`).
OrderKey = tuple[float, float]

#: A candidate's rank, the one answer order: ``(distance, order key of
#: the group's first window, sorted oids)``.
Rank = tuple[float, OrderKey, tuple[int, ...]]

#: The order key of an offer made outside a window search (group
#: queries, hand-built tests): such offers rank by distance, then oids.
NO_ORDER: OrderKey = (0.0, 0.0)

#: Relative margin that covers the rounding of distances and MINDISTs
#: (a few ulps of the coordinates involved) where a bound is widened.
ROUNDING_MARGIN = 1e-9


def order_key(qx: float, qy: float, anchor: PointObject,
              partner_y: float) -> OrderKey:
    """Enumeration order key of the window ``anchor`` generates with a
    partner at ``partner_y``.

    The search enumerates anchors in ascending distance from ``q`` (one
    contiguous block of offers per anchor, every execution mode), and
    within an anchor the candidate windows ascend by the partner's
    frame-space y (``_enumerate_windows`` of ``repro.core.oracle`` and
    of ``repro.core.columnar`` sort region members by frame y before
    pairing).  Both components are properties of the
    *candidate*, not of tree shape, so keys are comparable between a
    shard, the single engine and the references, which compute them
    with these operations.
    """
    sy = 1.0 if anchor.y >= qy else -1.0
    return (math.hypot(anchor.x - qx, anchor.y - qy), sy * (partner_y - qy))


def rank(group: ObjectGroup, order: OrderKey) -> Rank:
    """The :data:`Rank` of ``group`` offered at order key ``order``."""
    return (group.distance, order, tuple(sorted(group.oids)))


class GroupPolicy(Protocol):
    """Interface shared by the two maintenance policies."""

    def offer(self, group: ObjectGroup, order: OrderKey = NO_ORDER) -> None:
        """Present one candidate group, found at order key ``order``."""

    def bound(self) -> float:
        """Current pruning bound: distance of the k-th kept group."""

    def finalize(self) -> tuple[ObjectGroup, ...]:
        """The final answer, in rank order."""


class ExactGroupBuffer:
    """Definition-3-exact maintenance via a sorted candidate buffer.

    A group's first offer stands: the search offers in order-key order,
    so that is the group's first window, and its :data:`Rank`.
    """

    def __init__(self, k: int, m: int) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        if m < 0:
            raise ValueError("m must be non-negative")
        self.k = k
        self.m = m
        self._keys: list[Rank] = []
        self._candidates: list[ObjectGroup] = []
        self._seen: set[frozenset[int]] = set()
        # The greedy selection over the buffer, and its rank keys.
        self._selected: list[ObjectGroup] = []
        self._selected_keys: list[Rank] = []

    def offer(self, group: ObjectGroup, order: OrderKey = NO_ORDER) -> None:
        if group.oids in self._seen:
            return
        self._seen.add(group.oids)
        key = rank(group, order)
        at = bisect.bisect_left(self._keys, key)
        self._keys.insert(at, key)
        self._candidates.insert(at, group)
        selected, selected_keys = self._selected, self._selected_keys
        # Greedy selection over a grown candidate set only changes when
        # the newcomer ranks ahead of the current k-th selected group.
        if len(selected) == self.k and key > selected_keys[-1]:
            return
        # The greedy verdict on a candidate depends only on those ranked
        # before it: what was selected or rejected ahead of the newcomer
        # stands, and the walk resumes at the newcomer.
        keep = bisect.bisect_left(selected_keys, key)
        del selected[keep:], selected_keys[keep:]
        for i in range(at, len(self._keys)):
            if len(selected) == self.k:
                break
            cand = self._candidates[i]
            if all(cand.overlap(kept) <= self.m for kept in selected):
                selected.append(cand)
                selected_keys.append(self._keys[i])

    def bound(self) -> float:
        if len(self._selected) < self.k:
            return float("inf")
        return self._selected[-1].distance

    def finalize(self) -> tuple[ObjectGroup, ...]:
        return tuple(self._selected)


class PaperGroupList:
    """The paper's Steps 1-5, applied on every discovered group.

    Section 3.4 orders groups by distance; ties go to the smaller
    sorted oids, whatever the window (its answers predate :data:`Rank`).
    """

    def __init__(self, k: int, m: int) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        if m < 0:
            raise ValueError("m must be non-negative")
        self.k = k
        self.m = m
        self._groups: list[ObjectGroup] = []
        self._seen: set[frozenset[int]] = set()

    @staticmethod
    def _key(group: ObjectGroup) -> tuple[float, tuple[int, ...]]:
        return (group.distance, tuple(sorted(group.oids)))

    def offer(self, group: ObjectGroup, order: OrderKey = NO_ORDER) -> None:
        if group.oids in self._seen:
            return
        self._seen.add(group.oids)
        groups = self._groups
        key = self._key(group)
        # Step 2: scan in reverse for the first kept group closer than
        # the candidate; i is the count of strictly-closer groups.
        i = len(groups)
        while i > 0 and self._key(groups[i - 1]) > key:
            i -= 1
        if i == self.k:
            return  # farther than a full answer: drop
        # Step 3: the candidate must respect every closer group.
        for kept in groups[:i]:
            if group.overlap(kept) > self.m:
                return
        # Step 4: insert at position i, dropping a k-th group if needed.
        if len(groups) == self.k:
            groups.pop()
        groups.insert(i, group)
        # Step 5: evict farther groups that now violate the constraint.
        j = i + 1
        while j < len(groups):
            if group.overlap(groups[j]) > self.m:
                groups.pop(j)
            else:
                j += 1

    def bound(self) -> float:
        if len(self._groups) < self.k:
            return float("inf")
        return self._groups[-1].distance

    def finalize(self) -> tuple[ObjectGroup, ...]:
        return tuple(self._groups)


@dataclass(frozen=True, slots=True)
class KNWCCandidates:
    """One page of a shard's kNWC candidate stream (see ``knwc_candidates``).

    Attributes:
        groups: The page's candidate groups in :data:`Rank` order,
            overlap constraint NOT applied.
        orders: Per-group order key of its first window.
        exhausted: Whether nothing follows the page in the stream (below
            the page's ceiling, when it has one).
        stats: The query's I/O counters, as in ``KNWCResult``.
        reason: Unsatisfiability reason, as in ``KNWCResult``.
    """

    groups: tuple[ObjectGroup, ...]
    orders: tuple[OrderKey, ...]
    exhausted: bool
    stats: dict[str, int]
    reason: str | None = None


class CandidatePool:
    """The next ``limit`` candidate groups after ``after``, no overlap filter.

    A page of the candidate stream (see ``NWCEngine.knwc_candidates``):
    a group's first offer stands, as in :class:`ExactGroupBuffer`; a
    group ranked at or before the cursor ``after`` (a :data:`Rank`), or
    at or above ``ceiling``, is dropped, and the rest are kept in rank
    order, at most ``limit``.  NWC is the one-group page from the start.

    The page's *cut* is its ``limit``-th kept distance once it is full,
    and never above ``ceiling``.  The search meets offers in order-key
    order, so an offer at the cut ranks after every group kept before
    it, and the cut only falls: every group the search skips ranks
    after the page's final ``limit``-th, and the page is exactly the
    stream's next ``limit`` groups (DESIGN.md, "One query path: paging
    in rank order").  ``bound()`` — what the search prunes at — is the cut
    widened by ``slack`` (and a rounding margin) when the measure only
    bounds a group's distance from below by a window's MINDIST less
    ``slack``.
    """

    def __init__(self, limit: int, after: Rank | None = None,
                 ceiling: float = math.inf, slack: float = 0.0) -> None:
        if limit <= 0:
            raise ValueError("limit must be positive")
        self.limit = limit
        self.after = after
        self._ceiling = ceiling
        self._slack = slack
        self._seen: set[frozenset[int]] = set()
        self._keys: list[Rank] = []
        self._groups: list[ObjectGroup] = []

    def offer(self, group: ObjectGroup, order: OrderKey = NO_ORDER) -> None:
        if group.distance >= self._ceiling or group.oids in self._seen:
            return
        self._seen.add(group.oids)
        key = rank(group, order)
        if self.after is not None and key <= self.after:
            return
        keys = self._keys
        at = bisect.bisect_left(keys, key)
        if at == self.limit:
            return
        keys.insert(at, key)
        self._groups.insert(at, group)
        if len(keys) > self.limit:
            keys.pop()
            self._groups.pop()

    def bound(self) -> float:
        cut = self._ceiling
        if len(self._keys) == self.limit:
            cut = min(self._keys[-1][0], cut)
        if self._slack:
            return (cut + self._slack) * (1.0 + ROUNDING_MARGIN)
        return cut

    def finalize(self) -> tuple[ObjectGroup, ...]:
        return tuple(self._groups)

    def orders(self) -> tuple[OrderKey, ...]:
        return tuple(key[1] for key in self._keys)


def make_policy(kind: str, k: int, m: int) -> GroupPolicy:
    """Factory: ``"exact"`` (default elsewhere) or ``"paper"``."""
    if kind == "exact":
        return ExactGroupBuffer(k, m)
    if kind == "paper":
        return PaperGroupList(k, m)
    raise ValueError(f"unknown kNWC maintenance policy: {kind!r}")
