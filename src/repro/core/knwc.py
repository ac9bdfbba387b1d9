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
  seen so far and re-derives the answer as the greedy-by-distance filter:
  walk candidates in ascending distance, keep a group iff it overlaps
  every kept group in at most ``m`` objects, stop at ``k``.  This is
  exactly Definition 3's semantics and is what the brute-force reference
  computes, so the two are comparable in tests.

Both expose ``offer`` / ``bound`` / ``finalize`` so the engine is policy
agnostic.  ``bound()`` — the distance of the current ``k``-th group (or
``inf``) — drives SRR skipping and DIP pruning during the search.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Protocol

from ..geometry import Rect
from .results import ObjectGroup


#: A group's rank: ``(distance, sorted oids)``.
Rank = tuple[float, tuple[int, ...]]


def _rank_key(group: ObjectGroup) -> Rank:
    """Deterministic ordering: distance, then object ids (tie-break)."""
    return (group.distance, tuple(sorted(g for g in group.oids)))


def offer_order(policy, window: Rect) -> tuple[float, float]:
    """Enumeration order key of the offer ``policy`` is being made.

    The search enumerates anchors in ascending distance from ``q`` (one
    contiguous block of offers per anchor, every execution mode), and
    within an anchor the candidate windows ascend by the top partner's
    frame-space y (``_enumerate_windows*`` sort region members by frame
    y before pairing).  Both components are properties of the
    *candidate*, not of tree shape, so order keys are comparable between
    a shard and the single-engine oracle: the merge key is ``(anchor
    distance, partner frame y)``, with the second component recovered
    from the offered window's horizontal edge.

    The origin is the policy's own: the query's ``qy``, and ``anchor``
    (distance) and ``sy`` (frame y sign) set by the search per anchor.
    """
    sy = policy.sy
    partner_y = window.y2 if sy > 0 else window.y1
    return (policy.anchor, sy * (partner_y - policy.qy))


class GroupPolicy(Protocol):
    """Interface shared by the two maintenance policies."""

    def offer(self, group: ObjectGroup) -> None:
        """Present one candidate group to the policy."""

    def bound(self) -> float:
        """Current pruning bound: distance of the k-th kept group."""

    def finalize(self) -> tuple[ObjectGroup, ...]:
        """The final answer, ascending by distance."""


class ExactGroupBuffer:
    """Definition-3-exact maintenance via a sorted candidate buffer."""

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

    def offer(self, group: ObjectGroup) -> None:
        if group.oids in self._seen:
            return
        self._seen.add(group.oids)
        key = _rank_key(group)
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
    """The paper's Steps 1-5, applied on every discovered group."""

    def __init__(self, k: int, m: int) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        if m < 0:
            raise ValueError("m must be non-negative")
        self.k = k
        self.m = m
        self._groups: list[ObjectGroup] = []
        self._seen: set[frozenset[int]] = set()

    def offer(self, group: ObjectGroup) -> None:
        if group.oids in self._seen:
            return
        self._seen.add(group.oids)
        groups = self._groups
        key = _rank_key(group)
        # Step 2: scan in reverse for the first kept group closer than
        # the candidate; i is the count of strictly-closer groups.
        i = len(groups)
        while i > 0 and _rank_key(groups[i - 1]) > key:
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


#: The merge key of one candidate in a shard's stream: ``(distance,
#: sorted oids, order key)``.  The first two components are the group's
#: rank (:func:`_rank_key`), which a shard's stream never repeats; the
#: order key (see :func:`offer_order`) orders one group's windows the way
#: the unpruned baseline enumerates them, so when two shards offer the
#: same group, the smaller key carries the window the baseline keeps.
InstanceKey = tuple[float, tuple[int, ...], tuple[float, float]]


def instance_key(group: ObjectGroup, order: tuple[float, float]) -> InstanceKey:
    """The :data:`InstanceKey` of ``group`` offered at order key ``order``."""
    return (*_rank_key(group), order)


@dataclass(frozen=True, slots=True)
class KNWCCandidates:
    """One page of a shard's kNWC candidate stream (see ``knwc_candidates``).

    Attributes:
        groups: The page's candidate groups ascending by
            :data:`InstanceKey`, overlap constraint NOT applied.
        orders: Per-group enumeration order key of its first window —
            ``(anchor distance, partner frame y)``.
        exhausted: Whether nothing follows the page in the stream.
        stats: The query's I/O counters, as in ``KNWCResult``.
        reason: Unsatisfiability reason, as in ``KNWCResult``.
    """

    groups: tuple[ObjectGroup, ...]
    orders: tuple[tuple[float, float], ...]
    exhausted: bool
    stats: dict[str, int]
    reason: str | None = None


class CandidatePool:
    """The next ``limit`` candidate groups after ``after``, no overlap filter.

    A page of the candidate stream a cross-shard kNWC merge consumes
    (see ``repro.shard.merge``): offers of a group ranked at or before
    the cursor ``after`` (a :func:`_rank_key`) are dropped, the rest are
    ranked by :data:`InstanceKey`, and a group's first offer stands —
    the window the unpruned baseline's buffer keeps for it, as
    :class:`ExactGroupBuffer` ignores a group's later offers.  A page
    never splits a group, so a cursor is a rank, not a window.

    ``bound()`` prunes the search one ulp above the ``limit``-th kept
    distance once the page is full.  The search skips only what lies
    at or beyond the bound of its time — strictly beyond the then
    ``limit``-th kept distance, which only falls — so every group up
    to the final ``limit``-th distance, ties included, was offered, and
    the page is exactly the stream's next ``limit`` groups.  With
    ``prune=False`` the bound stays infinite: the search enumerates
    everything and the page is cut by rank alone.
    """

    def __init__(self, limit: int, qy: float, after: Rank | None,
                 prune: bool) -> None:
        if limit <= 0:
            raise ValueError("limit must be positive")
        self.limit = limit
        self.anchor, self.sy, self.qy = 0.0, 1.0, qy  # see offer_order
        self._after = after
        self._prune = prune
        self._keys: list[InstanceKey] = []
        self._groups: list[ObjectGroup] = []

    def offer(self, group: ObjectGroup) -> None:
        rank = _rank_key(group)
        if self._after is not None and rank <= self._after:
            return
        keys = self._keys
        # A rank sorts just before every InstanceKey it prefixes.
        at = bisect.bisect_left(keys, rank)
        if at == self.limit or (at < len(keys) and keys[at][:2] == rank):
            return
        keys.insert(at, (*rank, offer_order(self, group.window)))
        self._groups.insert(at, group)
        if len(keys) > self.limit:
            keys.pop()
            self._groups.pop()

    def bound(self) -> float:
        if self._prune and len(self._keys) == self.limit:
            return math.nextafter(self._keys[-1][0], math.inf)
        return math.inf

    def finalize(self) -> tuple[ObjectGroup, ...]:
        return tuple(self._groups)

    def orders(self) -> tuple[tuple[float, float], ...]:
        return tuple(key[2] for key in self._keys)


def make_policy(kind: str, k: int, m: int) -> GroupPolicy:
    """Factory: ``"exact"`` (default elsewhere) or ``"paper"``."""
    if kind == "exact":
        return ExactGroupBuffer(k, m)
    if kind == "paper":
        return PaperGroupList(k, m)
    raise ValueError(f"unknown kNWC maintenance policy: {kind!r}")
