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
from dataclasses import dataclass
from typing import Protocol

from ..geometry import Rect
from .results import ObjectGroup


def _rank_key(group: ObjectGroup) -> tuple[float, tuple[int, ...]]:
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
        self._keys: list[tuple[float, tuple[int, ...]]] = []
        self._candidates: list[ObjectGroup] = []
        self._seen: set[frozenset[int]] = set()
        # The greedy selection over the buffer, and its rank keys.
        self._selected: list[ObjectGroup] = []
        self._selected_keys: list[tuple[float, tuple[int, ...]]] = []

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


@dataclass(frozen=True, slots=True)
class KNWCCandidates:
    """One shard's raw kNWC candidate pool (see ``knwc_candidates``).

    Attributes:
        groups: Top-``limit`` distinct candidates ascending by
            ``(distance, oids)`` rank, overlap constraint NOT applied.
        orders: Per-candidate enumeration order key of the kept (first)
            offer — ``(anchor distance, partner frame y)``; the
            coordinator sorts the merged pools by it to replay the
            single-engine offer sequence.
        horizon: Distance below which the pool is provably complete;
            ``None`` when nothing was evicted, rank-rejected, or
            search-pruned (the pool then holds *every* candidate the
            shard's search enumerated).
        stats: The query's I/O counters, as in ``KNWCResult``.
        reason: Unsatisfiability reason, as in ``KNWCResult``.
    """

    groups: tuple[ObjectGroup, ...]
    orders: tuple[tuple[float, float], ...]
    horizon: float | None
    stats: dict[str, int]
    reason: str | None = None


class CandidatePool:
    """Top-``limit`` candidate window instances by rank, no overlap filter.

    The raw material of a cross-shard kNWC merge: the single-engine
    answer under distance ties depends on the exact offer sequence the
    pruned search produced, so shards export raw candidates plus
    enumeration order keys and let the coordinator *replay* the
    single-engine policy over the order-sorted union (see
    ``repro.shard.merge``).  Entries are window **instances** — the same
    object group reached from two anchors is kept twice — because the
    replay's bound-gating decides per instance which one the oracle's
    dedupe would have kept; only exact ``(oids, window)`` duplicates are
    dropped (those are impossible to tell apart and never both offered).

    ``bound()`` prunes the shard search at the worst kept rank's
    distance once the pool is full (or at the seeded coordinator bound
    if lower), which keeps the pool exact for every rank below
    :meth:`horizon`.  With ``limit=None`` the pool is unbounded and —
    when unseeded — never prunes, so it captures the complete offer
    stream (``horizon() is None``).
    """

    def __init__(self, limit: int | None, qy: float,
                 initial_bound: float | None = None) -> None:
        if limit is not None and limit <= 0:
            raise ValueError("limit must be positive")
        self.limit = limit
        self.anchor, self.sy, self.qy = 0.0, 1.0, qy  # see offer_order
        self._seeded = initial_bound is not None
        self._initial = float("inf") if initial_bound is None else initial_bound
        self._keys: list[tuple[float, tuple[int, ...]]] = []
        self._groups: list[ObjectGroup] = []
        self._orders: list[tuple[float, float]] = []
        self._seen: set[tuple[frozenset[int], object]] = set()
        self._overflowed = False

    def offer(self, group: ObjectGroup) -> None:
        instance = (group.oids, group.window)
        if instance in self._seen:
            return
        self._seen.add(instance)
        key = _rank_key(group)
        full = self.limit is not None and len(self._groups) == self.limit
        if full and key >= self._keys[-1]:
            self._overflowed = True
            return
        at = bisect.bisect_left(self._keys, key)
        self._keys.insert(at, key)
        self._groups.insert(at, group)
        self._orders.insert(at, offer_order(self, group.window))
        if full:
            self._keys.pop()
            self._groups.pop()
            self._orders.pop()
            self._overflowed = True

    def bound(self) -> float:
        if self.limit is not None and len(self._groups) == self.limit:
            worst = self._keys[-1][0]
            return worst if worst < self._initial else self._initial
        return self._initial

    def finalize(self) -> tuple[ObjectGroup, ...]:
        return tuple(self._groups)

    def orders(self) -> tuple[tuple[float, float], ...]:
        return tuple(self._orders)

    def horizon(self) -> float | None:
        """Distance below which the pool is provably complete.

        Everything the pool dropped — seed-pruned, search-pruned by
        ``bound()``, rank-rejected, or evicted — had distance at least
        the *final* ``bound()`` (the seed is constant and the worst kept
        rank only tightens), so instances strictly below it are all
        present.  ``None`` when the pool never filled and no seed was
        given: the search then ran unpruned by distance and the pool
        holds every instance enumerated.
        """
        if self._seeded or self._overflowed or (
                self.limit is not None and len(self._groups) == self.limit):
            return self.bound()
        return None


def make_policy(kind: str, k: int, m: int) -> GroupPolicy:
    """Factory: ``"exact"`` (default elsewhere) or ``"paper"``."""
    if kind == "exact":
        return ExactGroupBuffer(k, m)
    if kind == "paper":
        return PaperGroupList(k, m)
    raise ValueError(f"unknown kNWC maintenance policy: {kind!r}")
