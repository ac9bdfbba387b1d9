"""Coordinator-side merge rules for sharded scatter-gather (pure logic).

Shards own disjoint half-open anchor bands ``[lo, hi)`` on the x axis
and store their band plus a halo of at least the query length on each
side, so every window whose *anchor* (the paper's generating object)
lies in a shard's band is fully materialized inside that shard.  Each
window instance therefore has exactly one owning shard, and a shard-
local search restricted to its band (``anchor_region``) enumerates
exactly the instances the single-engine oracle generates from those
anchors.  Merging is then a question of reproducing the oracle's
*selection* over the disjoint union of per-shard enumerations:

**One answer order.**  Every answer ranks candidates by
:data:`~repro.core.knwc.Rank`: ``(distance, order key, sorted oids)``,
where the order key — ``(anchor distance, partner frame y)`` — is where
the single engine enumerates the group's first window.  It is a pure
function of the instance, so it is globally comparable and tree-shape
independent.  NWC is the first group of that order, and kNWC's greedy
walks it.

**One query path.**  The canonical answer is Definition 3's greedy
selection over the candidate universe in rank order — what the engine
and ``knwc_bruteforce`` compute — and Definition 3 at ``k = 1`` is
Definition 1.  The greedy reads only a *prefix* of that order, and
nothing past the prefix can change it.  Each shard serves its candidate
groups, each at its first window, as a stream in rank order, one page
at a time (``knwc_candidates``); :class:`KNWCPager` k-way-merges the
streams into one :class:`ExactGroupBuffer` and stops at the ``k``-th
acceptance, so the merged answer is exact by construction.  A group
offered by two shards is offered twice at its one distance, the smaller
order key first, and the buffer keeps that first offer — the single
engine's first enumeration of the group.

**NWC** is the pager of ``k = 1``, and its page requests carry no
``k``: the shard runs NWC's own one-group page (the plain ``NWCQuery``,
the paper's pruning).  The pager asks the nearest shard alone, then
each shard that could still beat its answer, under a ceiling one ulp
above it: a probe and a seeded fan-out.  A seeded shard still reports a
group at distance *equal* to the running best, so the order tie-break
sees every optimal instance.  Under NEAREST_WINDOW the merged distance
equals the single engine's (DESIGN.md §10), while the window is the
order-first pick: NEAREST_WINDOW NWC answers agree on distance.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, Sequence

from ..core.knwc import ExactGroupBuffer, OrderKey, Rank, rank
from ..core.measures import DistanceMeasure
from ..core.query import KNWCQuery, NWCQuery
from ..core.results import ObjectGroup

__all__ = [
    "KNWCPager",
    "OrderKey",
    "merge_nwc",
    "shard_lower_bound",
]

#: One page request: ``(after, limit, ceiling)`` — the cursor, the
#: page size, and the distance the page stops below (``inf``: none).
Page = tuple[Rank | None, int, float]


def merge_nwc(
    winners: Iterable[tuple[ObjectGroup | None, OrderKey | None]],
) -> tuple[ObjectGroup | None, OrderKey | None]:
    """Fold per-shard NWC winners into the global ``(group, order)``:
    the minimum under ``(distance, order)``.

    Off the query path (fleet NWC is :class:`KNWCPager` at ``k = 1``);
    the repo benchmark's ledger still times it, and ROADMAP item 7
    retires it.
    """
    best: ObjectGroup | None = None
    best_order: OrderKey | None = None
    for group, order in winners:
        if group is None:
            continue
        if best is None or (group.distance, order) < (best.distance, best_order):
            best, best_order = group, order
    return best, best_order


class KNWCPager:
    """One fleet query as a sans-IO merge of the shards' candidate streams.

    A kNWC query pages with its ``k``; an :class:`NWCQuery` is the pager
    of ``k = 1``.  :meth:`requests` pops every candidate the merge can
    already place and names the pages it needs before it can pop again,
    as ``{shard: (after, limit, ceiling)}``; :meth:`feed` hands one page
    in, and :meth:`lose` gives a shard up (its stream ends where it
    stands).  It is done when :meth:`requests` comes back empty.

    A shard is asked when its buffered page is used up, its stream is
    not exhausted, and its *floor* — below which the rest of its stream
    cannot lie: its band's :func:`shard_lower_bound` (over twice the
    length under NEAREST_WINDOW), its cursor's distance, or the ceiling
    its last page ended below — is at most the smallest buffered head,
    which could not pop before it.  With nothing buffered only the
    nearest such shard is asked (lowest floor, then lowest index);
    otherwise every shard at the lowest floor.  So every later pop lies
    at or above the floors asked, and a shard whose lower bound exceeds
    the answer's last distance is never contacted.

    A page carries a ceiling one ulp above the smallest buffered head
    only when accepting that head would complete the answer (``k - 1``
    groups accepted, the head overlapping each in at most ``m``
    objects): nothing the shard holds at or above the ceiling could
    then change the answer.  At ``k = 1`` that is every page asked
    while a group is buffered.  A page that ends below its ceiling
    leaves the stream open and raises the shard's floor to the ceiling.
    The first page to a shard holds ``k`` groups, and each further one
    doubles.
    """

    def __init__(self, query: KNWCQuery | NWCQuery,
                 owned: Sequence[tuple[float, float]]) -> None:
        if isinstance(query, NWCQuery):
            base, k, m = query, 1, 0
        else:
            base, k, m = query.base, query.k, query.m
        # A NEAREST_WINDOW group's distance is to its nearest covering
        # window: within one length of a member, which lies within one
        # length of the anchor.
        reach = base.length
        if base.measure is DistanceMeasure.NEAREST_WINDOW:
            reach *= 2
        self.k = k
        self._buffer = ExactGroupBuffer(k, m)
        self._floor = [shard_lower_bound(base.qx, reach, band)
                       for band in owned]
        count = len(self._floor)
        self._heads: list[deque[tuple[Rank, ObjectGroup]]] = [
            deque() for _ in range(count)]
        self._after: list[Rank | None] = [None] * count
        self._ceiling = [math.inf] * count
        self._exhausted = [False] * count
        #: Pages each shard has answered.
        self.pages = [0] * count

    def requests(self) -> dict[int, Page]:
        heads = self._heads
        while len(kept := self._buffer.finalize()) < self.k:
            waiting = [i for i, head in enumerate(heads)
                       if not head and not self._exhausted[i]]
            src = min((i for i, head in enumerate(heads) if head),
                      key=lambda i: heads[i][0][0], default=None)
            if src is None:
                if not waiting:
                    break  # every stream is exhausted
                nearest = min(waiting, key=lambda i: (self._floor[i], i))
                return {nearest: self._ask(nearest, math.inf)}
            key, group = heads[src][0]
            floors = {i: self._floor[i] for i in waiting
                      if self._floor[i] <= key[0]}
            if floors:
                ceiling = math.inf
                if len(kept) == self.k - 1 and all(
                        group.overlap(g) <= self._buffer.m for g in kept):
                    ceiling = math.nextafter(key[0], math.inf)
                lowest = min(floors.values())
                return {i: self._ask(i, ceiling)
                        for i, floor in floors.items() if floor == lowest}
            heads[src].popleft()
            self._buffer.offer(group, key[1])
        return {}

    def _ask(self, shard: int, ceiling: float) -> Page:
        self._ceiling[shard] = ceiling
        return self._after[shard], self.k << self.pages[shard], ceiling

    def feed(self, shard: int, groups: Sequence[ObjectGroup],
             orders: Sequence[OrderKey], exhausted: bool) -> None:
        """One page from ``shard``: its candidates in stream order, and
        whether nothing (below the page's ceiling) follows them."""
        self.pages[shard] += 1
        head = self._heads[shard]
        for group, order in zip(groups, orders):
            head.append((rank(group, order), group))
        if groups:
            self._after[shard] = head[-1][0]
            self._floor[shard] = max(self._floor[shard], head[-1][0][0])
        ceiling = self._ceiling[shard]
        if exhausted and ceiling < math.inf:
            self._floor[shard] = max(self._floor[shard], ceiling)
        else:
            self._exhausted[shard] = exhausted or not groups

    def lose(self, shard: int) -> None:
        """``shard`` did not answer: merge without the rest of its stream."""
        self._exhausted[shard] = True

    def result(self) -> tuple[ObjectGroup, ...]:
        return self._buffer.finalize()


def shard_lower_bound(qx: float, length: float,
                      owned: tuple[float, float]) -> float:
    """Lower bound on any distance a shard can answer with.

    A shard owning anchors in ``[lo, hi)`` only generates windows whose
    x range lies inside ``[lo - length, hi + length]``; under every
    measure the answer distance is at least the x distance from the
    query to that band (members sit inside the window, and the
    NEAREST_WINDOW measure is the distance to the window itself).  A
    shard whose bound exceeds the running best strictly cannot affect
    the merge — even distance ties are impossible — and is skipped.
    """
    lo, hi = owned
    lo -= length
    hi += length
    if qx < lo:
        return lo - qx
    if qx > hi:
        return qx - hi
    return 0.0
