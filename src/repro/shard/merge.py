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

**NWC, point measures (MAX/MIN/AVG).**  Each shard answers the first
group of its own stream — a one-group page, ``knwc_candidates`` on the
plain query — with its order key, and the coordinator picks the minimum
under ``(distance, order)``.  Seeding later shards with
``next_bound(best.distance)`` (one ulp above the running best) as the
page's ceiling is safe: a seeded shard still reports an instance at
distance *equal* to the running best, so the order tie-break sees
every d* instance, while everything strictly worse is pruned.

**NWC, NEAREST_WINDOW.**  The measure is not monotone in the member
distances, so the single engine's pruned tie pick among equal-distance
windows is trajectory dependent.  The scatter goes out *unseeded* and
the same ``(distance, order)`` rule picks a deterministic winner: the
merged distance equals the single engine's exactly (any instance
surviving its pruning survives the shard's looser local pruning), while
the winning window is the deterministic order-first pick — mirroring
the repo-wide convention that NEAREST_WINDOW answers agree on distance.

**kNWC (all measures).**  The canonical answer is Definition 3's greedy
selection over the candidate universe in rank order — what the engine
and ``knwc_bruteforce`` compute.  The greedy reads only a *prefix* of
that order, and nothing past the prefix can change it.  Each shard
serves its candidate groups, each at its first window, as a stream in
rank order, one page at a time (``knwc_candidates``); :class:`KNWCPager`
k-way-merges the streams into one :class:`ExactGroupBuffer` and stops at
the ``k``-th acceptance, so the merged answer is exact by construction.
A group offered by two shards is offered twice at its one distance, the
smaller order key first, and the buffer keeps that first offer — the
single engine's first enumeration of the group.  A page's cursor is the
rank of the last group the coordinator holds from that shard.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, Sequence

from ..core.knwc import ExactGroupBuffer, OrderKey, Rank, rank
from ..core.measures import DistanceMeasure
from ..core.query import KNWCQuery
from ..core.results import ObjectGroup

__all__ = [
    "KNWCPager",
    "OrderKey",
    "merge_nwc",
    "next_bound",
    "seedable",
    "shard_lower_bound",
]

def seedable(measure: DistanceMeasure) -> bool:
    """Whether a running best may be forwarded as a shard prune bound.

    Point measures are monotone in the member distances, so pruning at
    one ulp above the running best preserves every potential winner.
    NEAREST_WINDOW windows can beat their members' distances, and the
    mindist prefilter inside a seeded shard could drop an instance the
    deterministic tie-break needs — so NEAREST_WINDOW scatters unseeded.
    """
    return measure is not DistanceMeasure.NEAREST_WINDOW


def next_bound(distance: float) -> float:
    """The prune bound encoding "strictly worse than ``distance``".

    Engine searches keep candidates with ``dist < bound``; forwarding
    one ulp above the running best keeps equal-distance candidates
    eligible so the global order tie-break stays exact.
    """
    return math.nextafter(distance, math.inf)


def merge_nwc(
    winners: Iterable[tuple[ObjectGroup | None, OrderKey | None]],
) -> tuple[ObjectGroup | None, OrderKey | None]:
    """Fold per-shard NWC winners into the global ``(group, order)``.

    The minimum under ``(distance, order)`` — distance first, then the
    global enumeration order key as the deterministic tie-break the
    single-engine search applies implicitly by keeping the first
    optimal instance it meets.
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
    """One fleet kNWC as a sans-IO merge of the shards' candidate streams.

    :meth:`requests` pops every candidate the merge can already place
    and names the pages it needs before it can pop again, as ``{shard:
    (after, limit)}``; :meth:`feed` hands one page in, and :meth:`lose`
    gives a shard up (its stream ends where it stands).  It is done when
    :meth:`requests` comes back empty.

    A shard is asked when its buffered page is used up, its stream is
    not exhausted, and its *floor* — the larger of its band's
    :func:`shard_lower_bound` (over twice the length under
    NEAREST_WINDOW) and its cursor's distance, below which
    the rest of its stream cannot lie — is at most the smallest buffered
    head, which could not pop before it.  Of the shards in that state
    only those with the lowest floor are asked, so every later pop lies
    at or above their floor: the nearest shard is asked first, and a
    shard whose lower bound exceeds the answer's last distance is never
    contacted.  The first page to a shard holds ``k`` groups, and
    each further one doubles.
    """

    def __init__(self, query: KNWCQuery,
                 owned: Sequence[tuple[float, float]]) -> None:
        base = query.base
        # A NEAREST_WINDOW group's distance is to its nearest covering
        # window: within one length of a member, which lies within one
        # length of the anchor.
        reach = base.length
        if base.measure is DistanceMeasure.NEAREST_WINDOW:
            reach *= 2
        self.k = query.k
        self._buffer = ExactGroupBuffer(query.k, query.m)
        self._lower = tuple(shard_lower_bound(base.qx, reach, band)
                            for band in owned)
        count = len(self._lower)
        self._heads: list[deque[tuple[Rank, ObjectGroup]]] = [
            deque() for _ in range(count)]
        self._after: list[Rank | None] = [None] * count
        self._exhausted = [False] * count
        #: Pages each shard has answered.
        self.pages = [0] * count

    def _floor(self, shard: int) -> float:
        after = self._after[shard]
        lower = self._lower[shard]
        return lower if after is None else max(lower, after[0])

    def requests(self) -> dict[int, tuple[Rank | None, int]]:
        heads = self._heads
        while len(self._buffer.finalize()) < self.k:
            src = min((i for i, head in enumerate(heads) if head),
                      key=lambda i: heads[i][0][0], default=None)
            bar = math.inf if src is None else heads[src][0][0][0]
            waiting = {i: floor for i, head in enumerate(heads)
                       if not head and not self._exhausted[i]
                       and (floor := self._floor(i)) <= bar}
            if waiting:
                nearest = min(waiting.values())
                return {i: (self._after[i], self.k << self.pages[i])
                        for i, floor in waiting.items() if floor == nearest}
            if src is None:
                break  # every stream is exhausted
            key, group = heads[src].popleft()
            self._buffer.offer(group, key[1])
        return {}

    def feed(self, shard: int, groups: Sequence[ObjectGroup],
             orders: Sequence[OrderKey], exhausted: bool) -> None:
        """One page from ``shard``: its candidates in stream order."""
        self.pages[shard] += 1
        head = self._heads[shard]
        for group, order in zip(groups, orders):
            head.append((rank(group, order), group))
        if groups:
            self._after[shard] = head[-1][0]
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
