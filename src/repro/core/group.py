"""Group NWC — nearest window cluster for a *set* of query points.

A natural extension in the spirit of the group-NN queries the paper
cites ([16], [17]): a group of friends at locations ``Q`` wants the
nearest area with ``n`` venues.  Each object is charged an aggregate
cost ``c(p) = agg_{q in Q} dist(q, p)`` (``agg`` is SUM or MAX), and a
cluster's distance is the MIN/MAX/AVG of its members' costs; the query
returns the ``n`` objects inside some ``l x w`` window minimizing that.

Single-point NWC is the special case ``|Q| = 1``.

Algorithmic notes (mirroring Section 3 of the paper):

* Objects are visited in ascending aggregate cost via a best-first
  traversal keyed by ``agg_q MINDIST(q, node)`` — a valid lower bound
  for every object below a node because each per-``q`` MINDIST is, and
  SUM/MAX are monotone aggregators.
* With multiple query points there is no single "toward q" direction,
  so the quadrant restriction of Section 3.1 does not apply.  Instead
  every cluster is enumerated through its *right-top snapped* window:
  any window can be slid left until its right edge touches the
  cluster's max-x member and down until the top edge touches the max-y
  member, without losing members.  Hence: for each visited object
  ``p``, search region ``[x_p - l, x_p] x [y_p - w, y_p + w]``,
  partners on the top edge at ``y' >= y_p``.
* Pruning uses ``agg_q MINDIST(q, rect)`` against the best cost so far;
  the stream terminates once even ``aggcost(p) - factor * diagonal``
  (``factor = |Q|`` for SUM, 1 for MAX) cannot beat the bound.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

from ..geometry import PointObject, Rect
from ..index import RStarTree
from ..storage import IOStats
from .knwc import make_policy
from .measures import DistanceMeasure
from .results import NWCResult, ObjectGroup


class Aggregate(enum.Enum):
    """Per-object aggregation over the query points."""

    SUM = "sum"
    MAX = "max"


@dataclass(frozen=True, slots=True)
class GroupNWCQuery:
    """A group NWC query.

    Attributes:
        query_points: The locations of the group members (non-empty).
        length: Window length ``l``.
        width: Window width ``w``.
        n: Number of objects to retrieve.
        aggregate: SUM (total travel) or MAX (worst member).
        measure: MIN/MAX/AVG over the chosen objects' aggregate costs
            (Eq. 1-3 lifted to aggregate costs; the nearest-window
            measure is single-point specific and not supported here).
    """

    query_points: tuple[tuple[float, float], ...]
    length: float
    width: float
    n: int
    aggregate: Aggregate = Aggregate.SUM
    measure: DistanceMeasure = DistanceMeasure.MAX

    def __post_init__(self) -> None:
        if not self.query_points:
            raise ValueError("at least one query point is required")
        if self.length <= 0 or self.width <= 0:
            raise ValueError("window length and width must be positive")
        if self.n <= 0:
            raise ValueError("n must be positive")
        if self.measure is DistanceMeasure.NEAREST_WINDOW:
            raise ValueError("nearest-window measure is not defined for groups")

    @property
    def diagonal_slack(self) -> float:
        """Upper bound on ``aggcost(p) - agg MINDIST(win)`` for windows
        containing ``p``: ``|Q|`` diagonals for SUM, one for MAX."""
        diag = math.hypot(self.length, self.width)
        if self.aggregate is Aggregate.SUM:
            return diag * len(self.query_points)
        return diag

    def point_cost(self, x: float, y: float) -> float:
        """``c(p)``: aggregate distance from the query group to a point."""
        dists = (math.hypot(x - qx, y - qy) for qx, qy in self.query_points)
        return sum(dists) if self.aggregate is Aggregate.SUM else max(dists)

    def rect_lower_bound(self, rect: Rect) -> float:
        """Aggregate MINDIST to a rectangle — lower-bounds ``c(p)`` for
        every ``p`` inside it."""
        dists = (rect.mindist(qx, qy) for qx, qy in self.query_points)
        return sum(dists) if self.aggregate is Aggregate.SUM else max(dists)

    def group_distance(self, costs: Sequence[float]) -> float:
        """Cluster distance from the chosen members' aggregate costs."""
        if self.measure is DistanceMeasure.MAX:
            return max(costs)
        if self.measure is DistanceMeasure.MIN:
            return min(costs)
        return sum(costs) / len(costs)


def group_nwc(tree: RStarTree, query: GroupNWCQuery,
              prune: bool = True) -> NWCResult:
    """Answer a group NWC query against an R*-tree.

    Args:
        tree: Index over the object set.
        query: The group query.
        prune: Apply bound-based pruning (disable to force the
            exhaustive baseline, e.g. for testing).
    """
    stats = IOStats()
    best: ObjectGroup | None = None
    best_key: tuple | None = None

    def bound() -> float:
        return best.distance if best is not None else float("inf")

    def offer(candidate: ObjectGroup) -> None:
        nonlocal best, best_key
        key = (candidate.distance, tuple(sorted(candidate.oids)))
        if best_key is None or key < best_key:
            best, best_key = candidate, key

    _group_search(tree, query, bound, offer, prune, stats)
    return NWCResult(group=best, stats=stats.snapshot())


def group_knwc(
    tree: RStarTree,
    query: GroupNWCQuery,
    k: int,
    m: int,
    maintenance: str = "exact",
    prune: bool = True,
):
    """Group kNWC: ``k`` alternative areas for the query group, with at
    most ``m`` shared objects between any two (Definition 3 lifted to
    group queries).  Returns a
    :class:`~repro.core.results.KNWCResult`."""
    from .results import KNWCResult

    if not 0 <= m < query.n:
        raise ValueError("m must satisfy 0 <= m < n")
    stats = IOStats()
    policy = make_policy(maintenance, k, m)
    _group_search(tree, query, policy.bound, policy.offer, prune, stats)
    return KNWCResult(groups=policy.finalize(), stats=stats.snapshot())


def _group_search(tree: RStarTree, query: GroupNWCQuery, bound, offer,
                  prune: bool, stats: IOStats) -> None:
    """Shared best-first search loop of group NWC / group kNWC."""

    def node_filter(node) -> bool:
        if node.mbr is None:
            return False
        if not prune:
            return True
        gen = node.mbr.expand(query.length, query.width, query.length, query.width)
        return query.rect_lower_bound(gen) < bound()

    slack = query.diagonal_slack
    for p, cost_p, _leaf in _incremental_by_cost(tree, query, node_filter, stats):
        if prune and cost_p >= bound() + slack:
            break
        sr = Rect(p.x - query.length, p.y - query.width,
                  p.x, p.y + query.width)
        if prune and query.rect_lower_bound(sr) >= bound():
            continue
        stats.window_queries += 1
        members = tree.window_query(sr, io=stats)
        for candidate in _candidates_in_search_region(
            query, p, members, bound() if prune else None
        ):
            offer(candidate)


def _incremental_by_cost(tree: RStarTree, query: GroupNWCQuery, node_filter, stats):
    """Best-first object stream in ascending aggregate cost."""
    counter = itertools.count()
    root = tree.root
    if root.mbr is None:
        return
    heap: list = [(query.rect_lower_bound(root.mbr), 0, next(counter), root, None)]
    while heap:
        cost, kind, _, item, leaf = heapq.heappop(heap)
        if kind == 1:
            yield item, cost, leaf
            continue
        node = item
        if not node_filter(node):
            continue
        stats.record_node(node.is_leaf)
        if node.is_leaf:
            for obj in node.entries:
                heapq.heappush(
                    heap,
                    (query.point_cost(obj.x, obj.y), 1, next(counter), obj, node),
                )
        else:
            for child in node.entries:
                if child.mbr is None:
                    continue
                heapq.heappush(
                    heap,
                    (query.rect_lower_bound(child.mbr), 0, next(counter), child, None),
                )


def _candidates_in_search_region(
    query: GroupNWCQuery,
    p: PointObject,
    members: Sequence[PointObject],
    bound: float | None,
):
    """Yield the best group of every qualified right-top-snapped window
    of generator ``p`` (those passing the ``bound`` check)."""
    entries = sorted(
        ((obj.y, query.point_cost(obj.x, obj.y), obj) for obj in members),
        key=lambda e: e[0],
    )
    ys = [e[0] for e in entries]
    start = bisect_left(ys, p.y)
    lo = 0
    for j in range(start, len(entries)):
        y_top = entries[j][0]
        bottom = y_top - query.width
        while ys[lo] < bottom:
            lo += 1
        hi = bisect_right(ys, y_top, lo=lo)
        if hi - lo < query.n:
            continue
        window = Rect(p.x - query.length, bottom, p.x, y_top)
        if bound is not None and query.rect_lower_bound(window) >= bound:
            continue
        chosen = heapq.nsmallest(query.n, entries[lo:hi],
                                 key=lambda e: (e[1], e[2].oid))
        chosen.sort(key=lambda e: (e[1], e[2].oid))
        distance = query.group_distance([e[1] for e in chosen])
        if bound is not None and distance >= bound:
            continue
        yield ObjectGroup(tuple(e[2] for e in chosen), distance, window)


def group_nwc_bruteforce(
    points: Sequence[PointObject], query: GroupNWCQuery
) -> NWCResult:
    """O(N^3) reference over the right-top-snapped window universe."""
    best: ObjectGroup | None = None
    best_key: tuple | None = None
    for a in points:
        for b in points:
            window = Rect(a.x - query.length, b.y - query.width, a.x, b.y)
            inside = [p for p in points if window.contains_object(p)]
            if len(inside) < query.n:
                continue
            costs = sorted(
                ((query.point_cost(p.x, p.y), p) for p in inside),
                key=lambda e: (e[0], e[1].oid),
            )[: query.n]
            distance = query.group_distance([c for c, _ in costs])
            group = ObjectGroup(tuple(p for _, p in costs), distance, window)
            key = (distance, tuple(sorted(group.oids)))
            if best_key is None or key < best_key:
                best, best_key = group, key
    return NWCResult(group=best, stats={})
