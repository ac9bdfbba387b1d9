"""Brute-force reference algorithms.

Deliberately independent of the engine's code paths (linear scans, no
R-tree, no frames) so tests compare two implementations that share
nothing but the problem definition.

Two candidate-window universes appear:

* :func:`enumerate_snapped_windows` — every window with an edge snapped
  to an object coordinate on *both* axes, in all four combinations.
  By the sliding argument behind Lemma 1, the optimal cluster is the
  best group over this universe; used to verify NWC answers.
* :func:`enumerate_generated_windows` — the quadrant-restricted
  generation rule of Section 3.2 (the engine's universe); used to verify
  kNWC answers group-for-group, since kNWC's k-th group depends on the
  exact universe searched (see DESIGN.md §4.1).
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from ..geometry import PointObject, Rect
from .knwc import OrderKey, make_policy, order_key
from .measures import cluster_distance
from .query import KNWCQuery, NWCQuery
from .results import KNWCResult, NWCResult, ObjectGroup


def _group_from_window(
    query: NWCQuery, window: Rect, points: Sequence[PointObject]
) -> ObjectGroup | None:
    """The ``n``-closest-member group of ``window``; None if unqualified."""
    inside = [p for p in points if window.contains_object(p)]
    if len(inside) < query.n:
        return None
    # Object id breaks distance ties, matching the engine's selection.
    inside.sort(key=lambda p: ((p.x - query.qx) ** 2 + (p.y - query.qy) ** 2, p.oid))
    chosen = tuple(inside[: query.n])
    distance = cluster_distance(
        query.qx, query.qy, chosen, query.measure, query.length, query.width
    )
    return ObjectGroup(chosen, distance, window)


def enumerate_snapped_windows(
    points: Sequence[PointObject], length: float, width: float
) -> Iterator[Rect]:
    """All ``l x w`` windows edge-snapped to object coordinates (4 combos
    per object pair)."""
    xs = sorted({p.x for p in points})
    ys = sorted({p.y for p in points})
    for x in xs:
        for y in ys:
            yield Rect(x - length, y - width, x, y)  # right+top snapped
            yield Rect(x - length, y, x, y + width)  # right+bottom
            yield Rect(x, y - width, x + length, y)  # left+top
            yield Rect(x, y, x + length, y + width)  # left+bottom


def enumerate_generated_windows(
    points: Sequence[PointObject], query: NWCQuery
) -> Iterator[Rect]:
    """The engine's window universe: for every object ``p``, windows with
    ``p`` on the quadrant-determined vertical edge and a partner from
    ``SR_p`` on the quadrant-determined horizontal edge."""
    for window, _order in _ordered_windows(points, query):
        yield window


def _ordered_windows(
    points: Sequence[PointObject], query: NWCQuery
) -> Iterator[tuple[Rect, OrderKey]]:
    """The generated windows with their order keys, in order-key order:
    anchors by distance to ``q``, each one's partners by frame y."""
    qx, qy = query.qx, query.qy
    length, width = query.length, query.width
    for p in sorted(points, key=lambda o: o.distance_to(qx, qy)):
        if p.x >= qx:
            x1, x2 = p.x - length, p.x
        else:
            x1, x2 = p.x, p.x + length
        sr = Rect(x1, p.y - width, x2, p.y + width)
        upper = p.y >= qy
        partners = [o for o in points if sr.contains_object(o)
                    and (o.y >= p.y if upper else o.y <= p.y)]
        for partner in sorted(partners, key=lambda o: o.y, reverse=not upper):
            if upper:
                window = Rect(x1, partner.y - width, x2, partner.y)
            else:
                window = Rect(x1, partner.y, x2, partner.y + width)
            yield window, order_key(qx, qy, p, partner.y)


def nwc_bruteforce(points: Sequence[PointObject], query: NWCQuery) -> NWCResult:
    """Exact NWC answer over the snapped-window universe."""
    best: ObjectGroup | None = None
    for window in enumerate_snapped_windows(points, query.length, query.width):
        group = _group_from_window(query, window, points)
        if group is None:
            continue
        if best is None or _better(group, best):
            best = group
    return NWCResult(group=best, stats={})


def nwc_bruteforce_generated(points: Sequence[PointObject], query: NWCQuery) -> NWCResult:
    """Exact NWC answer over the generation-rule universe (for testing
    that the Section 3.2 restriction loses nothing — Lemma 1)."""
    best: ObjectGroup | None = None
    for window in enumerate_generated_windows(points, query):
        group = _group_from_window(query, window, points)
        if group is None:
            continue
        if best is None or _better(group, best):
            best = group
    return NWCResult(group=best, stats={})


def knwc_bruteforce(
    points: Sequence[PointObject], query: KNWCQuery, maintenance: str = "exact"
) -> KNWCResult:
    """kNWC answer: every group of the generation-rule universe pushed
    through the chosen maintenance policy, in the engine's order.

    With ``maintenance="exact"`` the result is the greedy filter in
    :data:`~repro.core.knwc.Rank` order over the full candidate set,
    hence exactly comparable with an engine run.
    """
    policy = make_policy(maintenance, query.k, query.m)
    for window, order in _ordered_windows(points, query.base):
        group = _group_from_window(query.base, window, points)
        if group is not None:
            policy.offer(group, order)
    return KNWCResult(groups=policy.finalize(), stats={})


def _better(a: ObjectGroup, b: ObjectGroup) -> bool:
    """Deterministic comparison: distance then object ids."""
    ka = (a.distance, tuple(sorted(a.oids)))
    kb = (b.distance, tuple(sorted(b.oids)))
    return ka < kb


def qualified_window_exists(
    points: Sequence[PointObject], length: float, width: float, n: int
) -> bool:
    """True when at least one ``l x w`` window holds ``n`` objects."""
    if n <= 0:
        return True
    if len(points) < n:
        return False
    for window in enumerate_snapped_windows(points, length, width):
        if sum(1 for p in points if window.contains_object(p)) >= n:
            return True
    return False
