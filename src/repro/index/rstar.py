"""R*-tree insertion heuristics (Beckmann et al., SIGMOD 1990).

Split into its own module so the heuristics are unit-testable in
isolation from tree plumbing:

* :func:`choose_subtree` — least overlap enlargement at the leaf level,
  least area enlargement above it.
* :func:`split_node` — axis by minimum margin sum, distribution by
  minimum overlap (ties: minimum area).
* :func:`pick_reinsert_entries` — the 30% of entries farthest from the
  node centre, for forced reinsertion.
"""

from __future__ import annotations

from ..geometry import Rect
from .node import Node

#: Fraction of entries removed by forced reinsertion (the R* paper's p).
REINSERT_FRACTION = 0.3


def choose_subtree(node: Node, rect: Rect) -> Node:
    """Pick the child of ``node`` into which ``rect`` should descend."""
    children: list[Node] = node.entries
    if children[0].is_leaf:
        return _least_overlap_child(children, rect)
    return _least_enlargement_child(children, rect)


def _least_enlargement_child(children: list[Node], rect: Rect) -> Node:
    best = None
    best_key = None
    for child in children:
        assert child.mbr is not None
        key = (child.mbr.enlargement(rect), child.mbr.area)
        if best_key is None or key < best_key:
            best, best_key = child, key
    assert best is not None
    return best


def _least_overlap_child(children: list[Node], rect: Rect) -> Node:
    # Rect's union / overlap_area / enlargement / area inlined on float
    # tuples, operand for operand, so every key is bit-identical.  A
    # sibling disjoint from the enlarged box is disjoint from the child
    # too; it would add 0.0 - 0.0, which compares equal, so it is skipped.
    boxes = [(c.mbr.x1, c.mbr.y1, c.mbr.x2, c.mbr.y2) for c in children]
    rx1, ry1, rx2, ry2 = rect.x1, rect.y1, rect.x2, rect.y2
    best = None
    best_key = None
    for i, (cx1, cy1, cx2, cy2) in enumerate(boxes):
        ex1, ey1 = min(cx1, rx1), min(cy1, ry1)
        ex2, ey2 = max(cx2, rx2), max(cy2, ry2)
        overlap_delta = 0.0
        for j, (ox1, oy1, ox2, oy2) in enumerate(boxes):
            if j == i or ex1 > ox2 or ox1 > ex2 or ey1 > oy2 or oy1 > ey2:
                continue
            overlap_delta += ((min(ex2, ox2) - max(ex1, ox1))
                              * (min(ey2, oy2) - max(ey1, oy1)))
            x1, y1 = max(cx1, ox1), max(cy1, oy1)
            x2, y2 = min(cx2, ox2), min(cy2, oy2)
            overlap_delta -= 0.0 if x1 > x2 or y1 > y2 else (x2 - x1) * (y2 - y1)
        area = (cx2 - cx1) * (cy2 - cy1)
        key = (overlap_delta, (ex2 - ex1) * (ey2 - ey1) - area, area)
        if best_key is None or key < best_key:
            best, best_key = children[i], key
    assert best is not None
    return best


def _mbr_of(entries: list, start: int, end: int) -> Rect:
    acc = Node.entry_mbr(entries[start])
    for i in range(start + 1, end):
        acc = acc.union(Node.entry_mbr(entries[i]))
    return acc


def _axis_distributions(entries: list, min_entries: int):
    """Yield every legal (first_group, second_group) of the current order."""
    for split_at in range(min_entries, len(entries) - min_entries + 1):
        yield entries[:split_at], entries[split_at:]


def split_node(node: Node, min_entries: int) -> tuple[list, list]:
    """Partition an overflowing node's entries into two groups (R* split).

    Returns:
        The two entry groups; the caller rebuilds nodes from them.
    """
    entries = list(node.entries)
    best_axis_entries = None
    best_margin = None
    # Axis choice: for each axis, sort by lower then upper bound and sum
    # the margins of all distributions; keep the axis with the least sum.
    for axis in ("x", "y"):
        for bound in ("lower", "upper"):
            ordered = sorted(entries, key=_sort_key(axis, bound))
            margin_sum = 0.0
            for first, second in _axis_distributions(ordered, min_entries):
                margin_sum += _mbr_of(first, 0, len(first)).margin
                margin_sum += _mbr_of(second, 0, len(second)).margin
            if best_margin is None or margin_sum < best_margin:
                best_margin = margin_sum
                best_axis_entries = ordered
    assert best_axis_entries is not None
    # Distribution choice on the winning axis: minimum overlap, then area.
    best_groups = None
    best_key = None
    for first, second in _axis_distributions(best_axis_entries, min_entries):
        mbr1 = _mbr_of(first, 0, len(first))
        mbr2 = _mbr_of(second, 0, len(second))
        key = (mbr1.overlap_area(mbr2), mbr1.area + mbr2.area)
        if best_key is None or key < best_key:
            best_key = key
            best_groups = (list(first), list(second))
    assert best_groups is not None
    return best_groups


def _sort_key(axis: str, bound: str):
    if axis == "x":
        if bound == "lower":
            return lambda e: (Node.entry_mbr(e).x1, Node.entry_mbr(e).x2)
        return lambda e: (Node.entry_mbr(e).x2, Node.entry_mbr(e).x1)
    if bound == "lower":
        return lambda e: (Node.entry_mbr(e).y1, Node.entry_mbr(e).y2)
    return lambda e: (Node.entry_mbr(e).y2, Node.entry_mbr(e).y1)


def pick_reinsert_entries(node: Node) -> list:
    """Select the entries to force-reinsert from an overflowing node.

    The R* heuristic removes the ``REINSERT_FRACTION`` of entries whose
    centres are farthest from the node-MBR centre, reinserting the
    closest of them first.
    """
    assert node.mbr is not None
    cx, cy = node.mbr.center
    count = max(1, int(round(len(node.entries) * REINSERT_FRACTION)))

    def center_dist(entry) -> float:
        ex, ey = Node.entry_mbr(entry).center
        dx, dy = ex - cx, ey - cy
        return dx * dx + dy * dy

    ordered = sorted(node.entries, key=center_dist, reverse=True)
    picked = ordered[:count]
    picked.reverse()  # reinsert closest-first ("close reinsert")
    return picked
