"""Packing nodes from columns, for STR and Hilbert bulk loading and
``load_tree``: chunk sizes cut a level's items (one object array) into
nodes, and a node's MBR is its chunk's per-column min/max.  That is
the tree one ``Node.add_entry`` per entry builds, bit for bit: the
``Rect.union`` chain keeps the first item at the minimum (maximum),
min/max never round, and :func:`_first_extreme` keeps the chain's sign
of zero.  A stable ``argsort`` orders ties as ``sorted(key=...)`` does.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from ..geometry import PointObject, Rect
from .node import Node


def runs(n: int, capacity: int) -> list[int]:
    """Sizes of cutting ``n`` items into runs of ``capacity``."""
    full, rest = divmod(n, capacity)
    return [capacity] * full + ([rest] if rest else [])


def rebalance_tail(sizes: list[int], min_size: int) -> list[int]:
    """Evenly re-split each underfull chunk (a slab remainder) together
    with its predecessor.  With ``capacity >= 2 * min_size`` both halves
    are legal."""
    if len(sizes) <= 1:
        return sizes
    out: list[int] = []
    for size in sizes:
        if out and size < min_size:
            merged = out.pop() + size
            out += (merged // 2, merged - merged // 2)
        else:
            out.append(size)
    return out


def str_tiles(xs: np.ndarray, ys: np.ndarray, capacity: int) -> tuple[np.ndarray, list[int]]:
    """Sort-Tile-Recursive tiling of one level: order by x, cut into
    ``ceil(sqrt(pages))`` slabs, order each slab by y (ties keep their x
    order), cut each slab into chunks of ``capacity``.  Returns
    ``(order, sizes)``."""
    n = len(xs)
    slab_count = max(1, math.ceil(math.sqrt(math.ceil(n / capacity))))
    per_slab = math.ceil(n / slab_count)
    order = np.argsort(xs, kind="stable")
    sizes = []
    for s in range(0, n, per_slab):
        slab = order[s:s + per_slab]
        slab[:] = slab[np.argsort(ys[slab], kind="stable")]
        sizes += runs(len(slab), capacity)
    return order, sizes


def _first_extreme(ufunc: np.ufunc, col: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per chunk, the ``np.minimum``/``np.maximum`` of ``col`` that a
    left-to-right ``min``/``max`` chain returns: on a tie of ``0.0`` and
    ``-0.0`` the chain keeps the first, ``reduceat`` either."""
    out = ufunc.reduceat(col, starts)
    if np.signbit(col[col == 0.0]).any():
        ends = np.append(starts[1:], len(col))
        for k in np.flatnonzero(out == 0.0):
            chunk = col[starts[k]:ends[k]]
            out[k] = chunk[np.argmax(chunk == 0.0)]
    return out


def chunk_mbrs(boxes: tuple[np.ndarray, ...], sizes) -> np.ndarray:
    """The ``(len(sizes), 4)`` MBRs of consecutive chunks of items with
    MBR columns ``boxes`` (``(x1, y1, x2, y2)``, or ``(x, y)`` for points);
    an empty chunk gets ``(inf, inf, -inf, -inf)``."""
    bounds = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    filled = np.flatnonzero(np.diff(bounds))
    mbrs = np.tile([np.inf, np.inf, -np.inf, -np.inf], (len(sizes), 1))
    if len(filled):
        starts = bounds[filled]
        for j, col in enumerate(boxes[:2]):
            mbrs[filled, j] = _first_extreme(np.minimum, col, starts)
        for j, col in enumerate(boxes[-2:], 2):
            mbrs[filled, j] = _first_extreme(np.maximum, col, starts)
    return mbrs


def pack_level(is_leaf: bool, items: np.ndarray, sizes: list[int],
               boxes: tuple[np.ndarray, ...], ids: Iterable[int]
               ) -> tuple[list[Node], np.ndarray]:
    """Nodes ``ids`` (in chunk order) over consecutive chunks of
    ``items``; internal ones adopt their children.  Returns them with
    their :func:`chunk_mbrs` (an empty node's ``mbr`` is ``None``)."""
    mbrs = chunk_mbrs(boxes, sizes)
    cuts = np.cumsum([0, *sizes]).tolist()
    nodes = []
    for node_id, start, end, box in zip(ids, cuts, cuts[1:], mbrs.tolist()):
        node = Node(is_leaf, node_id)
        node.entries = items[start:end].tolist()
        node.mbr = Rect(*box) if end > start else None
        nodes.append(node)
    if not is_leaf:
        for node in nodes:
            for child in node.entries:
                child.parent = node
    return nodes, mbrs


def pack_tree(tree, objects: Sequence[PointObject],
              tile: Callable[[np.ndarray, np.ndarray, bool],
                             tuple[np.ndarray, list[int]]]) -> Node:
    """Pack ``objects`` bottom-up into ``tree``'s nodes; returns the root.

    ``tile(cx, cy, leaf)`` orders a level's items by their coordinates
    (``leaf``) or MBR centres and cuts the order into chunk sizes, which
    are rebalanced and packed.  Node ids go level by level in chunk
    order; a level's arrays are dropped before the next is built.
    """
    n = len(objects)
    items = np.array(objects, dtype=object)
    boxes = cx, cy = (np.fromiter((p.x for p in objects), np.float64, n),
                      np.fromiter((p.y for p in objects), np.float64, n))
    is_leaf = True
    while True:
        order, sizes = tile(cx, cy, is_leaf)
        del cx, cy
        items = items[order]
        boxes = tuple(col[order] for col in boxes)
        del order
        sizes = rebalance_tail(sizes, tree.min_entries)
        nodes, mbrs = pack_level(is_leaf, items, sizes, boxes,
                                 tree._take_ids(len(sizes)))
        if len(nodes) == 1:
            break
        items = np.array(nodes, dtype=object)
        boxes = tuple(mbrs.T)
        cx = (mbrs[:, 0] + mbrs[:, 2]) / 2.0
        cy = (mbrs[:, 1] + mbrs[:, 3]) / 2.0
        is_leaf = False
    root = nodes[0]
    root.parent = None
    return root
