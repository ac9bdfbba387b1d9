"""Hilbert-curve utilities and Hilbert-packed bulk loading.

STR (the default loader in :mod:`repro.index.rtree`) tiles by x then y;
Hilbert packing orders objects along a space-filling curve and cuts the
order into nodes.  Both produce valid R-trees; their node MBRs differ,
which shifts window-query I/O slightly — the ablation bench
``benchmarks/test_ablations_index.py`` quantifies that on the paper's
workload.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..geometry import PointObject, Rect
from ..storage import IOStats
from .pack import pack_tree, runs
from .rtree import DEFAULT_MAX_ENTRIES, RStarTree

#: Curve resolution: coordinates are quantized to 2**ORDER cells/axis.
DEFAULT_CURVE_ORDER = 16


def hilbert_d(x, y, order: int = DEFAULT_CURVE_ORDER):
    """Distance along the Hilbert curve of the cell ``(x, y)``.

    Classic bit-twiddling transform, element-wise over integer arrays
    (an ``int`` for scalar cells); ``x`` and ``y`` must lie in
    ``[0, 2**order)``.
    """
    side = 1 << order
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    if ((x < 0) | (x >= side) | (y < 0) | (y >= side)).any():
        raise ValueError(f"cell ({x}, {y}) outside [0, {side})^2")
    d = np.zeros(np.broadcast(x, y).shape, dtype=np.int64)
    s = side >> 1
    while s > 0:
        rx = (x & s) > 0
        ry = (y & s) > 0
        d += s * s * ((3 * rx) ^ ry)
        # Rotate the quadrant: flip when (rx, ry) == (1, 0), swap when ry == 0.
        flip = rx & ~ry
        x = np.where(flip, s - 1 - x, x)
        y = np.where(flip, s - 1 - y, y)
        x, y = np.where(ry, x, y), np.where(ry, y, x)
        s >>= 1
    return int(d) if d.ndim == 0 else d


def _hilbert_keys(xs, ys, extent: Rect, order: int):
    """Hilbert index of each location's quantized cell inside ``extent``
    (locations outside it fall into the nearest edge cell)."""
    side = 1 << order
    span_x = max(extent.width, 1e-12)
    span_y = max(extent.height, 1e-12)
    # Clipping before truncation equals int() then clamping to the grid.
    cx = np.clip((np.asarray(xs) - extent.x1) / span_x * side, 0, side - 1)
    cy = np.clip((np.asarray(ys) - extent.y1) / span_y * side, 0, side - 1)
    return hilbert_d(cx.astype(np.int64), cy.astype(np.int64), order)


def hilbert_key(
    p: PointObject, extent: Rect, order: int = DEFAULT_CURVE_ORDER
) -> int:
    """Hilbert index of an object's quantized location inside ``extent``."""
    return _hilbert_keys(p.x, p.y, extent, order)


def hilbert_bulk_load(
    objects: Sequence[PointObject],
    max_entries: int = DEFAULT_MAX_ENTRIES,
    min_entries: int | None = None,
    fill: float = 0.9,
    order: int = DEFAULT_CURVE_ORDER,
    stats: IOStats | None = None,
) -> RStarTree:
    """Build a packed tree by sorting objects along the Hilbert curve.

    Produces the same tree type as :meth:`RStarTree.bulk_load` (all
    invariants hold; later dynamic updates work normally).  The upper
    levels pack the nodes below in their order, unsorted.
    """
    if not 0.1 < fill <= 1.0:
        raise ValueError("fill must be in (0.1, 1.0]")
    tree = RStarTree(max_entries=max_entries, min_entries=min_entries, stats=stats)
    if not objects:
        return tree
    capacity = min(max_entries, max(2 * tree.min_entries, int(max_entries * fill)))

    def tile(cx, cy, leaf):
        if not leaf:
            return np.arange(len(cx)), runs(len(cx), capacity)
        extent = Rect(float(cx.min()), float(cy.min()),
                      float(cx.max()), float(cy.max()))
        keys = _hilbert_keys(cx, cy, extent, order)
        return np.argsort(keys, kind="stable"), runs(len(cx), capacity)

    tree.root = pack_tree(tree, objects, tile)
    tree.size = len(objects)
    return tree
