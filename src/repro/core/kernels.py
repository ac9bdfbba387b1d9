"""Vectorized array kernels for the NWC hot path.

The scalar engine path (``NWCEngine._enumerate_windows``) spends almost
all of its time in per-object Python work: building ``(ty, dsq, obj)``
tuples, sorting them, bisecting the y-sorted list once per candidate
partner and running ``heapq.nsmallest`` once per qualified window.  The
kernels below compute the same quantities as whole-array numpy
operations over one search region's members:

* :class:`RegionSnapshot` — the frame transform and the stable y-sort,
  reusable across queries because the sort order depends only on the
  frame's y-sign, not on the query point;
* :func:`shrink_uppers` — SRR's ``shrink_search_region`` for all the
  objects of a leaf at once;
* :func:`window_spans` — the two-pointer window counting sweep
  (``searchsorted`` twice instead of a Python loop per partner);
* :func:`window_mindists` — MINDIST lower bounds of every candidate
  window at once;
* :func:`leaf_window_counts` — the member count of every candidate
  window of every search region of a leaf, without sorting any region;
* :func:`select_group` — top-``n`` selection by ``(distance, oid)`` via
  ``np.argpartition`` with an explicit tie fix-up so the result is
  bit-identical to ``heapq.nsmallest`` with a composite key.

Every kernel mirrors the scalar code operation for operation (same IEEE
arithmetic, same stable orderings, same boundary conventions), which is
what lets the engine cross-check the two execution modes for identical
groups, distances and counters.

:class:`RegionCache` is the small LRU used by the batch query API: it
memoizes window-query results (and their y-sorted snapshots) keyed by
the real-space query rectangle, so consecutive queries in a batch that
regenerate the same search region skip both the tree descent and the
re-sort (scalar and numpy modes; the columnar engine batches window
queries per leaf instead, see ``NWCEngine._leaf_table``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..geometry import PointObject

#: Default capacity of the batch-mode region LRU.
DEFAULT_CACHE_SIZE = 256


@dataclass(slots=True)
class RegionSnapshot:
    """Frame-y-sorted view of one search region's members.

    Position ``i`` of every array describes the member with the ``i``-th
    smallest frame-y coordinate; ties keep the fetch order (a stable
    sort), matching the scalar path's ``list.sort``.  The sort key is
    ``sy * y``: frame y is ``sy * (y - qy)``, a strictly increasing
    transform of it, so one snapshot serves every query point that
    normalizes into the same vertical half-plane.
    """

    objects: list[PointObject]
    xs: np.ndarray
    ys: np.ndarray
    oids: np.ndarray

    @classmethod
    def build(cls, members: Sequence[PointObject], sy: float) -> "RegionSnapshot":
        count = len(members)
        xs = np.fromiter((p.x for p in members), np.float64, count)
        ys = np.fromiter((p.y for p in members), np.float64, count)
        oids = np.fromiter((p.oid for p in members), np.int64, count)
        order = np.argsort(ys if sy > 0 else -ys, kind="stable")
        objects = [members[i] for i in order.tolist()]
        return cls(objects, xs[order], ys[order], oids[order])

    def __len__(self) -> int:
        return len(self.objects)

    def frame_arrays(self, qx: float, qy: float, sy: float) -> tuple[np.ndarray, np.ndarray]:
        """``(tys, dsq)`` for a query at ``(qx, qy)``.

        ``tys`` are frame-y coordinates in ascending order; ``dsq`` are
        squared Euclidean distances to the query point, aligned.
        """
        dy = self.ys - qy
        dx = self.xs - qx
        return sy * dy, dx * dx + dy * dy


@dataclass(slots=True)
class ColumnarSnapshot:
    """Frame-y-sorted view of one search region in flat-index columns.

    The columnar twin of :class:`RegionSnapshot`: instead of a list of
    ``PointObject``\\ s it keeps the flat index's column ids, so group
    materialization can stay lazy until a window actually survives the
    bound checks.  Sort semantics are identical (stable by ``sy * y``).
    """

    cols: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    oids: np.ndarray

    @classmethod
    def build(cls, flat, cols: np.ndarray, sy: float) -> "ColumnarSnapshot":
        xs = flat.xs[cols]
        ys = flat.ys[cols]
        oids = flat.oids[cols]
        order = np.argsort(ys if sy > 0 else -ys, kind="stable")
        return cls(cols[order], xs[order], ys[order], oids[order])

    def __len__(self) -> int:
        return len(self.cols)

    def frame_arrays(self, qx: float, qy: float, sy: float) -> tuple[np.ndarray, np.ndarray]:
        """``(tys, dsq)`` for a query at ``(qx, qy)`` (see
        :meth:`RegionSnapshot.frame_arrays`)."""
        dy = self.ys - qy
        dx = self.xs - qx
        return sy * dy, dx * dx + dy * dy


def shrink_uppers(tx: np.ndarray, ty: np.ndarray, length: float,
                  width: float, bound: float) -> tuple[np.ndarray, np.ndarray]:
    """SRR for many search regions: the array form of
    :func:`~repro.core.regions.shrink_search_region`.

    ``tx`` / ``ty`` are the generating objects' frame coordinates and
    ``bound`` a finite ``dist_best``.  Returns ``(upper, live)``: each
    region's shrunk upward extension, and False where the scalar code
    returns ``None`` (no window query at all).  Same operations in the
    same order, so ``upper`` is bit-identical for live regions.
    """
    dx = np.maximum(np.maximum(tx - length, -tx), 0.0)
    # dx < bound on every live row, so the clamp only silences rows
    # that are dropped anyway.
    budget = np.sqrt(np.maximum(bound * bound - dx * dx, 0.0))
    # A zero budget beside dx < bound means bound**2 underflowed
    # (subnormal seeded bounds): substitute the bound, as the scalar does.
    budget[budget <= 0.0] = bound
    dy_low = np.maximum(np.maximum(ty - width, -ty), 0.0)
    upper = np.minimum(width, budget + width - ty)
    return upper, (dx < bound) & (dy_low < budget) & (upper >= 0.0)


def window_kth_dsq(dsq: np.ndarray, los: np.ndarray, his: np.ndarray,
                   k: int, budget: int = 4_000_000) -> np.ndarray:
    """``k``-th smallest ``dsq`` inside every span ``[los[j], his[j])``.

    The whole-frontier group-distance kernel: for MAX (``k = n``) and
    MIN (``k = 1``) measures the group distance of a window is just an
    order statistic of the squared distances in its y-span, so all
    qualified windows of a region are measured in one masked-matrix
    partition instead of one selection per window.  Spans must satisfy
    ``his - los >= k``.  ``budget`` caps the transient matrix size
    (elements per chunk).
    """
    m = los.shape[0]
    out = np.empty(m, dtype=np.float64)
    if m == 0:
        return out
    widest = int((his - los).max())
    step = max(1, budget // max(widest, 1))
    for s in range(0, m, step):
        e = min(m, s + step)
        lo = los[s:e]
        hi = his[s:e]
        w = int((hi - lo).max())
        idx = lo[:, None] + np.arange(w, dtype=np.int64)[None, :]
        mask = idx < hi[:, None]
        np.clip(idx, 0, dsq.size - 1, out=idx)
        vals = np.where(mask, dsq[idx], np.inf)
        if k == 1:
            out[s:e] = vals.min(axis=1)
        else:
            out[s:e] = np.partition(vals, k - 1, axis=1)[:, k - 1]
    return out


def window_spans(
    tys: np.ndarray, ty_p: float, width: float
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Candidate-window extents of every partner at or above ``ty_p``.

    Returns ``(start, tops, los, his)``: partners are ``tys[start:]``
    (their frame-y values in ``tops``), and the window anchored at
    ``tops[j]`` spans the y-sorted positions ``[los[j], his[j])`` — the
    vectorized equivalent of the scalar two-pointer sweep plus
    ``bisect_right`` per partner.
    """
    start = int(np.searchsorted(tys, ty_p, side="left"))
    tops = tys[start:]
    los = np.searchsorted(tys, tops - width, side="left")
    his = np.searchsorted(tys, tops, side="right")
    return start, tops, los, his


def leaf_window_counts(tys: np.ndarray, sizes: np.ndarray,
                       width: float) -> np.ndarray:
    """Size of the candidate window topped by every member of many
    search regions — ``his - los`` of :func:`window_spans` for all of
    them at once, with no per-region sort.

    ``tys`` holds the members' frame y region after region, ``sizes``
    members each, in any order within a region.  The regions of one
    leaf overlap almost entirely, so their members share few distinct
    frame-y values: along those sorted values the members of a region
    below a window's bottom ``ty - width`` are a prefix, and one
    cumulative membership count per region answers every window with
    two lookups.  Same float subtraction and tie-inclusive comparisons
    as the per-region ``searchsorted`` pair, so the counts are equal.
    """
    levels, top = np.unique(tys, return_inverse=True)
    span = len(levels) + 1  # a region's cumulative counts: 0..len(levels)
    base = (np.arange(len(sizes)) * span).repeat(sizes)
    bottom = base + levels.searchsorted(levels - width, side="left").take(top)
    top += base + 1
    # One running count over the flattened (region, level) table: both
    # lookups of a window fall inside its own region's span, so the
    # carry from earlier regions cancels.
    table = np.bincount(top, minlength=len(sizes) * span)
    table.cumsum(out=table)
    return table.take(top) - table.take(bottom)


def window_mindists(tops: np.ndarray, width: float,
                    dx: float | np.ndarray) -> np.ndarray:
    """MINDIST from the query point to every candidate window.

    ``dx`` is the horizontal component shared by all windows of one
    search region (``max(0, x1)`` in frame space; an array gives each
    window its own region's); the vertical component is the window's
    bottom edge clamped at the axis.
    """
    dys = np.maximum(tops - width, 0.0)
    return np.sqrt(dx * dx + dys * dys)


def select_group(
    dsq: np.ndarray, oids: np.ndarray, lo: int, hi: int, n: int
) -> np.ndarray:
    """Positions of the ``n`` members of window ``[lo, hi)`` with the
    smallest ``(squared distance, oid)`` key, in ascending key order.

    ``np.argpartition`` partitions on the distance alone, so ties at the
    cut value are re-resolved by oid explicitly — the returned set and
    order are exactly those of ``heapq.nsmallest`` with the composite
    key.  Requires ``hi - lo >= n``.
    """
    if hi - lo == n:
        local = np.arange(lo, hi)
    else:
        d = dsq[lo:hi]
        part = np.argpartition(d, n - 1)[:n]
        cut = d[part].max()
        strict = np.flatnonzero(d < cut)
        ties = np.flatnonzero(d == cut)
        need = n - strict.size
        if ties.size > need:
            ties = ties[np.argsort(oids[lo + ties], kind="stable")[:need]]
        local = np.concatenate((strict, ties)) + lo
    order = np.lexsort((oids[local], dsq[local]))
    return local[order]


def rank_by_key(dsq: np.ndarray, oids: np.ndarray) -> np.ndarray:
    """Positions of a region's members ordered by ``(distance, oid)``.

    One lexsort per region amortizes the selection order across every
    qualified window: :func:`select_ranked` then reduces each top-``n``
    selection to a boolean mask over this permutation.
    """
    return np.lexsort((oids, dsq))


def select_ranked(rank: np.ndarray, lo: int, hi: int, n: int) -> np.ndarray:
    """First ``n`` members of window ``[lo, hi)`` in region rank order.

    Equivalent to :func:`select_group` (same positions, same order) —
    filtering the region-global ``(distance, oid)`` permutation to the
    window's y-span keeps members sorted by the selection key.
    """
    window = rank[(rank >= lo) & (rank < hi)]
    return window[:n]


class RegionCache:
    """Small LRU over window-query results, keyed by the query rectangle.

    Used only inside batch query execution of the scalar and numpy
    modes: queries in a batch that build the same search region (same
    generating object, same window parameters, same SRR extension)
    reuse the fetched member list — skipping the tree descent — and, in
    numpy mode, the y-sorted :class:`RegionSnapshot` as well.  ``window_queries`` counters still
    advance on hits; only the node I/O is saved.
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._members: OrderedDict[tuple, list[PointObject]] = OrderedDict()
        self._snapshots: dict[tuple, RegionSnapshot] = {}

    def __len__(self) -> int:
        return len(self._members)

    def members(
        self, key: tuple, fetch: Callable[[], list[PointObject]]
    ) -> list[PointObject]:
        """The window-query result for ``key``, fetching on a miss."""
        found = self._members.get(key)
        if found is not None:
            self.hits += 1
            self._members.move_to_end(key)
            return found
        self.misses += 1
        found = fetch()
        self._members[key] = found
        if len(self._members) > self.maxsize:
            evicted, _ = self._members.popitem(last=False)
            self._snapshots.pop((evicted, 1.0), None)
            self._snapshots.pop((evicted, -1.0), None)
        return found

    def snapshot(self, key: tuple, sy: float, members) -> RegionSnapshot:
        """The y-sorted snapshot of ``members`` for y-sign ``sy``."""
        snap = self._snapshots.get((key, sy))
        if snap is None:
            snap = RegionSnapshot.build(members, sy)
            if key in self._members:
                self._snapshots[(key, sy)] = snap
        return snap
