"""Vectorized array kernels for the NWC hot path.

The scalar oracle's enumeration (``repro.core.oracle._enumerate_windows``)
spends almost all of its time in per-object Python work: building
``(ty, dsq, obj)`` tuples, sorting them, bisecting the y-sorted list
once per candidate partner and running ``heapq.nsmallest`` once per
qualified window.  The kernels below compute the same quantities as
whole-array numpy operations over one search region's members, or over
all the search regions of a group of leaves, for the columnar search
(:mod:`repro.core.columnar`):

* :class:`ColumnarSnapshot` — the frame transform and the stable y-sort
  of one region's members, as flat-index column ids;
* :func:`shrink_uppers` — SRR's ``shrink_search_region`` for all the
  objects of a leaf at once;
* :func:`window_spans` — the two-pointer window counting sweep
  (``searchsorted`` twice instead of a Python loop per partner);
* :func:`window_mindists` — MINDIST lower bounds of every candidate
  window at once;
* :func:`leaf_window_counts` — the member count of every candidate
  window of every search region of a leaf, without sorting any region;
* :func:`window_kth_dsq` — the MAX / MIN group distance of many windows
  as one order-statistic pass;
* :func:`rank_by_key` / :func:`select_ranked` — top-``n`` selection by
  ``(distance, oid)``: one lexsort per region, one mask per window, the
  same set in the same order as ``heapq.nsmallest`` with the composite
  key.

Every kernel mirrors the scalar code operation for operation (same IEEE
arithmetic, same stable orderings, same boundary conventions), which is
what lets the engine cross-check the two execution modes for identical
groups, distances and counters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(slots=True)
class ColumnarSnapshot:
    """Frame-y-sorted view of one search region in flat-index columns.

    Position ``i`` of every array describes the member with the ``i``-th
    smallest frame-y coordinate; ties keep the fetch order (a stable
    sort), matching the scalar path's ``list.sort``.  The sort key is
    ``sy * y``: frame y is ``sy * (y - qy)``, a strictly increasing
    transform of it.  Members are the flat index's column ids, not
    ``PointObject``\\ s, so group materialization stays lazy until a
    window actually survives the bound checks.
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
        """``(tys, dsq)`` for a query at ``(qx, qy)``.

        ``tys`` are frame-y coordinates in ascending order; ``dsq`` are
        squared Euclidean distances to the query point, aligned.
        """
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


def rank_by_key(dsq: np.ndarray, oids: np.ndarray) -> np.ndarray:
    """Positions of a region's members ordered by ``(distance, oid)``.

    One lexsort per region amortizes the selection order across every
    qualified window: :func:`select_ranked` then reduces each top-``n``
    selection to a boolean mask over this permutation.
    """
    return np.lexsort((oids, dsq))


def select_ranked(rank: np.ndarray, lo: int, hi: int, n: int) -> np.ndarray:
    """First ``n`` members of window ``[lo, hi)`` in region rank order:
    the positions and order ``heapq.nsmallest`` gives under the
    ``(squared distance, oid)`` key — filtering the region-global
    permutation to the window's y-span keeps members sorted by it.
    """
    window = rank[(rank >= lo) & (rank < hi)]
    return window[:n]
