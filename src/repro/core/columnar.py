"""The leaf-batched columnar search: Algorithm 1 over the flat index.

The twin of :mod:`repro.core.oracle`: same answers, same ``IOStats``,
same attribution counts, but the per-object body runs for a group of
leaves at a time (:func:`_leaf_table`) and only a stream's *events* go
through the heap (:func:`_search_loop`); DESIGN.md §5, "Leaf batches".
Every function reads the query's state from the one per-query search
object ``s`` (``NWCEngine._search`` builds it).
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left, bisect_right

import numpy as np

from ..geometry import Rect
from . import kernels
from .knwc import CandidatePool
from .measures import DistanceMeasure
from .regions import FrameRegion, QuadrantFrame, generation_region
from .results import ObjectGroup

#: ``_LeafTable.slots`` codes of rows that issue no window query; a row
#: outside ``region`` / ``anchor_region`` is dropped before SRR sees it.
_SRR_SKIPPED = -1
_DEP_CANCELLED = -2
_OUTSIDE = -3

#: Members per pass of the enumeration-floor work of a leaf table: its
#: transient arrays are a few times this many elements, whatever the
#: window size (a row larger than the budget is a pass of its own).
#: Also the table size beyond which a group of leaves stops growing.
_FLOOR_BUDGET = 4096

#: Most leaves one table is built for (see ``_search_loop``).
_GROUP_CAP = 16


class _LeafStream:
    """One leaf's objects in pop order — ascending distance, entry order
    among equals — and the batch table over the rows still to pop:
    object ``i`` is row ``i + base`` of ``table``.  Its heap entries
    carry ``seq + i``: ``seq`` is assigned when the leaf itself is
    popped (only the leaves' seq ranges order equal distances, the
    stream orders its own); a stream may be prepared, table and all,
    before that.

    Only its *events* enter the heap (``_search_loop``): rows below
    ``at`` are charged, ``head`` is the row of its valid entry,
    ``queued`` the rows of all its entries — a re-key leaves the older
    one behind, superseded."""

    __slots__ = ("leaf", "dists", "cols", "seq", "xs", "ys", "table", "base",
                 "at", "head", "queued")

    def __init__(self, leaf, dists, cols, xs, ys) -> None:
        self.leaf = leaf
        self.dists = dists
        self.cols = cols
        self.seq = None
        self.xs = xs
        self.ys = ys
        self.table: _LeafTable | None = None
        self.base = self.at = self.head = 0
        self.queued: set[int] = set()

    def first_after(self, dist: float, seq: int) -> int:
        """The first uncharged row keyed after ``(dist, seq)`` in heap
        order: equal distances are ordered by ``seq``."""
        dists = self.dists
        lo = bisect_left(dists, dist, self.at)
        return min(bisect_right(dists, dist, lo), max(lo, seq + 1 - self.seq))

    def next_event(self, i: int, reach: float | None) -> int:
        """The first row from ``i`` on to pop under the table held
        (``len(dists)``: none): one of ``table.events`` or — ``reach``
        is the window diagonal under SRR — the first the SRR stop may
        land on."""
        table = self.table
        events = table.events
        end = len(self.dists)
        at = bisect_left(events, i + self.base)
        if at < len(events):
            end = min(end, events[at] - self.base)
        if reach is not None:
            end = bisect_left(self.dists, table.bound + reach, i, end)
        return end


class _LeafTable:
    """What each object of a group of leaf streams does when popped,
    precomputed under the prune bound ``bound`` (see :func:`_leaf_table`).

    ``shrunk`` / ``upper`` / ``slots`` are per row; ``slots[row]`` is
    ``_SRR_SKIPPED``, ``_DEP_CANCELLED``, ``_OUTSIDE`` or the row's
    index into the per-window-query arrays: IWP root descent
    ``avoided``, ``nodes`` / ``leaves`` accessed, partners ``examined``,
    the member columns ``cols[indptr[slot]:indptr[slot + 1]]`` and —
    ``floors`` is ``None`` when the table has none — the enumeration
    ``floors``, a lower bound on the distance of any group a row of
    ``n`` members can offer, with the row's ``qualified`` window count;
    under attribution ``mindists[qptr[slot]:qptr[slot + 1]]`` are the
    MINDISTs of those windows.

    ``events`` lists, ascending, the rows whose outcome the table does
    not hold; the others are charged from ``sums``
    (:meth:`running_sums`), built when a charge first reads them.
    """

    __slots__ = ("bound", "shrunk", "upper", "slots", "avoided",
                 "nodes", "leaves", "examined", "indptr", "cols",
                 "qualified", "floors", "mindists", "qptr", "events", "sums")

    def __init__(self, bound, shrunk, upper, slots) -> None:
        self.bound = bound
        self.shrunk = shrunk
        self.upper = upper
        self.slots = slots
        self.avoided = self.nodes = self.leaves = self.examined = ()
        self.cols = ()
        self.floors = self.sums = None
        self.events: list[int] = []

    def running_sums(self, attributed: bool) -> list[list[int]]:
        """Build ``sums``: what popping a run of rows charges, no event
        among them, as differences of running sums — one list of ints
        per counter, in the order :func:`_charge` unpacks.
        ``queries``, ``cancelled``, ``shrunk`` and ``skipped`` run over
        rows, the others over slots: ``queries[row]`` is the next slot."""
        slots = self.slots
        zeros = np.zeros(len(self.nodes), dtype=np.intp)
        floored = self.floors is not None
        per_row = [slots >= 0, slots == _DEP_CANCELLED]
        per_slot = [self.nodes, self.leaves, self.examined,
                    self.qualified if floored else zeros]
        if attributed:
            per_row += [self.shrunk, slots == _SRR_SKIPPED]
            pruned = zeros
            if floored:  # of each row's qualified windows, those pruned
                beyond = np.zeros(len(self.mindists) + 1, dtype=np.intp)
                np.cumsum(self.mindists >= self.bound, out=beyond[1:])
                pruned = np.diff(beyond[self.qptr])
            per_slot += [self.avoided, pruned]
        rows, slots = (_running(counts) for counts in (per_row, per_slot))
        self.sums = rows[:2] + slots[:4] + rows[2:] + slots[4:]
        return self.sums


def _running(counts: list) -> list[list[int]]:
    """Running sums, from zero, of each of the equally long ``counts``."""
    sums = np.zeros((len(counts), len(counts[0]) + 1), dtype=np.intp)
    sums[:, 1:] = counts
    return sums.cumsum(axis=1).tolist()


def _search_loop(s) -> None:
    """Whole-frontier twin of :func:`repro.core.oracle._search_loop`
    over the flat index.

    Replays the scalar best-first search exactly — same heap keys
    ``(dist, kind, seq)``, same counter consumption, same prune and
    record order — but computes child MINDISTs and leaf-object
    distances as array passes.  Each popped leaf contributes one
    *stream* (its objects pre-sorted by ``(distance, seq)``) merged
    through a single head entry.

    The per-object body runs a group of leaves at a time
    (:func:`_leaf_table`), and a row whose outcome the table holds
    — SRR skip, DEP cancel, fewer than ``n`` members, floor at or
    above the bound — cannot move the bound and never enters the
    heap: a stream's entry points at its next *event* — the row
    where it gets or restamps its table, a row of the table's
    ``events``, the first row the SRR stop may land on — and the
    rows passed on the way are charged there (:func:`_charge`), so
    rows an SRR early stop never reaches still cost nothing.  When
    an event moves the bound under SRR, every stream is charged up
    to that event's heap key and re-keyed to its next row, where it
    restamps; at the stop every stream is charged up to the stopping
    key, at exhaustion to its end (DESIGN.md, "Leaf batches", 7).

    A table costs about the same whatever its height, so each
    build also takes in the other streams waiting for a table under
    the same bound and — while the rows cannot depend on the bound
    — the leaves next in the heap, whose streams are prepared ahead
    of their pop (which still decides whether the leaf is read at
    all).  The group doubles with every build under an unchanged
    bound, up to ``_GROUP_CAP``, starts over at one leaf when the
    bound moves and halves after a table of more than
    ``_FLOOR_BUDGET`` members (DESIGN.md, "Which leaves share a
    table").  Stream distances stay scalar ``math.hypot`` —
    ``np.hypot`` differs in the last ulp.
    """
    q, policy, stats, attr, region, flags = (
        s.q, s.policy, s.stats, s.attr, s.region, s.flags)
    flat = s.flat
    qx, qy, length, width, n = q.qx, q.qy, q.length, q.width, q.n
    diagonal = q.diagonal
    mbrs = flat.mbrs
    first = flat.first
    count = flat.count
    leaf_lo = int(flat.level_bounds[-2])
    use_gen = flags.dip or flags.dep
    srr = flags.srr
    root_mbr = flat.root_mbr
    if root_mbr is None:
        return
    if s.anchor_region is not None:
        ax1, ay1, ax2, ay2 = s.anchor_region
    # kind 0 = node, kind 1 = object; seq is unique and a stream has
    # one entry a row, so the stream itself is never compared.
    heap: list = [(root_mbr.mindist(qx, qy), 0, 0, 0, None)]
    seq = 1
    prepared: dict[int, _LeafStream] = {}  # leaf id -> stream built ahead
    entered: list[_LeafStream] = []  # popped leaves with rows to charge
    group, group_bound = 1, None

    def rekey(stream: _LeafStream, i: int) -> None:
        # Its next event from row i on: i itself while a table is due.
        table = stream.table
        if table is not None and not (srr and table.bound != policy.bound()):
            i = stream.next_event(i, diagonal if srr else None)
        stream.head = i
        if i < len(stream.dists) and i not in stream.queued:
            stream.queued.add(i)
            heapq.heappush(
                heap, (stream.dists[i], 1, stream.seq + i, i, stream))

    def settle(dist: float, key_seq: int) -> None:
        # Charge every entered stream up to the heap key (dist, key_seq).
        for other in entered:
            i = other.first_after(dist, key_seq)
            if i > other.at:
                _charge(s, other, i)

    while heap:
        dist, kind, at_seq, ident, stream = heapq.heappop(heap)
        if kind == 0:
            node = ident
            x1, y1, x2, y2 = mbrs[node].tolist()
            if region is not None and not (
                x1 <= region.x2 and region.x1 <= x2
                and y1 <= region.y2 and region.y1 <= y2
            ):
                continue
            if use_gen:
                gen = generation_region(
                    Rect(x1, y1, x2, y2), qx, qy, length, width)
                if flags.dep and s.grid.is_pruned(gen, n):
                    if attr is not None:
                        attr.dep_nodes_pruned += 1
                    continue
                if flags.dip and gen.mindist(qx, qy) >= policy.bound():
                    if attr is not None:
                        attr.dip_nodes_pruned += 1
                    continue
            leaf_flag = node >= leaf_lo
            stats.record_node(leaf_flag)
            cnt = int(count[node])
            start = int(first[node])
            end = start + cnt
            if leaf_flag:
                if cnt == 0:
                    continue
                leaf_stream = (prepared.pop(node, None)
                               or _leaf_stream(s, node))
                leaf_stream.seq = seq
                entered.append(leaf_stream)
                rekey(leaf_stream, 0)
                seq += cnt
            else:
                sub = mbrs[start:end]
                dxs = np.maximum(
                    np.maximum(sub[:, 0] - qx, qx - sub[:, 2]), 0.0
                ).tolist()
                dys = np.maximum(
                    np.maximum(sub[:, 1] - qy, qy - sub[:, 3]), 0.0
                ).tolist()
                cnts = count[start:end].tolist()
                for i in range(cnt):
                    if not cnts[i]:
                        continue  # empty child == scalar "mbr is None"
                    heapq.heappush(
                        heap,
                        (math.hypot(dxs[i], dys[i]), 0, seq, start + i, None))
                    seq += 1
            continue
        # Object pop: an event of its stream, unless a re-key has
        # superseded the entry.  Charge the rows the stream passed on
        # its way, then replay the object's row of its leaf table.
        stream.queued.discard(ident)
        if ident != stream.head:
            continue
        if ident > stream.at:
            _charge(s, stream, ident)
        stream.at = ident + 1
        px = float(stream.xs[ident])
        py = float(stream.ys[ident])
        if region is not None and not region.contains_point(px, py):
            rekey(stream, ident + 1)
            continue
        bound = policy.bound()
        if srr and dist >= bound + diagonal:
            if attr is not None:
                attr.srr_early_stop += 1
            break
        if s.anchor_region is not None and not (
            ax1 <= px < ax2 and ay1 <= py < ay2
        ):
            rekey(stream, ident + 1)
            continue
        table = stream.table
        if table is None or (srr and table.bound != bound):
            # Only SRR reads the bound: a moved bound restamps the
            # rows still to come, anything else keeps the table.
            if bound != group_bound:
                group, group_bound = 1, bound
            parts = [(stream, ident)]
            if group > 1:
                parts += _waiting_parts(s, heap, stream, bound, group - 1,
                                        prepared)
            _leaf_table(s, parts, bound)
            table = stream.table
            if len(table.cols) <= _FLOOR_BUDGET:
                group = min(2 * group, _GROUP_CAP)
            else:
                group = max(group // 2, 1)
        _replay_row(s, stream, ident, dist, px, py, bound)
        if srr and policy.bound() != bound:
            # Every row keyed below this one was popped under the old
            # bound, whichever stream it belongs to; the rest restamp.
            settle(dist, at_seq)
            entered = [other for other in entered
                       if other.at < len(other.dists)]
            for other in entered:
                rekey(other, other.at)
        else:
            rekey(stream, ident + 1)
    else:
        dist = math.inf  # exhausted: every stream is charged to its end
    settle(dist, at_seq)


def _charge(s, stream: _LeafStream, end: int) -> None:
    """Charge what the pops of rows ``stream.at .. end - 1`` — no
    event among them — come to under the table ``stream`` holds."""
    stats, attr = s.stats, s.attr
    sums = stream.table.sums or stream.table.running_sums(attr is not None)
    queries, cancelled, nodes, leaves, examined, qualified = sums[:6]
    lo, hi = stream.at + stream.base, end + stream.base
    stream.at = end
    a, b = queries[lo], queries[hi]
    stats.window_queries += b - a
    stats.window_queries_cancelled += cancelled[hi] - cancelled[lo]
    stats.node_accesses += nodes[b] - nodes[a]
    stats.leaf_accesses += leaves[b] - leaves[a]
    stats.objects_examined += examined[b] - examined[a]
    stats.windows_evaluated += examined[b] - examined[a]
    stats.qualified_windows += qualified[b] - qualified[a]
    if attr is not None:
        shrunk, skipped, avoided, pruned = sums[6:]
        attr.srr_regions_shrunk += shrunk[hi] - shrunk[lo]
        attr.srr_objects_skipped += skipped[hi] - skipped[lo]
        attr.dep_windows_cancelled += cancelled[hi] - cancelled[lo]
        attr.iwp_root_descents_avoided += avoided[b] - avoided[a]
        attr.windows_pruned_by_bound += pruned[b] - pruned[a]


def _replay_row(s, stream: _LeafStream, ident: int, dist: float,
                px: float, py: float, bound: float) -> None:
    """One object's pop, replayed from its row of the table ``stream``
    holds, stamped ``bound``: the per-row event handler."""
    q, stats, attr, tracer = s.q, s.stats, s.attr, s.tracer
    tracing = tracer.enabled
    table = stream.table
    row = ident + stream.base
    if attr is not None and table.shrunk[row]:
        attr.srr_regions_shrunk += 1
    slot = int(table.slots[row])
    if slot == _SRR_SKIPPED:
        if attr is not None:
            attr.srr_objects_skipped += 1
        return
    if slot == _DEP_CANCELLED:
        stats.window_queries_cancelled += 1
        if attr is not None:
            attr.dep_windows_cancelled += 1
        return
    stats.window_queries += 1
    if attr is not None and table.avoided[slot]:
        attr.iwp_root_descents_avoided += 1
    wq_span = None
    if tracing:
        wq_span = tracer.start_span(
            "window_query",
            {"oid": int(s.flat.oids[stream.cols[ident]]), "dist": dist})
    try:
        stats.node_accesses += int(table.nodes[slot])
        stats.leaf_accesses += int(table.leaves[slot])
        lo = int(table.indptr[slot])
        hi = int(table.indptr[slot + 1])
        enum_span = None
        if tracing:
            enum_span = tracer.start_span("enumerate", {"members": hi - lo})
        try:
            floored = hi - lo >= q.n and table.floors is not None
            if hi - lo < q.n or (floored and table.floors[slot] >= bound):
                # No window can qualify, or every group the row can
                # offer is at least its floor away: nothing is
                # offered, the bound stands, no snapshot is built
                # and the row's outcome is its counters.
                examined = int(table.examined[slot])
                stats.objects_examined += examined
                stats.windows_evaluated += examined
                if floored:
                    stats.qualified_windows += int(table.qualified[slot])
                if floored and attr is not None:
                    attr.windows_pruned_by_bound += np.count_nonzero(
                        table.mindists[table.qptr[slot]:
                                       table.qptr[slot + 1]] >= bound)
            else:
                frame = QuadrantFrame(q.qx, q.qy,
                                      1.0 if px >= q.qx else -1.0,
                                      1.0 if py >= q.qy else -1.0)
                sr = FrameRegion(
                    frame.sx * (px - q.qx), frame.sy * (py - q.qy),
                    q.length, q.width, float(table.upper[row]), px, py)
                _enumerate_windows(s, frame, sr, table.cols[lo:hi], dist)
        finally:
            if tracing:
                tracer.end_span(enum_span)
    finally:
        if tracing:
            tracer.end_span(wq_span)


def _waiting_parts(s, heap: list, stream: _LeafStream, bound: float,
                   room: int, prepared: dict) -> list:
    """Up to ``room`` more ``(stream, start)`` parts for the table
    ``stream`` is about to get under ``bound``: in heap order, the
    other streams whose next pop would build one — no table yet, or
    one SRR stamped with another bound; an entry a re-key has
    superseded is nobody's next pop — and, while no row can
    depend on the bound, the leaves still waiting to be popped,
    whose streams go into ``prepared``."""
    srr = s.flags.srr
    ahead = not srr or bound == math.inf
    leaf_lo = int(s.flat.level_bounds[-2])
    waiting = []
    for entry in heap:
        other = entry[4]
        if other is None:
            if ahead and entry[3] >= leaf_lo and entry[3] not in prepared:
                waiting.append(entry)
        elif other is not stream and entry[3] == other.head and (
                other.table is None
                or (srr and other.table.bound != bound)):
            waiting.append(entry)
    parts = []
    for _, _, _, at, other in heapq.nsmallest(room, waiting):
        if other is None:
            other = prepared[at] = _leaf_stream(s, at)
            at = 0
        parts.append((other, at))
    return parts


def _leaf_stream(s, leaf: int) -> _LeafStream:
    """The objects of ``leaf`` in ascending distance to the query
    point (its ``seq`` is the pop's to give)."""
    flat = s.flat
    start = int(flat.first[leaf])
    end = start + int(flat.count[leaf])
    dxl = (flat.xs[start:end] - s.q.qx).tolist()
    dyl = (flat.ys[start:end] - s.q.qy).tolist()
    ds = list(map(math.hypot, dxl, dyl))
    # Stable sort: equal distances keep entry order, i.e.
    # ascending seq — the scalar heap's tie-break.
    cols = np.array(ds).argsort(kind="stable") + start
    ds.sort()
    return _LeafStream(leaf, ds, cols, flat.xs.take(cols), flat.ys.take(cols))


def _leaf_table(s, parts: list, bound: float) -> None:
    """One table, under one frozen ``bound``, over the rows
    ``start..`` of every ``(stream, start)`` of ``parts``; each
    stream is handed the table and its row offset.

    The per-object body of Algorithm 1 up to the member fetch — SRR
    shrink, real-space search rectangle, DEP upper bound, window
    walk, member and partner counts — for every object the leaves
    have still to pop, each step one array pass.  Every row is a pure
    function of ``(object, bound)``, computed with the scalar body's
    operations in the scalar order, so a pop that finds the table
    stamped with its own bound replays exactly what the oracle would
    compute, whenever the table was built; nothing is charged to the
    counters here.
    """
    q, flags, region, anchor_region = s.q, s.flags, s.region, s.anchor_region
    length, width = q.length, q.width
    # Axis 0 of every two-row array below is (x, y).
    origin = np.array(((q.qx,), (q.qy,)))
    points = np.array((
        np.concatenate([stream.xs[start:] for stream, start in parts]),
        np.concatenate([stream.ys[start:] for stream, start in parts])))
    positive = points >= origin  # the frame signs (sx, sy) as booleans
    sign = np.where(positive, 1.0, -1.0)
    tx, ty = sign * (points - origin)
    if flags.srr and math.isfinite(bound):
        upper, live = kernels.shrink_uppers(tx, ty, length, width, bound)
        shrunk = live & (upper < width)
    else:
        upper = np.full(len(tx), width)
        live = np.ones(len(tx), dtype=bool)
        shrunk = np.zeros(len(tx), dtype=bool)
    slots = np.full(len(tx), _SRR_SKIPPED)
    if region is not None or anchor_region is not None:
        # Rows the pop loop drops before it consults the table.
        inside = np.ones(len(tx), dtype=bool)
        if region is not None:
            inside &= ((points >= ((region.x1,), (region.y1,))) & (
                points <= ((region.x2,), (region.y2,)))).all(axis=0)
        if anchor_region is not None:
            ax1, ay1, ax2, ay2 = anchor_region
            inside &= ((points >= ((ax1,), (ay1,)))
                       & (points < ((ax2,), (ay2,)))).all(axis=0)
        live &= inside
        shrunk &= inside
        slots[~inside] = _OUTSIDE
    table = _LeafTable(bound, shrunk, upper, slots)
    sizes = [len(stream.xs) - start for stream, start in parts]
    for (stream, start), end in zip(parts, itertools.accumulate(sizes)):
        stream.table = table
        stream.base = end - len(stream.xs)
    rows = live.nonzero()[0]
    if not len(rows):
        return
    # Real-space search rectangles: (length, width) towards q, nothing
    # in x and the shrunk reach in y away from it (FrameRegion.to_real).
    points, positive = points[:, rows], positive[:, rows]
    towards = np.array(((length,), (width,)))
    away = np.zeros(points.shape)
    away[1] = upper[rows]
    rects = np.concatenate((points - np.where(positive, towards, away),
                            points + np.where(positive, away, towards)))
    if flags.dep:
        grid = s.grid
        if hasattr(grid, "upper_bounds"):
            pruned = grid.upper_bounds(*rects) < q.n
        else:  # duck-typed DEP replacements answer one rectangle a call
            pruned = np.array([grid.is_pruned(Rect(*rect), q.n)
                               for rect in rects.T.tolist()])
        slots[rows[pruned]] = _DEP_CANCELLED
        rows, rects = rows[~pruned], rects[:, ~pruned]
    if not len(rows):
        return
    slots[rows] = np.arange(len(rows))
    # Order statistic of the squared distances that is the group
    # distance under MAX / MIN; 0 when the enumeration floor cannot
    # apply (another measure, nothing prunes on distance, or — under
    # SRR — any offer restamps the table, so no floor is read).
    floor_k = 0
    if s.prune and not (flags.srr and not math.isfinite(bound)):
        floor_k = {DistanceMeasure.MAX: q.n,
                   DistanceMeasure.MIN: 1}.get(q.measure, 0)
    leaves = np.repeat([stream.leaf for stream, _ in parts], sizes)
    _walk_rows(s, table, rects, leaves[rows], sign[1][rows], tx[rows],
               ty[rows], floor_k)
    # Events: a row of n members may offer — unless, under SRR, its
    # floor is at or above the stamp; without SRR the table outlives
    # the bound and the pop compares the floor with the bound of its
    # day.  A tracer opens a span a window query, in pop order.
    if not s.tracer.enabled:
        if flags.srr and table.floors is not None:
            rows = rows[table.floors < bound]
        else:
            rows = rows[np.diff(table.indptr) >= q.n]
    table.events = rows.tolist()


def _walk_rows(s, table: _LeafTable, rects, leaf, sy, tx, ty,
               floor_k: int) -> None:
    """Fill ``table``'s per-window-query lists: the batched window
    walk over ``rects`` (the rows' real-space search rectangles,
    each from its generator's ``leaf``, the rows of one leaf
    adjacent; ``sy`` / ``tx`` / ``ty`` are the generators' frame
    sign and frame coordinates), and what the enumeration of each
    row comes to when it offers nothing.

    With ``floor_k`` (the group distance is the ``floor_k``-th
    smallest member distance of a window) every row holding ``n``
    members gets its *floor* — that order statistic over all its
    members, below any of its windows' distances — and its qualified
    window count; under attribution also the MINDISTs of those
    windows.
    """
    q, flat, region = s.q, s.flat, s.region
    n, width, qy = q.n, q.width, q.qy
    start_depth = None
    if s.flags.iwp:
        start_depth = s.flat_iwp.start_depths(leaf, rects)
        table.avoided = start_depth != 0
    else:
        table.avoided = np.zeros(len(sy), dtype=bool)
    nodes, leaves, member_rect, cols = flat.window_query_batch(
        rects, start_depth, leaf)
    my = flat.ys.take(cols)
    if region is not None:
        mx = flat.xs.take(cols)
        keep = ((region.x1 <= mx) & (mx <= region.x2)
                & (region.y1 <= my) & (my <= region.y2))
        member_rect, cols, my = member_rect[keep], cols[keep], my[keep]
    sizes = np.bincount(member_rect, minlength=len(sy))
    indptr = np.zeros(len(sy) + 1, dtype=np.intp)
    sizes.cumsum(out=indptr[1:])
    # Partners: members at or above their generator in frame y.
    frame_y = sy.take(member_rect) * (my - qy)
    partner = frame_y >= ty.take(member_rect)
    table.nodes = nodes
    table.leaves = leaves
    table.examined = np.bincount(member_rect[partner], minlength=len(sy))
    table.indptr = indptr
    table.cols = cols
    full = sizes >= n
    if not floor_k or not full.any():
        return
    # Rows short of n members keep a floor nobody reads.
    floors = np.full(len(sy), math.inf)
    passed = np.zeros(len(cols), dtype=bool)
    # A pass never spans two leaves: their rows share no members,
    # so the count table of a pass would grow with their product.
    cuts = {0, len(sy), *(np.flatnonzero(leaf[1:] != leaf[:-1]) + 1).tolist()}
    if len(cols) > _FLOOR_BUDGET:
        cuts.update(np.searchsorted(
            indptr, np.arange(_FLOOR_BUDGET, len(cols), _FLOOR_BUDGET),
            side="right").tolist())
    cuts = sorted(cuts)
    for r0, r1 in zip(cuts, cuts[1:]):
        if not full[r0:r1].any():
            continue
        lo, hi = int(indptr[r0]), int(indptr[r1])
        dx, dy = flat.xs.take(cols[lo:hi]) - q.qx, my[lo:hi] - qy
        ends = indptr[r0 + 1:r1 + 1] - lo
        floors[r0:r1] = np.sqrt(kernels.window_kth_dsq(
            dx * dx + dy * dy, ends - sizes[r0:r1], ends, floor_k))
        passed[lo:hi] = partner[lo:hi] & (kernels.leaf_window_counts(
            frame_y[lo:hi], sizes[r0:r1], width) >= n)
    table.floors = floors
    member_rect = member_rect[passed]
    table.qualified = np.bincount(member_rect, minlength=len(sy))
    if s.attr is not None:
        table.mindists = kernels.window_mindists(
            frame_y[passed], width,
            np.maximum(tx - q.length, 0.0).take(member_rect))
        table.qptr = np.concatenate(([0], table.qualified.cumsum()))


def _enumerate_windows(s, frame: QuadrantFrame, sr, cols: np.ndarray,
                       anchor: float) -> None:
    """Array-kernel version of :func:`repro.core.oracle._enumerate_windows`.

    Same windows, same groups, same counters (see
    :mod:`repro.core.kernels` for the bit-identity argument); the
    per-window top-``n`` selections are masks over one rank
    permutation of the region, and members are flat-index column ids,
    so objects materialize only for groups that survive the bound
    checks.  Under MAX and MIN a window's group distance is the
    ``k``-th smallest squared distance in its y-span (``k = n`` and
    ``1``), so :func:`~repro.core.kernels.window_kth_dsq` measures
    every candidate window of the region at once and only surviving
    windows pay for selection; AVG and NEAREST_WINDOW measure window
    by window.
    """
    if cols.size == 0:
        return
    q, policy, stats, attr, flat = s.q, s.policy, s.stats, s.attr, s.flat
    n, measure = q.n, q.measure
    sy = frame.sy
    snap = kernels.ColumnarSnapshot.build(flat, cols, sy)
    tys, dsq = snap.frame_arrays(q.qx, q.qy, sy)
    start, tops, los, his = kernels.window_spans(tys, sr.ty_p, q.width)
    examined = len(tops)
    if examined == 0:
        return
    stats.objects_examined += examined
    stats.windows_evaluated += examined
    qualified = (his - los) >= n
    stats.qualified_windows += int(qualified.sum())
    if not qualified.any():
        return
    mindists = kernels.window_mindists(tops, q.width, max(0.0, sr.x1))
    # The (distance, oid) selection order is shared by every window of
    # the region; built on the first window that needs a selection.
    rank = None

    def select(jj: int) -> np.ndarray:
        nonlocal rank
        if rank is None:
            rank = kernels.rank_by_key(dsq, snap.oids)
        return kernels.select_ranked(rank, int(los[jj]), int(his[jj]), n)

    def offer(jj: int, sel: np.ndarray, distance: float, objects=()) -> None:
        window = sr.window_rect(frame, float(snap.ys[start + jj]))
        policy.offer(ObjectGroup(objects or flat.objects_at(snap.cols[sel]),
                                 distance, window),
                     (anchor, float(tops[jj])))

    if measure is DistanceMeasure.MAX or measure is DistanceMeasure.MIN:
        k = n if measure is DistanceMeasure.MAX else 1
        if (s.prune and isinstance(policy, CandidatePool)
                and policy.limit == 1 and policy.after is None):
            # NWC (a pruned one-group page from the start) replays the
            # sequential offer chain exactly: a window is offered iff
            # its distance beats the running minimum of the entry bound
            # and all earlier candidate distances — the scalar loop's
            # bound after any prefix equals that running minimum,
            # because non-offered windows sit at or above it and equal
            # distances are never offered (``distance >= bound``
            # skips).  A window whose MINDIST misses the entry bound
            # can never be offered (``distance >= mindist``); the
            # scalar loop counts it pruned, as it does a candidate
            # whose MINDIST misses its running minimum.
            entry = policy.bound()
            beyond = mindists >= entry
            cand = np.flatnonzero(qualified & ~beyond)
            if attr is not None:
                attr.windows_pruned_by_bound += np.count_nonzero(
                    qualified & beyond)
            if cand.size == 0:
                return
            dists = np.sqrt(
                kernels.window_kth_dsq(dsq, los[cand], his[cand], k))
            prev = np.minimum.accumulate(
                np.concatenate(([entry], dists)))[:-1]
            if attr is not None:
                attr.windows_pruned_by_bound += np.count_nonzero(
                    mindists[cand] >= prev)
            dlist = dists.tolist()
            for pos in np.flatnonzero(dists < prev).tolist():
                jj = int(cand[pos])
                offer(jj, select(jj), dlist[pos])
            return
        # kNWC (or unpruned): the policy bound moves in ways the offer
        # chain cannot precompute, so walk the windows with live bound
        # checks; distances are still batch-computed.
        idxs = np.flatnonzero(qualified)
        dlist = np.sqrt(
            kernels.window_kth_dsq(dsq, los[idxs], his[idxs], k)).tolist()
        mlist = mindists[idxs].tolist()
        for pos, jj in enumerate(idxs.tolist()):
            if s.prune:
                bound = policy.bound()
                if mlist[pos] >= bound:
                    if attr is not None:
                        attr.windows_pruned_by_bound += 1
                    continue
                if dlist[pos] >= bound:
                    continue
            offer(jj, select(jj), dlist[pos])
        return
    # The point measure AVG derives the distance from the squared
    # distances alone, so its objects wait until the group survives
    # the bound; NEAREST_WINDOW measures the objects themselves.
    lazy_objects = measure is not DistanceMeasure.NEAREST_WINDOW
    for jj in qualified.nonzero()[0].tolist():
        if s.prune and mindists[jj] >= policy.bound():
            if attr is not None:
                attr.windows_pruned_by_bound += 1
            continue
        sel = select(jj)
        objects = () if lazy_objects else flat.objects_at(snap.cols[sel])
        distance = s.measure(objects, dsq[sel].tolist())
        if s.prune and distance >= policy.bound():
            continue
        offer(jj, sel, distance, objects)
