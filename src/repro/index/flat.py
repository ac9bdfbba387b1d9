"""Columnar (struct-of-arrays) R-tree: the flat index behind
``execution="columnar"``.

The object-graph :class:`~repro.index.rtree.RStarTree` is the mutable,
scalar oracle; :class:`FlatRTree` is an immutable snapshot of the same
tree laid out as contiguous numpy arrays:

* one ``(M, 4)`` matrix of node MBRs plus ``is_leaf`` / ``first`` /
  ``count`` / ``parent`` arrays, nodes numbered in BFS order (node 0 is
  the root, levels are contiguous index ranges);
* one coordinate matrix for the objects — ``xs`` / ``ys`` / ``oids``
  columns grouped by leaf, so a leaf's objects are the slice
  ``first[leaf] : first[leaf] + count[leaf]``.

A snapshot is columns only: it holds no ``PointObject`` and no I/O
counter (a query charges its own, see :meth:`window_query_batch`), and
:meth:`objects_at` builds the objects a result needs from the columns.
Every snapshot derives from the engine's own tree:

* :meth:`FlatRTree.from_tree` converts a live tree and records its
  node map; after updates that create or remove no node,
  :meth:`FlatRTree.splice` derives the same arrays from the previous
  snapshot by rewriting only the edited leaves' columns and their
  ancestors' MBRs;
* :meth:`FlatRTree.from_page_file` is ``from_tree(load_tree(path))``.

:class:`FlatIWP` is :class:`~repro.index.pointers.IWPIndex` on the
flat layout: ancestor-at-depth arrays instead of per-leaf pointer
objects.  It needs no overlap lists — a window query's start set is, by
their construction, every node of the chosen depth that meets the query
rectangle, which :meth:`FlatRTree.window_query_batch` finds (and
counts) from the chosen depth alone — so window-query I/O counters stay
bit-identical to the scalar start-set walk.
"""

from __future__ import annotations

import os

import numpy as np

from ..geometry import PointObject, Rect
from ..storage import DEFAULT_PAGE_SIZE
from .persistence import load_tree
from .pointers import backward_pointer_depths

#: MBR row of an empty node: fails every intersection / containment
#: test, playing the role of the scalar ``mbr is None``.
_EMPTY_MBR = (np.inf, np.inf, -np.inf, -np.inf)


#: About how many ``(rectangle, column)`` pairs the batched walk tests
#: at a time; bounds its transient arrays whatever the window size.
_PAIR_BUDGET = 4096


def _mbr_row(mbr: Rect | None) -> tuple[float, float, float, float]:
    """A node's ``mbrs`` row from its cached MBR."""
    return _EMPTY_MBR if mbr is None else (mbr.x1, mbr.y1, mbr.x2, mbr.y2)


def _columns(objects) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``xs`` / ``ys`` / ``oids`` columns of ``objects``, in order."""
    n = len(objects)
    return (np.fromiter((p.x for p in objects), np.float64, n),
            np.fromiter((p.y for p in objects), np.float64, n),
            np.fromiter((p.oid for p in objects), np.int64, n))


def _meets(a, b) -> np.ndarray:
    """Element by element, whether the closed boxes ``a`` and ``b``
    (each four equally long arrays ``x1, y1, x2, y2``) intersect."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    meet = ax1 <= bx2
    meet &= bx1 <= ax2
    meet &= ay1 <= by2
    meet &= by1 <= ay2
    return meet


class FlatRTree:
    """Read-only struct-of-arrays snapshot of an R*-tree.

    Attributes:
        mbrs: ``(M, 4)`` float64 — per-node MBR as (x1, y1, x2, y2);
            empty nodes hold the inverted sentinel ``(inf, inf, -inf,
            -inf)``.
        is_leaf: ``(M,)`` bool.
        first: ``(M,)`` int64 — id of the first child (internal) or the
            first object column (leaf).
        count: ``(M,)`` int64 — children (internal) or objects (leaf).
        parent: ``(M,)`` int64 — parent node id, ``-1`` for the root.
        level_bounds: ``(L + 1,)`` int64 — nodes of depth ``d`` are the
            ids ``level_bounds[d] : level_bounds[d + 1]``.
        xs / ys / oids: object columns, grouped by leaf in node order.
        node_ids: BFS id of every source-tree node by its ``node_id``
            (what :meth:`splice` needs).
    """

    __slots__ = (
        "mbrs", "is_leaf", "first", "count", "parent", "level_bounds",
        "xs", "ys", "oids", "size", "max_entries", "min_entries", "node_ids",
    )

    def __init__(self, *, mbrs, is_leaf, first, count, parent, level_bounds,
                 xs, ys, oids, size, max_entries, min_entries, node_ids):
        self.mbrs = mbrs
        self.is_leaf = is_leaf
        self.first = first
        self.count = count
        self.parent = parent
        self.level_bounds = level_bounds
        self.xs = xs
        self.ys = ys
        self.oids = oids
        self.size = size
        self.max_entries = max_entries
        self.min_entries = min_entries
        self.node_ids = node_ids

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_tree(cls, tree) -> "FlatRTree":
        """Convert a live (balanced) tree, recording its node map."""
        levels = [[tree.root]]
        while not levels[-1][0].is_leaf:
            nxt = []
            for node in levels[-1]:
                nxt.extend(node.entries)
            levels.append(nxt)
        order = [node for level in levels for node in level]
        m = len(order)
        bounds = np.zeros(len(levels) + 1, dtype=np.int64)
        for d, level in enumerate(levels):
            bounds[d + 1] = bounds[d] + len(level)
        mbrs = np.empty((m, 4), dtype=np.float64)
        is_leaf = np.zeros(m, dtype=bool)
        first = np.zeros(m, dtype=np.int64)
        count = np.zeros(m, dtype=np.int64)
        parent = np.full(m, -1, dtype=np.int64)
        cols = 0
        cursor = 1  # next child id in BFS order (root's children start at 1)
        for i, node in enumerate(order):
            mbrs[i] = _mbr_row(node.mbr)
            cnt = len(node.entries)
            count[i] = cnt
            if node.is_leaf:
                is_leaf[i] = True
                first[i] = cols
                cols += cnt
            else:
                first[i] = cursor
                parent[cursor:cursor + cnt] = i
                cursor += cnt
        xs, ys, oids = _columns(
            [p for leaf in levels[-1] for p in leaf.entries])
        return cls(
            mbrs=mbrs, is_leaf=is_leaf, first=first, count=count,
            parent=parent, level_bounds=bounds, xs=xs, ys=ys, oids=oids,
            size=tree.size,
            max_entries=tree.max_entries, min_entries=tree.min_entries,
            node_ids={node.node_id: i for i, node in enumerate(order)},
        )

    def splice(self, leaves) -> "FlatRTree":
        """A new snapshot of the source tree after edits that changed
        only the entry lists of ``leaves`` — no node created or removed
        since this snapshot was taken (see ``RStarTree.last_edit``).

        BFS numbering depends only on the root and the internal nodes'
        child lists, which such edits leave alone, and a leaf's columns
        only on its entry list; so the untouched column spans are reused
        and the result equals ``from_tree`` of the edited tree, array for
        array.  ``self`` is not modified: ``is_leaf``, ``parent``,
        ``level_bounds`` and ``node_ids`` are shared, everything else is
        new.
        """
        ids = self.node_ids
        count = self.count.copy()
        mbrs = self.mbrs.copy()
        parts: list[tuple[np.ndarray, ...]] = []
        done = 0  # old columns before this one are already placed
        for leaf in sorted(leaves, key=lambda leaf: ids[leaf.node_id]):
            i = ids[leaf.node_id]
            start = int(self.first[i])
            parts += ((self.xs[done:start], self.ys[done:start],
                       self.oids[done:start]),
                      _columns(leaf.entries))
            done = start + int(count[i])
            count[i] = len(leaf.entries)
            node = leaf
            while node is not None:  # the leaf and its ancestors
                mbrs[ids[node.node_id]] = _mbr_row(node.mbr)
                node = node.parent
        parts.append((self.xs[done:], self.ys[done:], self.oids[done:]))
        xs, ys, oids = (np.concatenate(column) for column in zip(*parts))
        lo = int(self.level_bounds[-2])
        first = self.first.copy()
        first[lo:] = count[lo:].cumsum() - count[lo:]
        return FlatRTree(
            mbrs=mbrs, is_leaf=self.is_leaf, first=first, count=count,
            parent=self.parent, level_bounds=self.level_bounds,
            xs=xs, ys=ys, oids=oids, size=len(xs),
            max_entries=self.max_entries, min_entries=self.min_entries,
            node_ids=ids,
        )

    @classmethod
    def from_page_file(cls, path: str | os.PathLike[str],
                       page_size: int = DEFAULT_PAGE_SIZE) -> "FlatRTree":
        """``from_tree(load_tree(path, page_size))``.

        A page file has one reader, :func:`~repro.index.load_tree`; this
        name stays because the bench ledger (``bench/ledger.py``) times
        it as ``storage.load_flat_s``.
        """
        return cls.from_tree(load_tree(path, page_size))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        return self.mbrs.shape[0]

    @property
    def leaf_of(self) -> np.ndarray:
        """``(N,)`` int64 — owning leaf id of every column (derived on
        access: the search never needs it)."""
        leaf_ids = np.flatnonzero(self.is_leaf)
        return np.repeat(leaf_ids, self.count[leaf_ids])

    @property
    def height(self) -> int:
        """Edges from root to leaf (the paper's ``h``)."""
        return len(self.level_bounds) - 2

    @property
    def root_mbr(self) -> Rect | None:
        """Root MBR as a :class:`Rect`, ``None`` for an empty tree."""
        if self.count[0] == 0:
            return None
        x1, y1, x2, y2 = self.mbrs[0]
        return Rect(float(x1), float(y1), float(x2), float(y2))

    def objects_at(self, cols) -> tuple[PointObject, ...]:
        """Objects of the given columns, in the given order, built from
        the ``oids`` / ``xs`` / ``ys`` columns."""
        return tuple(map(PointObject, self.oids[cols].tolist(),
                         self.xs[cols].tolist(), self.ys[cols].tolist()))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def window_query_batch(self, rects: np.ndarray, start_depth=None,
                           groups=None):
        """Window queries for many rectangles in one pass.

        ``rects`` is a ``(4, R)`` array with rows ``x1, y1, x2, y2``;
        ``start_depth`` gives per rectangle the depth of its start
        nodes (see :meth:`FlatIWP.start_depths`; default: the root);
        ``groups`` labels every rectangle, rectangles of one group
        adjacent — a group is a set of rectangles that lie close
        together, such as the search regions of one leaf (default: all
        of them one group).  Returns ``(nodes, leaves, member_rect,
        member_cols)``: the node and leaf accesses the scalar walk
        would charge for each rectangle (the caller charges them —
        nothing is counted here) and the member columns of all
        rectangles as parallel arrays, ascending in the rectangle
        index, in no particular order within one rectangle.

        MBRs nest, so a node below the start depth is reached by the
        scalar walk exactly when its own MBR meets the rectangle: its
        ancestors down from the start depth then meet it too, and an
        IWP start set is by construction every node of its depth that
        meets the rectangle.  The accesses of a rectangle are therefore
        a count — the nodes at or below its start depth that meet it —
        over any candidate set holding those nodes.  One descent of
        ``(group, node)`` pairs along each group's own union box finds
        such a set per group (a node meeting a rectangle meets the
        union box of its group, and so do its ancestors), and each
        rectangle is compared with the candidates of its group only:
        the work grows with the number of groups, not with its square.
        """
        boxes = self.mbrs.T
        total = rects.shape[1]
        # group_of: the rank of each rectangle's group; gstart: where
        # each group begins.
        first = np.zeros(total, dtype=bool)
        first[0] = True
        if groups is not None:
            first[1:] = groups[1:] != groups[:-1]
        gstart = first.nonzero()[0]
        group_of = first.cumsum() - 1
        union = (*np.minimum.reduceat(rects[:2], gstart, axis=1),
                 *np.maximum.reduceat(rects[2:], gstart, axis=1))
        # Candidates: per level, the (group, node) pairs whose node
        # meets the group's union box; the root is everyone's.
        pair_group = np.arange(len(gstart))
        pair_node = np.zeros(len(gstart), dtype=np.intp)
        cand_group, cand_node = [pair_group], [pair_node]
        for _ in range(self.height):
            pair_node, counts = self._children(pair_node)
            pair_group = pair_group.repeat(counts)
            meet = _meets([side[pair_node] for side in boxes],
                          [side[pair_group] for side in union])
            pair_group, pair_node = pair_group[meet], pair_node[meet]
            cand_group.append(pair_group)
            cand_node.append(pair_node)
        cand_group = np.concatenate(cand_group)
        cand_node = np.concatenate(cand_node)[
            np.argsort(cand_group, kind="stable")]
        # The ragged (rectangle, candidate) product, rectangle by
        # rectangle: each against the candidates of its own group.
        per_group = np.bincount(cand_group)
        fan = per_group[group_of]
        ends = fan.cumsum()
        pair_rect = np.arange(total).repeat(fan)
        pair_node = cand_node[
            ((per_group.cumsum() - per_group)[group_of] - (ends - fan)).repeat(fan)
            + np.arange(ends[-1])]
        meet = _meets([side[pair_node] for side in boxes],
                      [side.repeat(fan) for side in rects])
        if start_depth is not None:
            # BFS numbering: the nodes at or below a depth are the ids
            # from that level's first on.
            meet &= self.level_bounds[start_depth].repeat(fan) <= pair_node
        pair_rect, pair_node = pair_rect[meet], pair_node[meet]
        nodes = np.bincount(pair_rect, minlength=total)
        at_leaf = pair_node >= self.level_bounds[-2]
        pair_rect, pair_leaf = pair_rect[at_leaf], pair_node[at_leaf]
        # Containment pass over the (rectangle, leaf) pairs, about
        # _PAIR_BUDGET (rectangle, column) pairs at a time.
        counts = self.count[pair_leaf]
        ends = counts.cumsum()
        cuts = [0, len(ends)]
        if len(ends) and ends[-1] > _PAIR_BUDGET:
            cuts[1:1] = np.searchsorted(
                ends, np.arange(_PAIR_BUDGET, ends[-1], _PAIR_BUDGET),
                side="right").tolist()
        member_rect, member_cols = [], []
        for lo, hi in zip(cuts, cuts[1:]):
            cols, sizes = self._children(pair_leaf[lo:hi])
            rect = pair_rect[lo:hi].repeat(sizes)
            x, y = self.xs.take(cols), self.ys.take(cols)
            inside = rects[0].take(rect) <= x
            inside &= x <= rects[2].take(rect)
            inside &= rects[1].take(rect) <= y
            inside &= y <= rects[3].take(rect)
            member_rect.append(rect[inside])
            member_cols.append(cols[inside])
        return (nodes, np.bincount(pair_rect, minlength=total),
                np.concatenate(member_rect), np.concatenate(member_cols))

    def _children(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ids of all children of ``nodes`` — object columns when they
        are leaves — parent by parent, and the child count of each."""
        counts = self.count[nodes]
        ends = counts.cumsum()
        # first child of each parent, pre-shifted by the parent's offset
        # in the result so one arange completes the ids
        shift = (self.first[nodes] - (ends - counts)).astype(np.int32)
        return shift.repeat(counts) + np.arange(
            ends[-1] if len(ends) else 0, dtype=np.int32), counts

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Structural invariants of the flat layout.

        Raises :class:`~repro.index.validate.InvariantViolation` on the
        first violated invariant.
        """
        from .validate import InvariantViolation

        def check(ok: bool, message: str) -> None:
            if not ok:
                raise InvariantViolation(f"flat index: {message}")

        m = self.node_count
        bounds = self.level_bounds
        check(m >= 1, "tree must have a root")
        check(bounds[0] == 0 and bounds[-1] == m,
              "level bounds must tile the node range")
        check(self.parent[0] == -1, "root must have no parent")
        check(int(self.count[self.is_leaf].sum()) == len(self.xs),
              "leaf counts must cover the object columns")
        check(self.size == len(self.xs), "size must match the columns")
        for d in range(len(bounds) - 1):
            lo, hi = int(bounds[d]), int(bounds[d + 1])
            check(lo < hi, f"level {d} must be non-empty")
            kinds = self.is_leaf[lo:hi]
            check(bool(kinds.all()) or not bool(kinds.any()),
                  f"level {d} mixes leaves and internal nodes")
            check(bool(kinds.all()) == (d == len(bounds) - 2),
                  f"leaves must sit exactly at depth {len(bounds) - 2}")
        cursor = 1
        cols = 0
        leaf_of = self.leaf_of
        for i in range(m):
            cnt = int(self.count[i])
            if self.is_leaf[i]:
                check(int(self.first[i]) == cols,
                      f"leaf {i} columns must be contiguous")
                check(bool((leaf_of[cols:cols + cnt] == i).all()),
                      f"leaf_of must map columns back to leaf {i}")
                if cnt:
                    s, e = cols, cols + cnt
                    x1, y1, x2, y2 = self.mbrs[i]
                    check(x1 == self.xs[s:e].min() and y1 == self.ys[s:e].min()
                          and x2 == self.xs[s:e].max()
                          and y2 == self.ys[s:e].max(),
                          f"leaf {i} MBR must bound its objects exactly")
                cols += cnt
            else:
                check(int(self.first[i]) == cursor,
                      f"node {i} children must be contiguous in BFS order")
                check(cnt >= 1, f"internal node {i} must have children")
                s, e = cursor, cursor + cnt
                check(bool((self.parent[s:e] == i).all()),
                      f"children of node {i} must point back to it")
                child = self.mbrs[s:e]
                x1, y1, x2, y2 = self.mbrs[i]
                check(x1 == child[:, 0].min() and y1 == child[:, 1].min()
                      and x2 == child[:, 2].max() and y2 == child[:, 3].max(),
                      f"node {i} MBR must be the exact union of its children")
                cursor += cnt


class FlatIWP:
    """IWP backward pointers (Section 3.3.4) over the flat layout.

    Equivalent to :class:`~repro.index.pointers.IWPIndex` built on the
    same tree: the backward-pointer targets of a leaf are its ancestors
    at ``backward_pointer_depths(height)``, read off per-depth ancestor
    arrays.  The overlapping pointers need no storage here: they make
    a query's start set every same-depth node meeting the rectangle,
    which the batched walk finds itself.
    """

    __slots__ = ("flat", "depths", "_leaf_lo", "_pointer_depths", "_anc")

    def __init__(self, flat: FlatRTree) -> None:
        self.flat = flat
        height = flat.height
        self.depths = backward_pointer_depths(height)
        lo, hi = (int(b) for b in flat.level_bounds[height:height + 2])
        self._leaf_lo = lo
        # The non-root pointer depths, leaf to root, and row by row the
        # ancestor of every leaf at that depth.
        self._pointer_depths = np.array([d for d in self.depths if d],
                                        dtype=np.intp)
        ancestors = {}
        cur = np.arange(lo, hi, dtype=np.int64)
        for depth in range(height, 0, -1):
            ancestors[depth] = cur
            cur = flat.parent[cur]
        self._anc = np.array([ancestors[d] for d in self._pointer_depths],
                             dtype=np.int64).reshape(-1, hi - lo)

    def start_depths(self, leaf_id, rects: np.ndarray) -> np.ndarray:
        """Depth of the window-query start nodes of many rectangles
        (``rects`` is ``(4, R)`` as in
        :meth:`FlatRTree.window_query_batch`), each queried from its
        own leaf when ``leaf_id`` is an ``(R,)`` array and all from one
        leaf when it is an id: the first backward pointer, leaf to
        root, whose MBR contains the rectangle, and ``0`` for a root
        start (chosen or fallback)."""
        depths = self._pointer_depths
        if not len(depths):
            return np.zeros(rects.shape[1], dtype=np.intp)
        # (4, pointer, 1 or R) against (4, 1, R)
        box = self.flat.mbrs[
            self._anc[:, np.atleast_1d(leaf_id) - self._leaf_lo]].transpose(2, 0, 1)
        contains = ((box[:2] <= rects[:2, None])
                    & (rects[2:, None] <= box[2:])).all(axis=0)
        return np.where(contains.any(axis=0), depths[contains.argmax(axis=0)], 0)
