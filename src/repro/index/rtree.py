"""The R*-tree.

This is the index substrate of the paper (Section 3.2 adopts an R-tree;
Section 5 uses R*-trees with 4096-byte pages and at most 50 entries per
node).  Everything is implemented from scratch:

* dynamic insertion with the R* heuristics (choose-subtree, margin-based
  split, forced reinsertion),
* deletion with tree condensing,
* Sort-Tile-Recursive bulk loading (used by the experiment harness to
  build large trees quickly; the resulting tree obeys the same
  invariants),
* window queries, best-first kNN and the incremental nearest-neighbour
  iterator of Hjaltason & Samet [10], which the NWC algorithm uses to
  visit objects in ascending distance.

Every node visit is recorded in :class:`~repro.storage.IOStats` — the
paper's performance metric.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ..geometry import PointObject, Rect
from ..storage.stats import OWN_STATS, IOStats
from .node import Node
from .pack import pack_tree, str_tiles
from .rstar import choose_subtree, pick_reinsert_entries, split_node

#: Paper's fanout (Section 5: "maximum number of entries in a node is 50").
DEFAULT_MAX_ENTRIES = 50

NodeFilter = Callable[[Node], bool]


class RStarTree:
    """A two-dimensional R*-tree over :class:`PointObject` entries."""

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        min_entries: int | None = None,
        stats: IOStats | None = None,
    ) -> None:
        """Args:
            max_entries: Node capacity (the paper uses 50).
            min_entries: Underflow threshold; defaults to 40% of capacity.
            stats: Shared I/O counter; a fresh one is created if omitted.
        """
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self.max_entries = max_entries
        self.min_entries = (
            min_entries if min_entries is not None else max(2, int(0.4 * max_entries))
        )
        if not 2 <= self.min_entries <= max_entries // 2:
            raise ValueError(
                f"min_entries {self.min_entries} must be in [2, {max_entries // 2}]"
            )
        self.stats = stats if stats is not None else IOStats()
        self.root = Node(is_leaf=True, node_id=0)
        self._next_node_id = 1
        self.size = 0
        #: What the latest :meth:`insert` / :meth:`delete` changed: the
        #: leaves whose entry lists it edited, or ``None`` when it created
        #: or removed a node (a split, a condense removal, the root
        #: growing or shrinking) — a *structural* edit.  Leaf-level
        #: forced reinsertion only moves objects between existing leaves;
        #: internal-level moves happen only after a split or a removal.
        self.last_edit: set[Node] | None = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _take_ids(self, count: int) -> range:
        """Reserve ``count`` consecutive node ids (a structural edit)."""
        first = self._next_node_id
        self._next_node_id += count
        self.last_edit = None
        return range(first, first + count)

    def _new_node(self, is_leaf: bool) -> Node:
        return Node(is_leaf, node_id=self._take_ids(1)[0])

    def insert(self, obj: PointObject) -> None:
        """Insert one object (R* insertion with forced reinsertion)."""
        self.last_edit = set()
        self._insert_entry(obj, level=0, reinserted_levels=set())
        self.size += 1

    def extend(self, objects: Iterable[PointObject]) -> None:
        """Insert many objects one by one."""
        for obj in objects:
            self.insert(obj)

    @classmethod
    def bulk_load(
        cls,
        objects: Sequence[PointObject],
        max_entries: int = DEFAULT_MAX_ENTRIES,
        min_entries: int | None = None,
        fill: float = 0.9,
        stats: IOStats | None = None,
    ) -> "RStarTree":
        """Build a packed tree with Sort-Tile-Recursive loading.

        Args:
            objects: The dataset.
            max_entries: Node capacity.
            min_entries: Underflow threshold (only relevant for later
                dynamic updates).
            fill: Target node occupancy of the packed levels.
            stats: Shared I/O counter.
        """
        if not 0.1 < fill <= 1.0:
            raise ValueError("fill must be in (0.1, 1.0]")
        tree = cls(max_entries=max_entries, min_entries=min_entries, stats=stats)
        if not objects:
            return tree
        # A capacity of at least twice the underflow bound guarantees the
        # tail rebalancing always yields legal nodes.
        capacity = min(max_entries, max(2 * tree.min_entries, int(max_entries * fill)))
        tree.root = pack_tree(
            tree, objects, lambda cx, cy, _leaf: str_tiles(cx, cy, capacity))
        tree.size = len(objects)
        return tree


    # ------------------------------------------------------------------
    # R* insertion internals
    # ------------------------------------------------------------------
    def _node_level(self, node: Node) -> int:
        """Level above the leaves (leaf = 0); stable across root splits."""
        level = 0
        probe = node
        while not probe.is_leaf:
            probe = probe.entries[0]
            level += 1
        return level

    def _choose_node(self, rect: Rect, level: int) -> Node:
        node = self.root
        current = self._node_level(node)
        while current > level:
            node = choose_subtree(node, rect)
            current -= 1
        return node

    def _insert_entry(self, entry, level: int, reinserted_levels: set[int]) -> None:
        target = self._choose_node(Node.entry_mbr(entry), level)
        target.add_entry(entry)
        if level == 0 and self.last_edit is not None:
            self.last_edit.add(target)
        self._adjust_upward(target)
        if len(target.entries) > self.max_entries:
            self._handle_overflow(target, level, reinserted_levels)

    def _adjust_upward(self, node: Node) -> None:
        parent = node.parent
        while parent is not None:
            parent.refresh_mbr()
            parent = parent.parent

    def _handle_overflow(self, node: Node, level: int, reinserted_levels: set[int]) -> None:
        if node.parent is not None and level not in reinserted_levels:
            reinserted_levels.add(level)
            moved = pick_reinsert_entries(node)
            for entry in moved:
                node.entries.remove(entry)
                if isinstance(entry, Node):
                    entry.parent = None
            node.refresh_mbr()
            self._adjust_upward(node)
            for entry in moved:
                self._insert_entry(entry, level, reinserted_levels)
            return
        self._split(node, level, reinserted_levels)

    def _split(self, node: Node, level: int, reinserted_levels: set[int]) -> None:
        group1, group2 = split_node(node, self.min_entries)
        left = self._new_node(node.is_leaf)
        right = self._new_node(node.is_leaf)
        for entry in group1:
            left.add_entry(entry)
        for entry in group2:
            right.add_entry(entry)
        parent = node.parent
        if parent is None:
            new_root = self._new_node(is_leaf=False)
            new_root.add_entry(left)
            new_root.add_entry(right)
            self.root = new_root
            return
        parent.entries.remove(node)
        node.parent = None
        parent.add_entry(left)
        parent.add_entry(right)
        parent.refresh_mbr()
        self._adjust_upward(parent)
        if len(parent.entries) > self.max_entries:
            self._handle_overflow(parent, level + 1, reinserted_levels)

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def delete(self, obj: PointObject) -> bool:
        """Delete one object; returns False when it is not in the tree."""
        leaf = self._find_leaf(self.root, obj)
        if leaf is None:
            self.last_edit = set()
            return False
        self.last_edit = {leaf}
        leaf.entries.remove(obj)
        leaf.refresh_mbr()
        self._condense(leaf)
        self.size -= 1
        return True

    def _find_leaf(self, node: Node, obj: PointObject) -> Optional[Node]:
        if node.is_leaf:
            return node if obj in node.entries else None
        for child in node.entries:
            if child.mbr is not None and child.mbr.contains_point(obj.x, obj.y):
                found = self._find_leaf(child, obj)
                if found is not None:
                    return found
        return None

    def _condense(self, node: Node) -> None:
        orphans: list[tuple[object, int]] = []
        current = node
        while current.parent is not None:
            parent = current.parent
            if len(current.entries) < self.min_entries:
                parent.entries.remove(current)
                current.parent = None
                self.last_edit = None
                # Entries of a node at level L are reinserted into
                # containers at level L (objects -> leaves, child nodes
                # at L-1 -> internal nodes at L).
                container_level = self._node_level(current)
                for entry in current.entries:
                    if isinstance(entry, Node):
                        entry.parent = None
                    orphans.append((entry, container_level))
                parent.refresh_mbr()
            else:
                current.refresh_mbr()
            current = parent
        current.refresh_mbr()
        for entry, level in orphans:
            self._insert_entry(entry, level, reinserted_levels=set())
        # Shrink the root when it has a single internal child.
        while not self.root.is_leaf and len(self.root.entries) == 1:
            child = self.root.entries[0]
            child.parent = None
            self.root = child
            self.last_edit = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        """Number of edges from the root to a leaf (paper's ``h``)."""
        return self._node_level(self.root)

    def iter_nodes(self) -> Iterator[Node]:
        """Every node, pre-order; no I/O accounting (maintenance only)."""
        return self.root.iter_subtree()

    def iter_objects(self) -> Iterator[PointObject]:
        """Every stored object; no I/O accounting (maintenance only)."""
        return self.root.iter_objects()

    def node_count(self) -> int:
        """Total number of nodes."""
        return sum(1 for _ in self.iter_nodes())

    def level_statistics(self) -> list[dict[str, float]]:
        """Per-level aggregates used by the analytic cost model.

        Returns:
            One dict per level from the root (index 0) down to the
            leaves, with keys ``nodes``, ``avg_width``, ``avg_height``.
        """
        levels: list[list[Node]] = [[self.root]]
        while not levels[-1][0].is_leaf:
            nxt: list[Node] = []
            for node in levels[-1]:
                nxt.extend(node.entries)
            levels.append(nxt)
        out = []
        for nodes in levels:
            widths = [n.mbr.width for n in nodes if n.mbr is not None]
            heights = [n.mbr.height for n in nodes if n.mbr is not None]
            out.append(
                {
                    "nodes": float(len(nodes)),
                    "avg_width": sum(widths) / len(widths) if widths else 0.0,
                    "avg_height": sum(heights) / len(heights) if heights else 0.0,
                }
            )
        return out

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def window_query(self, rect: Rect, io=OWN_STATS) -> list[PointObject]:
        """All objects inside the closed rectangle ``rect``.

        Standard root-to-leaf descent; every visited node is charged to
        ``io`` (this tree's ``stats`` by default, ``None`` for none).
        """
        return self.window_query_from([self.root], rect, io=io)

    def window_query_from(
        self, start_nodes: Sequence[Node], rect: Rect, io=OWN_STATS
    ) -> list[PointObject]:
        """Window query that starts from arbitrary nodes (IWP support).

        The caller guarantees the union of the start subtrees covers the
        query rectangle (Algorithm 3 arranges that via backward and
        overlapping pointers).
        """
        io = self.stats if io is OWN_STATS else io
        result: list[PointObject] = []
        stack = [n for n in start_nodes if n.mbr is not None and n.mbr.intersects(rect)]
        if io is not None:
            for node in stack:
                io.record_node(node.is_leaf)
        while stack:
            node = stack.pop()
            if node.is_leaf:
                for obj in node.entries:
                    if rect.contains_object(obj):
                        result.append(obj)
                continue
            for child in node.entries:
                if child.mbr is not None and child.mbr.intersects(rect):
                    if io is not None:
                        io.record_node(child.is_leaf)
                    stack.append(child)
        return result

    def incremental_nearest(
        self,
        x: float,
        y: float,
        node_filter: NodeFilter | None = None,
        io=OWN_STATS,
    ) -> Iterator[tuple[PointObject, float, Node]]:
        """Distance browsing (Hjaltason & Samet [10]).

        Yields ``(object, distance, leaf)`` in ascending distance from
        ``(x, y)``.  ``leaf`` is the leaf node that stores the object —
        the NWC algorithm needs it to fetch IWP backward pointers.

        Args:
            node_filter: Optional predicate evaluated when an index node
                reaches the front of the priority queue; returning False
                prunes the whole subtree *without* visiting it (this is
                how DIP and DEP save I/O).  The predicate sees the
                current best-known state through its closure, so pruning
                tightens as ``dist_best`` improves.
            io: Charged as in :meth:`window_query`.
        """
        io = self.stats if io is OWN_STATS else io
        counter = itertools.count()
        heap: list[tuple[float, int, int, object, object]] = []
        # kind 0 = node, kind 1 = object (nodes first on distance ties so
        # their objects become visible before equal-distance yields).
        root = self.root
        if root.mbr is None:
            return
        heapq.heappush(heap, (root.mbr.mindist(x, y), 0, next(counter), root, None))
        while heap:
            dist, kind, _, item, leaf = heapq.heappop(heap)
            if kind == 1:
                yield item, dist, leaf  # type: ignore[misc]
                continue
            node: Node = item  # type: ignore[assignment]
            if node_filter is not None and not node_filter(node):
                continue
            if io is not None:
                io.record_node(node.is_leaf)
            if node.is_leaf:
                for obj in node.entries:
                    d = math.hypot(obj.x - x, obj.y - y)
                    heapq.heappush(heap, (d, 1, next(counter), obj, node))
            else:
                for child in node.entries:
                    if child.mbr is None:
                        continue
                    heapq.heappush(
                        heap, (child.mbr.mindist(x, y), 0, next(counter), child, None)
                    )

    def nearest(
        self, x: float, y: float, k: int = 1, io=OWN_STATS
    ) -> list[tuple[PointObject, float]]:
        """Best-first k-nearest-neighbour query."""
        if k <= 0:
            raise ValueError("k must be positive")
        out: list[tuple[PointObject, float]] = []
        for obj, dist, _ in self.incremental_nearest(x, y, io=io):
            out.append((obj, dist))
            if len(out) == k:
                break
        return out
