"""IWP pointer substrate: backward and overlapping pointers (Section 3.3.4).

The paper augments the R-tree so window queries can start from
intermediate nodes instead of the root:

* every leaf gets ``r = ceil(log2 h) + 2`` *backward pointers* —
  inspired by the Exponential Index [20] — to itself, to ancestors at
  depths ``h - 2^(i-2)``, and to the root;
* every node targeted by a backward pointer (except the root) gets
  *overlapping pointers* to the same-depth nodes whose MBRs overlap its
  own, because R-tree siblings may overlap and a covering ancestor alone
  would miss objects stored under an overlapping cousin.

:class:`IWPIndex` is built once over a static tree (bulk-loaded or after
all inserts); structural updates invalidate it and require a rebuild.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..geometry import PointObject, Rect
from ..storage.stats import OWN_STATS
from .node import Node
from .rtree import RStarTree


def backward_pointer_count(height: int) -> int:
    """The paper's ``r``: smallest integer with ``h - 2^(r-2) <= 0``.

    For ``h = 8`` this gives 5 (Figure 5); a root-only tree gets a single
    self pointer.
    """
    if height <= 0:
        return 1
    return math.ceil(math.log2(height)) + 2


def backward_pointer_depths(height: int) -> list[int]:
    """Depths (root = 0, leaves = ``height``) targeted by the pointers.

    Rule set of Section 3.3.4: ``bp_1`` is the leaf itself, ``bp_i``
    (1 < i < r) targets the ancestor at depth ``h - 2^(i-2)`` and
    ``bp_r`` targets the root.
    """
    r = backward_pointer_count(height)
    depths = [height]
    for i in range(2, r):
        depths.append(height - 2 ** (i - 2))
    if height > 0:
        depths.append(0)
    # Deduplicate while keeping the leaf-to-root order.
    seen: set[int] = set()
    unique = []
    for d in depths:
        if d not in seen:
            seen.add(d)
            unique.append(d)
    return unique


@dataclass(frozen=True, slots=True)
class BackwardPointer:
    """One ``(bp_i, mbr_i^b)`` pair of a leaf."""

    node: Node
    mbr: Rect


class IWPIndex:
    """Backward + overlapping pointers over a static tree."""

    def __init__(self, tree: RStarTree) -> None:
        self.tree = tree
        self.height = tree.height
        self._backward: dict[int, list[BackwardPointer]] = {}
        self._overlapping: dict[int, list[Node]] = {}
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        depths = backward_pointer_depths(self.height)
        target_nodes: dict[int, Node] = {}
        for leaf in self._iter_leaves():
            chain = self._ancestor_chain(leaf)  # index = depth
            pointers = []
            for depth in depths:
                node = chain[depth]
                assert node.mbr is not None
                pointers.append(BackwardPointer(node, node.mbr))
                target_nodes[node.node_id] = node
            self._backward[leaf.node_id] = pointers
        root_id = self.tree.root.node_id
        for node in target_nodes.values():
            if node.node_id == root_id:
                continue  # the paper excludes the root from overlap lists
            self._overlapping[node.node_id] = self._same_depth_overlaps(node)

    def _iter_leaves(self):
        for node in self.tree.iter_nodes():
            if node.is_leaf:
                yield node

    def _ancestor_chain(self, leaf: Node) -> list[Node]:
        chain = [leaf]
        chain.extend(leaf.ancestors())
        chain.reverse()  # chain[depth] == node at that depth
        return chain

    def _same_depth_overlaps(self, node: Node) -> list[Node]:
        """Same-depth nodes whose MBR overlaps ``node``'s MBR.

        Found by a depth-bounded descent from the root, so cost is
        proportional to the actual overlap rather than the level size.
        """
        assert node.mbr is not None
        depth = node.depth_from_root()
        out: list[Node] = []
        stack: list[tuple[Node, int]] = [(self.tree.root, 0)]
        while stack:
            candidate, d = stack.pop()
            if candidate.mbr is None or not candidate.mbr.intersects(node.mbr):
                continue
            if d == depth:
                if candidate is not node:
                    out.append(candidate)
                continue
            if not candidate.is_leaf:
                stack.extend((child, d + 1) for child in candidate.entries)
        return out

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def backward_pointers(self, leaf: Node) -> list[BackwardPointer]:
        """The ``(bp_i, mbr_i^b)`` list of ``leaf``."""
        return self._backward[leaf.node_id]

    def overlapping_pointers(self, node: Node) -> list[Node]:
        """Overlap list of a backward-pointer target (empty for the root)."""
        return self._overlapping.get(node.node_id, [])

    def backward_pointer_total(self) -> int:
        """Total number of backward pointers (storage-overhead metric)."""
        return sum(len(v) for v in self._backward.values())

    def overlapping_pointer_total(self) -> int:
        """Total number of overlapping pointers (storage-overhead metric)."""
        return sum(len(v) for v in self._overlapping.values())

    def storage_overhead_bytes(self, pointer_size: int = 4) -> int:
        """Extra bytes consumed by the pointers (paper assumes 4 B each)."""
        return pointer_size * (
            self.backward_pointer_total() + self.overlapping_pointer_total()
        )

    # ------------------------------------------------------------------
    # Algorithm 3: incremental window query processing
    # ------------------------------------------------------------------
    def start_nodes(self, leaf: Node, rect: Rect) -> list[Node]:
        """Start set for a window query issued from ``leaf``.

        Picks the smallest ``i`` whose ``mbr_i^b`` fully covers ``rect``
        (falling back to the root, which is always a correct start) and
        adds the start node's overlapping pointers that intersect
        ``rect``.  The first element is always the chosen backward-
        pointer target, so callers can attribute an avoided root descent
        by checking ``start_nodes(...)[0] is not tree.root``.
        """
        pointers = self._backward[leaf.node_id]
        start: Node | None = None
        for bp in pointers:
            if bp.mbr.contains_rect(rect):
                start = bp.node
                break
        if start is None:
            start = self.tree.root
        nodes = [start]
        for other in self.overlapping_pointers(start):
            if other.mbr is not None and other.mbr.intersects(rect):
                nodes.append(other)
        return nodes

    def window_query(self, leaf: Node, rect: Rect, io=OWN_STATS) -> list[PointObject]:
        """Window query for ``rect`` issued while visiting an object of
        ``leaf`` (Algorithm 3): the ordinary descent run from
        :meth:`start_nodes` instead of the root.
        """
        nodes = self.start_nodes(leaf, rect)
        return self.tree.window_query_from(nodes, rect, io=io)
