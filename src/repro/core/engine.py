"""The NWC / kNWC query engine (Algorithm 1 with Sections 3.3-3.4).

One engine instance binds a tree, a scheme (Table 3) and — when the
scheme needs them — the density grid (DEP) and the pointer index (IWP).
Queries then run the incremental nearest-qualified-window search:

1. Visit objects in ascending distance to ``q`` via the tree's
   incremental NN iterator; DIP and DEP prune index nodes *before* they
   are read by vetoing them at the priority-queue front.
2. Per object ``p``: normalize into the first quadrant, build the search
   region ``SR_p``; SRR may skip ``p`` entirely or shrink the region;
   DEP may cancel the window query; otherwise fetch the region's objects
   (through IWP's backward/overlapping pointers when enabled).
3. Enumerate candidate windows by pairing ``p`` (vertical edge) with each
   partner on the horizontal edge, count members with a two-pointer sweep
   over the y-sorted region contents, and offer the ``n`` closest members
   of every qualified window to the result policy.
4. Under SRR the object stream stops once even the nearest window an
   object could generate (``dist(q, p) - diagonal``) cannot beat the
   current bound; the baseline scheme drains the whole dataset, matching
   the flat NWC curves of Figure 11.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from bisect import bisect_left, bisect_right
from typing import Sequence

import numpy as np

from ..geometry import PointObject, Rect
from ..grid import DensityGrid
from ..index import FlatIWP, FlatRTree, IWPIndex, RStarTree
from ..obs.metrics import DEFAULT_WORK_BUCKETS, MetricsRegistry
from ..obs.trace import ATTRIBUTION_KEYS, NULL_TRACER
from ..storage import IOStats
from . import kernels
from .errors import EngineConfigError
from .knwc import (ROUNDING_MARGIN, CandidatePool, KNWCCandidates, Rank,
                   make_policy)
from .measures import DistanceMeasure
from .query import KNWCQuery, NWCQuery
from .regions import (
    FrameRegion,
    QuadrantFrame,
    generation_region,
    search_region,
    shrink_search_region,
)
from .results import KNWCResult, NWCResult, ObjectGroup
from .schemes import OptimizationFlags, Scheme

#: Paper default: "The grid cell size is set to 25" (Section 5).
DEFAULT_GRID_CELL_SIZE = 25.0

#: Engine execution modes: the scalar path — the paper's loop, line by
#: line, the reference every identity suite compares against — and the
#: columnar, leaf-batched array loop over the flat struct-of-arrays
#: index (see :mod:`repro.index.flat` and :mod:`repro.core.kernels`);
#: both return bit-identical answers and counters.
EXECUTION_MODES = ("python", "columnar")

#: Default execution mode.
DEFAULT_EXECUTION = "columnar"


class _Attribution:
    """Per-query optimization event counts (see ATTRIBUTION_KEYS).

    A plain slots bag rather than a dict so the hot-path increments are
    single attribute bumps; created only when a tracer or a metrics
    registry is attached, so the default configuration never pays for
    it.
    """

    __slots__ = tuple(key for key, _ in ATTRIBUTION_KEYS)

    def __init__(self) -> None:
        for key in self.__slots__:
            setattr(self, key, 0)

    def nonzero(self) -> dict[str, int]:
        return {key: value for key in self.__slots__
                if (value := getattr(self, key))}


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

#: Most leaves one table is built for (see ``_search_loop_columnar``).
_GROUP_CAP = 16


class _LeafStream:
    """One leaf's objects in pop order — ascending distance, entry order
    among equals — and the batch table over the rows still to pop:
    object ``i`` is row ``i + base`` of ``table``.  Its heap entries
    carry ``seq + i``: ``seq`` is assigned when the leaf itself is
    popped (only the leaves' seq ranges order equal distances, the
    stream orders its own); a stream may be prepared, table and all,
    before that.

    Only its *events* enter the heap (``_search_loop_columnar``): rows
    below ``at`` are charged, ``head`` is the row of its valid entry,
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
    precomputed under the prune bound ``bound`` (see
    :meth:`NWCEngine._leaf_table`).

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
        per counter, in the order :meth:`NWCEngine._charge` unpacks.
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


def query_seconds(metrics: MetricsRegistry, kind: str):
    """``nwc_query_seconds{kind}``: wall-clock time of one engine run,
    recorded by an engine with a registry or by a server around it."""
    return metrics.histogram("nwc_query_seconds", "Wall-clock query latency",
                             labels={"kind": kind})


class NWCEngine:
    """Processes NWC and kNWC queries against one dataset/tree.

    A query writes nothing on the engine: its I/O counters, anchor band
    and offer-order origin are its own, and it reads the snapshot it
    searches once.  So queries are safe to run concurrently between
    updates, which the caller orders against them.
    """

    def __init__(
        self,
        tree: RStarTree,
        scheme: Scheme | OptimizationFlags = Scheme.NWC_STAR,
        grid: DensityGrid | None = None,
        grid_cell_size: float = DEFAULT_GRID_CELL_SIZE,
        iwp: IWPIndex | None = None,
        extent: Rect | None = None,
        execution: str = DEFAULT_EXECUTION,
        tracer=None,
        metrics: MetricsRegistry | None = None,
        flat: FlatRTree | None = None,
        flat_iwp: FlatIWP | None = None,
    ) -> None:
        """Args:
            tree: The :class:`RStarTree` indexing the object set ``P``.
            scheme: A Table-3 scheme or explicit optimization flags.
            grid: Pre-built density grid (DEP); built on demand otherwise.
            grid_cell_size: Cell side used when the grid is auto-built.
            iwp: Pre-built pointer index (IWP); built on demand otherwise
                (scalar mode only — the columnar path builds a
                :class:`~repro.index.flat.FlatIWP` instead).
            extent: Data-space rectangle for the auto-built grid; defaults
                to the root MBR.
            execution: ``"columnar"`` (leaf-batched array search over
                the flat struct-of-arrays index, the default) or
                ``"python"`` (the scalar reference path); both return
                bit-identical results and counters.
            flat: Pre-built flat snapshot of ``tree`` (columnar mode);
                converted on demand otherwise.
            flat_iwp: Pre-built :class:`~repro.index.flat.FlatIWP` over
                ``flat``; built on demand otherwise.
            tracer: A :class:`~repro.obs.trace.QueryTracer` to record a
                span tree per query; the default no-op tracer costs one
                flag check per query.  A traced query binds the tracer's
                ``stats`` to its own counters so spans capture its I/O
                deltas.
            metrics: Shared :class:`~repro.obs.metrics.MetricsRegistry`
                for query latency/work histograms and optimization
                attribution counters; ``None`` disables recording.
        """
        if execution not in EXECUTION_MODES:
            raise EngineConfigError(
                f"execution must be one of {EXECUTION_MODES}, got {execution!r}"
            )
        self.tree = tree
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.metrics = metrics
        if metrics is not None:
            self._m_seconds = {kind: query_seconds(metrics, kind)
                               for kind in ("nwc", "knwc")}
            self._m_queries = {
                kind: metrics.counter(
                    "nwc_queries_total", "Queries answered",
                    labels={"kind": kind},
                )
                for kind in ("nwc", "knwc")
            }
            self._m_node_accesses = metrics.histogram(
                "nwc_query_node_accesses",
                "R*-tree node accesses per query (the paper's metric)",
                buckets=DEFAULT_WORK_BUCKETS,
            )
            self._m_attribution = {
                key: metrics.counter(
                    "nwc_opt_events_total", "Optimization attribution events",
                    labels={"event": key},
                )
                for key, _ in ATTRIBUTION_KEYS
            }
        self.scheme = scheme if isinstance(scheme, Scheme) else None
        self.flags = scheme.flags if isinstance(scheme, Scheme) else scheme
        self.grid = grid
        self.iwp = iwp
        self.execution = execution
        # A pre-built grid may use a different cell size than the default
        # argument; remember the real one so lazy rebuilds preserve it.
        # (Duck-typed DEP replacements without a cell size keep the default.)
        self._grid_cell_size = getattr(grid, "cell_size", grid_cell_size)
        self._iwp_dirty = False
        self._grid_dirty = False
        self._flat = flat
        self._flat_iwp = flat_iwp
        # Leaves edited since ``_flat`` was taken: the pending edit the
        # next refresh splices in (see _note_edit).
        self._flat_edit: set = set()
        if self.flags.dep and self.grid is None:
            grid_extent = extent if extent is not None else tree.root.mbr
            if grid_extent is None:
                raise EngineConfigError(
                    "cannot build a density grid over an empty tree"
                )
            self.grid = DensityGrid.build(tree.iter_objects(), grid_extent, grid_cell_size)
        if self.flags.iwp and self.iwp is None and execution != "columnar":
            self.iwp = IWPIndex(tree)

    # ------------------------------------------------------------------
    # Dynamic updates
    # ------------------------------------------------------------------
    def insert(self, obj: PointObject) -> None:
        """Insert one object, keeping DEP/IWP structures consistent.

        The density grid is updated in place when the object falls
        inside its extent and rebuilt lazily otherwise (counting it into
        a clamped edge cell would let DEP prune a region that actually
        holds the object).  The IWP pointer index is structural and is
        rebuilt lazily before the next query.

        Updates and queries are ordered by the caller (the server's
        write slot); the engine holds no state across queries that an
        update could leave stale.
        """
        self.tree.insert(obj)
        self._note_edit()
        if self.grid is not None:
            if self.grid.extent.contains_point(obj.x, obj.y):
                self.grid.add(obj.x, obj.y)
            else:
                self._grid_dirty = True
        if self.flags.iwp:
            self._iwp_dirty = True

    def delete(self, obj: PointObject) -> bool:
        """Delete one object; returns False when it is not indexed.

        Ordered against queries by the caller, like :meth:`insert`.
        """
        if not self.tree.delete(obj):
            return False
        self._note_edit()
        if self.grid is not None:
            if self.grid.extent.contains_point(obj.x, obj.y):
                self.grid.remove(obj.x, obj.y)
            else:
                self._grid_dirty = True
        if self.flags.iwp:
            self._iwp_dirty = True
        return True

    def _note_edit(self) -> None:
        """Gather the tree's latest edit into the pending snapshot edit.

        Edits gather because a fleet worker or a WAL replay can apply
        several before the next query.  A structural edit (see
        ``RStarTree.last_edit``) drops the snapshot instead: the next
        refresh rebuilds it with ``FlatRTree.from_tree``.
        """
        if self._flat is None:
            return
        edit = self.tree.last_edit
        if edit is None:
            self._flat = None
            self._flat_edit = set()
        else:
            self._flat_edit |= edit

    def _refresh_structures(self) -> tuple[FlatRTree | None, FlatIWP | None]:
        """Rebuild DEP/IWP/flat structures invalidated by updates; return
        the ``(flat, flat_iwp)`` pair a columnar search runs on, built
        before it is published (a query racing the lazy first build gets
        the published pair or builds an equal one of its own)."""
        if self._grid_dirty and self.grid is not None:
            extent = self.tree.root.mbr
            if extent is not None:
                extent = extent.union(self.grid.extent)
                self.grid = DensityGrid.build(
                    self.tree.iter_objects(), extent, self._grid_cell_size
                )
            self._grid_dirty = False
        if self.execution == "columnar":
            flat, flat_iwp = self._flat, self._flat_iwp
            if flat is None:
                flat = FlatRTree.from_tree(self.tree)
                flat_iwp = None
            elif self._flat_edit:
                flat = flat.splice(self._flat_edit)
                flat_iwp = None
                self._flat_edit = set()
            if self.flags.iwp and flat_iwp is None:
                flat_iwp = FlatIWP(flat)
            self._flat, self._flat_iwp = flat, flat_iwp
            self._iwp_dirty = False
            return flat, flat_iwp
        if self._iwp_dirty and self.flags.iwp:
            self.iwp = IWPIndex(self.tree)
            self._iwp_dirty = False
        return None, None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def nwc(
        self,
        query: NWCQuery,
        region: Rect | None = None,
    ) -> NWCResult:
        """Answer one NWC query (Definition 1).

        Args:
            region: Optional *constrained NWC*: every returned object
                must lie inside this rectangle (the constrained-NN
                semantics of Ferhatosmanoglu et al. [8], applied to
                window clusters).  Index nodes disjoint from the region
                are pruned for free.

        A query that provably cannot be satisfied — ``n`` larger than
        the dataset, or a constrained region containing no objects —
        returns an explicit empty result (``found`` False) with its
        ``reason`` set, without touching the index.

        The answer is the first group of the candidate stream: the
        one-group page of :meth:`knwc_candidates`.
        """
        page = self.knwc_candidates(query, 1, region=region)
        return NWCResult(group=page.groups[0] if page.groups else None,
                         stats=page.stats, reason=page.reason)

    def _answer(self, kind: str, q: NWCQuery, policy, prune_windows: bool,
                region: Rect | None = None, anchor_region=None,
                **extra_attrs) -> tuple[dict[str, int], str | None]:
        """Run one query into ``policy``: its own fresh counters, and the
        :meth:`_unsatisfiable` reason when it left the index untouched."""
        stats = IOStats()
        reason = self._unsatisfiable(q, region)
        if reason is None:
            self._observed_search(kind, q, policy, stats, prune_windows,
                                  region, anchor_region, **extra_attrs)
        return stats.snapshot(), reason

    def _unsatisfiable(self, query: NWCQuery, region: Rect | None) -> str | None:
        """A cheap proof that no qualified window can exist, or ``None``.

        Defined behavior for the degenerate cases the paper never
        exercises: asking for more objects than the dataset holds, or
        constraining the answer to a region the dataset does not touch,
        yields an explicit empty result instead of a full index scan.
        """
        if query.n > self.tree.size:
            return "n exceeds dataset size"
        if region is not None:
            mbr = self.tree.root.mbr
            if mbr is None or not region.intersects(mbr):
                return "constrained region contains no objects"
        return None

    def knwc(
        self,
        query: KNWCQuery,
        maintenance: str = "exact",
        region: Rect | None = None,
    ) -> KNWCResult:
        """Answer one kNWC query (Definition 3).

        Args:
            maintenance: ``"exact"`` (greedy candidate buffer, the
                default) or ``"paper"`` (Steps 1-5 of Section 3.4); see
                DESIGN.md §4.1.
            region: Optional constrained-kNWC region (see :meth:`nwc`).
        """
        policy = make_policy(maintenance, query.k, query.m)
        # The baseline scheme drains every object anyway; evaluating every
        # qualified window makes the unoptimized kNWC answer exactly the
        # greedy filter over the full candidate universe (testable against
        # the brute-force reference).  Optimized schemes apply the paper's
        # MINDIST-based skip.
        prune = self.flags.srr or self.flags.dip or self.flags.dep or self.flags.iwp
        stats, reason = self._answer("knwc", query.base, policy, prune, region,
                                     k=query.k, m=query.m)
        return KNWCResult(groups=policy.finalize(), stats=stats, reason=reason)

    # ------------------------------------------------------------------
    # The candidate stream (NWC, and scatter-gather serving)
    # ------------------------------------------------------------------
    def knwc_candidates(
        self,
        query: KNWCQuery | NWCQuery,
        limit: int,
        after: Rank | None = None,
        anchor_region: tuple[float, float, float, float] | None = None,
        ceiling: float = math.inf,
        region: Rect | None = None,
    ) -> KNWCCandidates:
        """One page of the candidate stream.

        The stream is every distinct group the unpruned baseline
        enumerates, overlap constraint NOT applied, each at its first
        window — the one the baseline keeps — in
        :data:`~repro.core.knwc.Rank` order: ``(distance, order key,
        sorted oids)``.  Only objects inside the half-open
        ``anchor_region`` rectangle may *anchor* windows (window members
        still come from the whole tree, so a shard holding its owned
        region plus a halo evaluates every owned window on the full
        membership); ``region`` constrains the members as in
        :meth:`nwc`.  The page is the stream's next ``limit`` groups
        ranked strictly after the cursor ``after`` — the rank of the
        previous page's last group, ``None`` from the start — and below
        ``ceiling``, each with its order key, and ``exhausted`` says
        that nothing (below the ceiling) follows them.  A page is a
        fresh search pruned at its ``limit``-th distance (see
        :class:`~repro.core.knwc.CandidatePool`); ``repro.shard.merge``
        consumes the pages of every shard lazily.

        An :class:`NWCQuery` asks for NWC's own search (``limit`` 1):
        the stream's first group, pruned as the paper prunes.  A
        :class:`KNWCQuery` page under NEAREST_WINDOW prunes at its cut
        plus one query diagonal and a rounding margin: a group's
        distance is at least its generating window's MINDIST less one
        diagonal (DESIGN.md §10).
        """
        if isinstance(query, KNWCQuery):
            kind, base, attrs = "knwc", query.base, {"k": query.k, "m": query.m}
            prune = (self.flags.srr or self.flags.dip or self.flags.dep
                     or self.flags.iwp)
        else:
            kind, base, attrs, prune = "nwc", query, {}, True
        slack = 0.0
        if kind == "knwc" and base.measure is DistanceMeasure.NEAREST_WINDOW:
            slack = base.diagonal + ROUNDING_MARGIN * (abs(base.qx)
                                                       + abs(base.qy))
        policy = CandidatePool(limit, after, ceiling, slack)
        stats, reason = self._answer(kind, base, policy, prune, region,
                                     anchor_region, **attrs)
        groups = policy.finalize()
        return KNWCCandidates(groups=groups, orders=policy.orders(),
                              exhausted=len(groups) < limit,
                              stats=stats, reason=reason)

    # ------------------------------------------------------------------
    # Core search (Algorithm 1)
    # ------------------------------------------------------------------
    def _observed_search(self, kind: str, q: NWCQuery, policy, stats: IOStats,
                         prune_windows: bool, region: Rect | None = None,
                         anchor_region=None, **extra_attrs) -> None:
        """Run :meth:`_search` under the configured tracer/registry.

        The fast path — no tracer, no registry — is a two-attribute
        check and a plain ``_search`` call, which is what keeps the
        disabled-instrumentation overhead inside the ≤2% budget.
        """
        tracer = self.tracer
        metrics = self.metrics
        if not tracer.enabled and metrics is None:
            self._search(q, policy, stats, prune_windows, region, anchor_region)
            return
        attr = _Attribution()
        start = time.perf_counter()
        if tracer.enabled:
            tracer.stats = stats
            attrs = {"scheme": self.scheme.value if self.scheme else "custom",
                     "execution": self.execution,
                     "qx": q.qx, "qy": q.qy, "length": q.length,
                     "width": q.width, "n": q.n}
            attrs.update(extra_attrs)
            root = tracer.start_span(f"query:{kind}", attrs)
            try:
                self._search(q, policy, stats, prune_windows, region,
                             anchor_region, attr)
            finally:
                if root is not None:
                    root.counts.update(attr.nonzero())
                tracer.end_span(root)
        else:
            self._search(q, policy, stats, prune_windows, region,
                         anchor_region, attr)
        if metrics is not None:
            self._m_seconds[kind].observe(time.perf_counter() - start)
            self._m_queries[kind].inc()
            self._m_node_accesses.observe(stats.node_accesses)
            counters = self._m_attribution
            for key, value in attr.nonzero().items():
                counters[key].inc(value)

    def _search(self, q: NWCQuery, policy, stats: IOStats, prune_windows: bool,
                region: Rect | None = None, anchor_region=None,
                attr: _Attribution | None = None) -> None:
        """One search, charging ``stats``; ``anchor_region`` restricts
        the anchors as in :meth:`knwc_candidates`."""
        flat, flat_iwp = self._refresh_structures()
        flags = self.flags
        qx, qy, length, width, n = q.qx, q.qy, q.length, q.width, q.n
        diagonal = q.diagonal
        grid = self.grid
        tracer = self.tracer
        tracing = tracer.enabled

        if self.execution == "columnar":
            search_span = tracer.start_span("search") if tracing else None
            try:
                self._search_loop_columnar(
                    q, policy, prune_windows, region, anchor_region, attr,
                    tracing, stats, flags, grid, diagonal, flat, flat_iwp,
                )
            finally:
                if tracing:
                    tracer.end_span(search_span)
            return

        def node_filter(node) -> bool:
            mbr = node.mbr
            if mbr is None:
                return False
            if region is not None and not mbr.intersects(region):
                return False
            if not (flags.dip or flags.dep):
                return True
            gen = generation_region(mbr, qx, qy, length, width)
            if flags.dep and grid.is_pruned(gen, n):
                if attr is not None:
                    attr.dep_nodes_pruned += 1
                return False
            if flags.dip and gen.mindist(qx, qy) >= policy.bound():
                if attr is not None:
                    attr.dip_nodes_pruned += 1
                return False
            return True

        search_span = tracer.start_span("search") if tracing else None
        try:
            self._search_loop(
                q, policy, prune_windows, region, anchor_region, attr,
                node_filter, tracing, stats, flags, grid, diagonal,
            )
        finally:
            if tracing:
                tracer.end_span(search_span)

    def _search_loop(self, q, policy, prune_windows, region, anchor_region,
                     attr, node_filter, tracing, stats, flags, grid,
                     diagonal) -> None:
        tree = self.tree
        tracer = self.tracer
        qx, qy, length, width, n = q.qx, q.qy, q.length, q.width, q.n
        if anchor_region is not None:
            ax1, ay1, ax2, ay2 = anchor_region
        for p, dist_p, leaf in tree.incremental_nearest(
                qx, qy, node_filter=node_filter, io=stats):
            if region is not None and not region.contains_object(p):
                continue
            bound = policy.bound()
            if flags.srr and dist_p >= bound + diagonal:
                # No window generated by p (or by any farther object) can
                # reach closer than dist(q, p) - diagonal.
                if attr is not None:
                    attr.srr_early_stop += 1
                break
            if anchor_region is not None and not (
                ax1 <= p.x < ax2 and ay1 <= p.y < ay2
            ):
                continue
            frame = QuadrantFrame.for_object(qx, qy, p)
            sr = search_region(frame, p, length, width)
            if flags.srr:
                shrunk = shrink_search_region(sr, bound)
                if shrunk is None:
                    if attr is not None:
                        attr.srr_objects_skipped += 1
                    continue
                if attr is not None and shrunk.upper < sr.upper:
                    attr.srr_regions_shrunk += 1
                sr = shrunk
            real_sr = sr.to_real(frame)
            if flags.dep and grid.is_pruned(real_sr, n):
                stats.window_queries_cancelled += 1
                if attr is not None:
                    attr.dep_windows_cancelled += 1
                continue
            stats.window_queries += 1
            wq_span = None
            if tracing:
                wq_span = tracer.start_span(
                    "window_query", {"oid": p.oid, "dist": dist_p}
                )
            try:
                if flags.iwp:
                    starts = self.iwp.start_nodes(leaf, real_sr)
                    if attr is not None and starts[0] is not tree.root:
                        attr.iwp_root_descents_avoided += 1
                    members = tree.window_query_from(starts, real_sr, io=stats)
                else:
                    members = tree.window_query(real_sr, io=stats)
                if region is not None:
                    members = [m for m in members if region.contains_object(m)]
                enum_span = None
                if tracing:
                    enum_span = tracer.start_span(
                        "enumerate", {"members": len(members)}
                    )
                try:
                    self._enumerate_windows(
                        q, frame, sr, members, policy, prune_windows, stats,
                        dist_p, attr=attr, tspan=enum_span,
                    )
                finally:
                    if tracing:
                        tracer.end_span(enum_span)
            finally:
                if tracing:
                    tracer.end_span(wq_span)

    def _search_loop_columnar(self, q, policy, prune_windows, region,
                              anchor_region, attr, tracing, stats, flags,
                              grid, diagonal, flat, flat_iwp) -> None:
        """Whole-frontier twin of :meth:`_search_loop` over the flat index.

        Replays the scalar best-first search exactly — same heap keys
        ``(dist, kind, seq)``, same counter consumption, same prune and
        record order — but computes child MINDISTs and leaf-object
        distances as array passes.  Each popped leaf contributes one
        *stream* (its objects pre-sorted by ``(distance, seq)``) merged
        through a single head entry.

        The per-object body runs a group of leaves at a time
        (:meth:`_leaf_table`), and a row whose outcome the table holds
        — SRR skip, DEP cancel, fewer than ``n`` members, floor at or
        above the bound — cannot move the bound and never enters the
        heap: a stream's entry points at its next *event* — the row
        where it gets or restamps its table, a row of the table's
        ``events``, the first row the SRR stop may land on — and the
        rows passed on the way are charged there (:meth:`_charge`), so
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
        qx, qy, length, width, n = q.qx, q.qy, q.length, q.width, q.n
        mbrs = flat.mbrs
        first = flat.first
        count = flat.count
        leaf_lo = int(flat.level_bounds[-2])
        use_gen = flags.dip or flags.dep
        srr = flags.srr
        root_mbr = flat.root_mbr
        if root_mbr is None:
            return
        if anchor_region is not None:
            ax1, ay1, ax2, ay2 = anchor_region
        # Order statistic of the squared distances that is the group
        # distance under MAX / MIN; 0 when the enumeration floor cannot
        # apply (another measure, or nothing prunes on distance).
        floor_k = 0
        if prune_windows:
            floor_k = {DistanceMeasure.MAX: n,
                       DistanceMeasure.MIN: 1}.get(q.measure, 0)
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
                    self._charge(other, i, stats, attr)

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
                    if flags.dep and grid.is_pruned(gen, n):
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
                s = int(first[node])
                e = s + cnt
                if leaf_flag:
                    if cnt == 0:
                        continue
                    leaf_stream = (prepared.pop(node, None)
                                   or self._leaf_stream(flat, node, qx, qy))
                    leaf_stream.seq = seq
                    entered.append(leaf_stream)
                    rekey(leaf_stream, 0)
                    seq += cnt
                else:
                    sub = mbrs[s:e]
                    dxs = np.maximum(
                        np.maximum(sub[:, 0] - qx, qx - sub[:, 2]), 0.0
                    ).tolist()
                    dys = np.maximum(
                        np.maximum(sub[:, 1] - qy, qy - sub[:, 3]), 0.0
                    ).tolist()
                    cnts = count[s:e].tolist()
                    for i in range(cnt):
                        if not cnts[i]:
                            continue  # empty child == scalar "mbr is None"
                        heapq.heappush(
                            heap, (math.hypot(dxs[i], dys[i]), 0, seq, s + i, None)
                        )
                        seq += 1
                continue
            # Object pop: an event of its stream, unless a re-key has
            # superseded the entry.  Charge the rows the stream passed on
            # its way, then replay the object's row of its leaf table.
            stream.queued.discard(ident)
            if ident != stream.head:
                continue
            if ident > stream.at:
                self._charge(stream, ident, stats, attr)
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
            if anchor_region is not None and not (
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
                    parts += self._waiting_parts(
                        heap, stream, bound, group - 1, prepared, flat, qx, qy)
                self._leaf_table(q, parts, bound, region, anchor_region,
                                 floor_k, attr is not None, grid, flat,
                                 flat_iwp)
                table = stream.table
                if len(table.cols) <= _FLOOR_BUDGET:
                    group = min(2 * group, _GROUP_CAP)
                else:
                    group = max(group // 2, 1)
            self._replay_row(q, stream, ident, dist, px, py, bound, policy,
                             prune_windows, attr, tracing, stats, flat)
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

    @staticmethod
    def _charge(stream, end, stats, attr) -> None:
        """Charge what the pops of rows ``stream.at .. end - 1`` — no
        event among them — come to under the table ``stream`` holds."""
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

    def _replay_row(self, q, stream, ident, dist, px, py, bound, policy,
                    prune_windows, attr, tracing, stats, flat) -> None:
        """One object's pop, replayed from its row of the table
        ``stream`` holds, stamped ``bound``: the per-row event handler."""
        tracer = self.tracer
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
                {"oid": int(flat.oids[stream.cols[ident]]),
                 "dist": dist})
        try:
            stats.node_accesses += int(table.nodes[slot])
            stats.leaf_accesses += int(table.leaves[slot])
            lo = int(table.indptr[slot])
            hi = int(table.indptr[slot + 1])
            enum_span = None
            if tracing:
                enum_span = tracer.start_span(
                    "enumerate", {"members": hi - lo})
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
                    self._enumerate_windows_columnar(
                        q, frame, sr, table.cols[lo:hi], policy,
                        prune_windows, stats, flat, dist, attr=attr,
                        tspan=enum_span,
                    )
            finally:
                if tracing:
                    tracer.end_span(enum_span)
        finally:
            if tracing:
                tracer.end_span(wq_span)

    def _waiting_parts(self, heap, stream, bound, room, prepared, flat,
                       qx, qy) -> list:
        """Up to ``room`` more ``(stream, start)`` parts for the table
        ``stream`` is about to get under ``bound``: in heap order, the
        other streams whose next pop would build one — no table yet, or
        one SRR stamped with another bound; an entry a re-key has
        superseded is nobody's next pop — and, while no row can
        depend on the bound, the leaves still waiting to be popped,
        whose streams go into ``prepared``."""
        srr = self.flags.srr
        ahead = not srr or bound == math.inf
        leaf_lo = int(flat.level_bounds[-2])
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
                other = prepared[at] = self._leaf_stream(flat, at, qx, qy)
                at = 0
            parts.append((other, at))
        return parts

    @staticmethod
    def _leaf_stream(flat, leaf: int, qx: float, qy: float) -> _LeafStream:
        """The objects of ``leaf`` in ascending distance to the query
        point (its ``seq`` is the pop's to give)."""
        s = int(flat.first[leaf])
        e = s + int(flat.count[leaf])
        dxl = (flat.xs[s:e] - qx).tolist()
        dyl = (flat.ys[s:e] - qy).tolist()
        ds = list(map(math.hypot, dxl, dyl))
        # Stable sort: equal distances keep entry order, i.e.
        # ascending seq — the scalar heap's tie-break.
        cols = np.array(ds).argsort(kind="stable") + s
        ds.sort()
        return _LeafStream(leaf, ds, cols,
                           flat.xs.take(cols), flat.ys.take(cols))

    def _leaf_table(self, q, parts, bound, region, anchor_region, floor_k,
                    attributed, grid, flat, flat_iwp) -> None:
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
        counters here.  ``floor_k`` and ``attributed`` select what
        :meth:`_walk_rows` adds about the rows' enumerations; ``grid``,
        ``flat`` and ``flat_iwp`` are what the search read at its start.
        """
        flags = self.flags
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
        if flags.srr and not math.isfinite(bound):
            floor_k = 0  # any offer restamps the table: no floor is read
        leaves = np.repeat([stream.leaf for stream, _ in parts], sizes)
        self._walk_rows(table, q, rects, leaves[rows], region,
                        sign[1][rows], tx[rows], ty[rows], floor_k,
                        attributed, flat, flat_iwp)
        # Events: a row of n members may offer — unless, under SRR, its
        # floor is at or above the stamp; without SRR the table outlives
        # the bound and the pop compares the floor with the bound of its
        # day.  A tracer opens a span a window query, in pop order.
        if not self.tracer.enabled:
            if flags.srr and table.floors is not None:
                rows = rows[table.floors < bound]
            else:
                rows = rows[np.diff(table.indptr) >= q.n]
        table.events = rows.tolist()

    def _walk_rows(self, table, q, rects, leaf, region, sy, tx, ty,
                   floor_k, attributed, flat, flat_iwp) -> None:
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
        window count; ``attributed`` adds the MINDISTs of those windows.
        """
        n, width, qy = q.n, q.width, q.qy
        start_depth = None
        if self.flags.iwp:
            start_depth = flat_iwp.start_depths(leaf, rects)
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
            s, e = int(indptr[r0]), int(indptr[r1])
            dx, dy = flat.xs.take(cols[s:e]) - q.qx, my[s:e] - qy
            ends = indptr[r0 + 1:r1 + 1] - s
            floors[r0:r1] = np.sqrt(kernels.window_kth_dsq(
                dx * dx + dy * dy, ends - sizes[r0:r1], ends, floor_k))
            passed[s:e] = partner[s:e] & (kernels.leaf_window_counts(
                frame_y[s:e], sizes[r0:r1], width) >= n)
        table.floors = floors
        member_rect = member_rect[passed]
        table.qualified = np.bincount(member_rect, minlength=len(sy))
        if attributed:
            table.mindists = kernels.window_mindists(
                frame_y[passed], width,
                np.maximum(tx - q.length, 0.0).take(member_rect))
            table.qptr = np.concatenate(([0], table.qualified.cumsum()))

    def _enumerate_windows(
        self,
        q: NWCQuery,
        frame: QuadrantFrame,
        sr,
        members: Sequence[PointObject],
        policy,
        prune_windows: bool,
        stats: IOStats,
        anchor: float,
        attr: _Attribution | None = None,
        tspan=None,
    ) -> None:
        """Pair the search region's object, ``anchor`` away from ``q``,
        with every partner (Algorithm 1 lines 17-26) and offer each
        qualified window's best group at its order key."""
        n = q.n
        width = q.width
        qx, qy = q.qx, q.qy
        sy = frame.sy
        # Frame-space view of the search-region contents, sorted by frame y.
        entries = []
        for obj in members:
            dxq = obj.x - qx
            dyq = obj.y - qy
            entries.append((sy * dyq, dxq * dxq + dyq * dyq, obj))
        entries.sort(key=lambda e: e[0])
        tys = [e[0] for e in entries]
        # Selection keys (distance, oid), built once per region on first
        # use instead of once per qualified window.
        keys: list[tuple[float, int]] | None = None
        # Horizontal MINDIST component shared by every window of p.
        dx = max(0.0, sr.x1)
        dx_sq = dx * dx
        start = bisect_left(tys, sr.ty_p)
        lo = 0
        for j in range(start, len(entries)):
            ty_top = entries[j][0]
            stats.objects_examined += 1
            bottom = ty_top - width
            while tys[lo] < bottom:
                lo += 1
            hi = bisect_right(tys, ty_top, lo=lo)
            stats.windows_evaluated += 1
            if hi - lo < n:
                continue
            stats.qualified_windows += 1
            dy = bottom if bottom > 0.0 else 0.0
            mindist = math.sqrt(dx_sq + dy * dy)
            if prune_windows and mindist >= policy.bound():
                if attr is not None:
                    attr.windows_pruned_by_bound += 1
                continue
            if keys is None:
                keys = [(e[1], e[2].oid) for e in entries]
            # Tie-break equal distances on the object id so the selected
            # group is deterministic (duplicate coordinates are legal).
            # Selecting indices avoids copying the entry slice; an exactly
            # full window needs no heap at all.
            if hi - lo == n:
                sel = sorted(range(lo, hi), key=keys.__getitem__)
            else:
                sel = heapq.nsmallest(n, range(lo, hi), key=keys.__getitem__)
            objects = tuple(entries[i][2] for i in sel)
            if tspan is not None:
                t0 = time.perf_counter()
                distance = self._measure(q, objects, [entries[i][1] for i in sel])
                tspan.add_time("measure_s", time.perf_counter() - t0)
                tspan.add_time("measure_calls", 1)
            else:
                distance = self._measure(q, objects, [entries[i][1] for i in sel])
            if prune_windows and distance >= policy.bound():
                continue
            window = sr.window_rect(frame, entries[j][2].y)
            policy.offer(ObjectGroup(objects, distance, window),
                         (anchor, ty_top))

    def _enumerate_windows_columnar(
        self,
        q: NWCQuery,
        frame: QuadrantFrame,
        sr,
        cols: np.ndarray,
        policy,
        prune_windows: bool,
        stats: IOStats,
        flat: FlatRTree,
        anchor: float,
        attr: _Attribution | None = None,
        tspan=None,
    ) -> None:
        """Array-kernel version of :meth:`_enumerate_windows`.

        Same windows, same groups, same counters (see
        :mod:`repro.core.kernels` for the bit-identity argument); the
        per-window top-``n`` selections are masks over one rank
        permutation of the region, and members are flat-index
        column ids so objects materialize only for groups that survive
        the bound checks.  MAX/MIN measures without instrumentation take
        :meth:`_enumerate_columnar_fast`, which measures every candidate
        window of the region in one order-statistic kernel.
        """
        if cols.size == 0:
            return
        n = q.n
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
        measure = q.measure
        if (attr is None and tspan is None
                and (measure is DistanceMeasure.MAX
                     or measure is DistanceMeasure.MIN)):
            self._enumerate_columnar_fast(
                q, frame, sr, snap, start, tops, los, his, dsq, qualified,
                mindists, policy, prune_windows, flat, anchor,
            )
            return
        # The (distance, oid) selection order is shared by every window
        # of the region; built lazily on the first unpruned window.
        rank = None
        # Group objects are only needed up front by the window-based
        # measure; the point measures derive the distance from dsq alone,
        # so the tuple can wait until the group survives the bound check.
        lazy_objects = measure is not DistanceMeasure.NEAREST_WINDOW
        for jj in qualified.nonzero()[0].tolist():
            if prune_windows and mindists[jj] >= policy.bound():
                if attr is not None:
                    attr.windows_pruned_by_bound += 1
                continue
            if rank is None:
                rank = kernels.rank_by_key(dsq, snap.oids)
            sel = kernels.select_ranked(rank, int(los[jj]), int(his[jj]), n)
            dsqs = dsq[sel].tolist()
            if lazy_objects:
                if tspan is not None:
                    t0 = time.perf_counter()
                    distance = self._measure(q, (), dsqs)
                    tspan.add_time("measure_s", time.perf_counter() - t0)
                    tspan.add_time("measure_calls", 1)
                else:
                    distance = self._measure(q, (), dsqs)
                if prune_windows and distance >= policy.bound():
                    continue
                objects = flat.objects_at(snap.cols[sel])
            else:
                objects = flat.objects_at(snap.cols[sel])
                if tspan is not None:
                    t0 = time.perf_counter()
                    distance = self._measure(q, objects, dsqs)
                    tspan.add_time("measure_s", time.perf_counter() - t0)
                    tspan.add_time("measure_calls", 1)
                else:
                    distance = self._measure(q, objects, dsqs)
                if prune_windows and distance >= policy.bound():
                    continue
            window = sr.window_rect(frame, float(snap.ys[start + jj]))
            policy.offer(ObjectGroup(objects, distance, window),
                         (anchor, float(tops[jj])))

    def _enumerate_columnar_fast(
        self, q, frame, sr, snap, start, tops, los, his, dsq, qualified,
        mindists, policy, prune_windows, flat, anchor,
    ) -> None:
        """Measure every candidate window of the region in one pass.

        For MAX (``k = n``) and MIN (``k = 1``) the group distance of a
        window is the ``k``-th smallest squared distance in its y-span,
        so :func:`~repro.core.kernels.window_kth_dsq` computes all of
        them at once and only surviving windows pay for selection and
        object materialization.

        NWC (a pruned one-group page from the start) replays the sequential
        offer chain exactly: a window is offered iff its distance beats
        the running minimum of the entry bound and all earlier candidate
        distances — the scalar loop's bound after any prefix equals that
        running minimum, because non-offered windows sit at or above it
        and equal distances are never offered (``distance >= bound``
        skips).  The mindist prefilter against the entry bound is safe
        for the same reason: ``distance >= mindist``, so a window whose
        mindist already misses the entry bound can never be offered.
        """
        n = q.n
        k = n if q.measure is DistanceMeasure.MAX else 1
        if (prune_windows and isinstance(policy, CandidatePool)
                and policy.limit == 1 and policy.after is None):
            entry = policy.bound()
            cand = np.flatnonzero(qualified & (mindists < entry))
            if cand.size == 0:
                return
            dists = np.sqrt(
                kernels.window_kth_dsq(dsq, los[cand], his[cand], k))
            prev = np.minimum.accumulate(
                np.concatenate(([entry], dists)))[:-1]
            offered = np.flatnonzero(dists < prev)
            if offered.size == 0:
                return
            rank = kernels.rank_by_key(dsq, snap.oids)
            dlist = dists.tolist()
            for pos in offered.tolist():
                jj = int(cand[pos])
                sel = kernels.select_ranked(rank, int(los[jj]), int(his[jj]), n)
                objects = flat.objects_at(snap.cols[sel])
                window = sr.window_rect(frame, float(snap.ys[start + jj]))
                policy.offer(ObjectGroup(objects, dlist[pos], window),
                             (anchor, float(tops[jj])))
            return
        # kNWC (or unpruned) path: the policy bound moves in ways the
        # offer chain cannot precompute, so walk candidates sequentially
        # with live bound checks; distances are still batch-computed.
        idxs = np.flatnonzero(qualified)
        dlist = np.sqrt(
            kernels.window_kth_dsq(dsq, los[idxs], his[idxs], k)).tolist()
        mlist = mindists[idxs].tolist()
        rank = None
        for pos, jj in enumerate(idxs.tolist()):
            if prune_windows:
                bound = policy.bound()
                if mlist[pos] >= bound or dlist[pos] >= bound:
                    continue
            if rank is None:
                rank = kernels.rank_by_key(dsq, snap.oids)
            sel = kernels.select_ranked(rank, int(los[jj]), int(his[jj]), n)
            objects = flat.objects_at(snap.cols[sel])
            window = sr.window_rect(frame, float(snap.ys[start + jj]))
            policy.offer(ObjectGroup(objects, dlist[pos], window),
                         (anchor, float(tops[jj])))

    @staticmethod
    def _measure(
        q: NWCQuery, objects: tuple[PointObject, ...], dsqs: Sequence[float]
    ) -> float:
        """Cluster distance of a group; ``dsqs`` are the squared
        distances to ``q``, ascending (tie-broken by oid like
        ``objects``)."""
        measure = q.measure
        if measure is DistanceMeasure.MAX:
            return math.sqrt(dsqs[-1])
        if measure is DistanceMeasure.MIN:
            return math.sqrt(dsqs[0])
        if measure is DistanceMeasure.AVG:
            return sum(math.sqrt(d) for d in dsqs) / len(dsqs)
        return Rect.nearest_window_distance(objects, q.qx, q.qy, q.length, q.width)
