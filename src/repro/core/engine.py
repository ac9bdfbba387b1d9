"""The NWC / kNWC query engine (Algorithm 1 with Sections 3.3-3.4).

One engine instance binds a tree, a scheme (Table 3) and — when the
scheme needs them — the density grid (DEP) and the pointer index (IWP).
This module is the API: updates, the entry points (:meth:`NWCEngine.nwc`,
:meth:`~NWCEngine.knwc`, :meth:`~NWCEngine.knwc_candidates`) and the
observers around a search.  The search itself exists twice, over one
per-query :class:`_Search`: :mod:`repro.core.oracle` runs Algorithm 1
line by line (``execution="python"``), :mod:`repro.core.columnar` runs
it leaf-batched over the flat index (``execution="columnar"``, the
default); both return bit-identical answers and counters.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

from ..geometry import PointObject, Rect
from ..grid import DensityGrid
from ..index import FlatIWP, FlatRTree, IWPIndex, RStarTree
from ..obs.metrics import DEFAULT_WORK_BUCKETS, MetricsRegistry
from ..obs.trace import ATTRIBUTION_KEYS, NULL_TRACER
from ..storage import IOStats
from . import columnar, oracle
from .errors import EngineConfigError
from .knwc import (ROUNDING_MARGIN, CandidatePool, KNWCCandidates, Rank,
                   make_policy)
from .measures import DistanceMeasure
from .query import KNWCQuery, NWCQuery
from .results import KNWCResult, NWCResult
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
    it.  It counts what the search does; it never picks which code runs.
    """

    __slots__ = tuple(key for key, _ in ATTRIBUTION_KEYS)

    def __init__(self) -> None:
        for key in self.__slots__:
            setattr(self, key, 0)

    def nonzero(self) -> dict[str, int]:
        return {key: value for key in self.__slots__
                if (value := getattr(self, key))}


@dataclass(slots=True)
class _Search:
    """One query's search, built once by :meth:`NWCEngine._search` and
    read by every function of :mod:`~repro.core.oracle` and
    :mod:`~repro.core.columnar`: the query ``q``, the result
    ``policy``, its counters ``stats`` and — observed — ``attr``, the
    ``tracer``, the member constraint ``region``, the half-open
    ``anchor_region`` band, whether windows ``prune`` on the bound, and the
    structures the search reads, taken at its start."""

    q: NWCQuery
    policy: object
    stats: IOStats
    attr: _Attribution | None
    tracer: object
    region: Rect | None
    anchor_region: tuple[float, float, float, float] | None
    prune: bool
    flags: OptimizationFlags
    grid: DensityGrid | None
    tree: RStarTree
    iwp: IWPIndex | None
    flat: FlatRTree | None
    flat_iwp: FlatIWP | None

    def measure(self, objects: tuple[PointObject, ...],
                dsqs: Sequence[float]) -> float:
        """Cluster distance of a group; ``dsqs`` are the squared
        distances to ``q``, ascending (tie-broken by oid like
        ``objects``)."""
        q = self.q
        measure = q.measure
        if measure is DistanceMeasure.MAX:
            return math.sqrt(dsqs[-1])
        if measure is DistanceMeasure.MIN:
            return math.sqrt(dsqs[0])
        if measure is DistanceMeasure.AVG:
            return sum(math.sqrt(d) for d in dsqs) / len(dsqs)
        return Rect.nearest_window_distance(objects, q.qx, q.qy, q.length,
                                            q.width)


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
    # Observers and the search
    # ------------------------------------------------------------------
    def _observed_search(self, kind: str, q: NWCQuery, policy, stats: IOStats,
                         prune_windows: bool, region: Rect | None = None,
                         anchor_region=None, **extra_attrs) -> None:
        """Run :meth:`_search` under the configured tracer/registry.

        The fast path — no tracer, no registry — is a two-attribute
        check and a plain ``_search`` call: no attribution is built and
        no clock is read.  Observed, the same search runs and counts
        into an :class:`_Attribution`.
        """
        tracer = self.tracer
        metrics = self.metrics
        if not tracer.enabled and metrics is None:
            self._search(q, policy, stats, prune_windows, region, anchor_region)
            return
        attr = _Attribution()
        start = time.perf_counter()
        root = None
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
        """One search, charging ``stats``, inside the ``search`` span:
        the oracle's or the columnar one, over one :class:`_Search`."""
        flat, flat_iwp = self._refresh_structures()
        s = _Search(q, policy, stats, attr, self.tracer, region,
                    anchor_region, prune_windows, self.flags, self.grid,
                    self.tree, self.iwp, flat, flat_iwp)
        search = (columnar._search_loop if self.execution == "columnar"
                  else oracle._search_loop)
        span = s.tracer.start_span("search")
        try:
            search(s)
        finally:
            s.tracer.end_span(span)
