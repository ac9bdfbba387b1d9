"""The leaf-batched columnar loop against the scalar oracle.

``repro.core.columnar._leaf_table`` runs SRR, DEP, the window walk and the
below-``n`` test for all remaining objects of a leaf in one array pass;
a pop then only replays its row.  The contract is the one every
execution mode has: results, the full ``IOStats`` *and* the attribution
counters equal the scalar path's — here over every flag combination,
measure and entry point, on data built to hit the places where an array
pass could drift from the scalar code: duplicate coordinates, equal-y
ties inside one search region, points exactly on grid-cell and extent
edges, subnormal seeded bounds, and a bound that moves mid-leaf.

The second half runs the same contract on *dense* windows, where almost
every search region holds ``n`` members and the table's enumeration
floor answers a row from its counters: there the number of
``ColumnarSnapshot`` builds is part of the contract too — far below the
number of regions that enumerate, and the same whether or not a tracer
or a metrics registry is watching.

The third part runs it on *sparse* windows, where a query walks many
leaves before any group exists and the loop builds the tables of the
next leaves in the heap together, ahead of their pop: there the number
of tables built is part of the contract, and so is what happens to a
leaf prepared ahead that is then pruned, restamped or never reached.

The last part pins the *event-driven* frontier: only the rows that can
move the search go through the heap, every other row is charged as a
difference of running sums when its stream reaches its next event —
so the number of object entries popped is part of the contract, and so
are the places where a sum could be cut at the wrong row: equal
distances across leaves, rows dropped before a stream has a table, a
bound that is finite from the first pop, and a tracer, which turns
every window query into an event.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import math
import random
import types
from bisect import bisect_left, bisect_right

import pytest

import numpy as np

from repro.core import columnar as columnar_module
from repro.core import oracle as oracle_module
from repro.core import engine as engine_module
from repro.core import (
    DistanceMeasure,
    KNWCQuery,
    NWCEngine,
    NWCQuery,
    NWCResult,
    OptimizationFlags,
    Scheme,
    kernels,
)
from repro.geometry import PointObject, Rect, make_points
from repro.grid import DensityGrid, SubtreeCountIndex
from repro.index import RStarTree
from repro.obs import MetricsRegistry, QueryTracer, span_to_dict

EXTENT = Rect(0.0, 0.0, 500.0, 500.0)
CELL = 25.0


def _lattice_points(seed: int = 5, count: int = 420) -> list[PointObject]:
    """Points on a 12.5-unit lattice over the closed extent.

    Every second lattice line is a grid-cell edge (``CELL`` = 25), the
    outermost lines are the extent's own edges, and the lattice is
    coarse enough that duplicate points and equal-y rows are common.
    A sprinkle of off-lattice points keeps distances from all tying.
    """
    rng = random.Random(seed)
    coords = [(rng.randrange(41) * 12.5, rng.randrange(41) * 12.5)
              for _ in range(count)]
    coords += [(rng.uniform(0.0, 500.0), rng.uniform(0.0, 500.0))
               for _ in range(count // 6)]
    coords += [(0.0, 0.0), (500.0, 500.0), (0.0, 500.0), (500.0, 0.0),
               (250.0, 500.0), (500.0, 250.0)]
    return make_points(coords)


POINTS = _lattice_points()
#: On a lattice node, on a cell edge, off-lattice, and outside the data.
LOCATIONS = [(250.0, 250.0), (112.5, 387.5), (301.3, 148.9), (-20.0, 510.0)]
ALL_FLAGS = [OptimizationFlags(*bits)
             for bits in itertools.product((False, True), repeat=4)]
FLAG_IDS = ["".join(name for name, on in zip("SIEW", (f.srr, f.dip, f.dep, f.iwp))
                    if on) or "none" for f in ALL_FLAGS]


def _engine(flags, execution, tree=None, traced=False, grid=None):
    tree = tree or RStarTree.bulk_load(POINTS, max_entries=8)
    if grid is None and flags.dep:
        grid = DensityGrid.build(POINTS, EXTENT, CELL)
    return NWCEngine(tree, flags, grid=grid, execution=execution,
                     tracer=QueryTracer() if traced else None)


def _answer(result):
    return (result.found, result.distance if result.found else None,
            [p.oid for p in result.objects] if result.found else None)


def _nwc_page(engine, query, bound=None, anchor_region=None):
    """NWC's one-group page under the ceiling ``bound``: ``(result,
    order key)``."""
    page = engine.knwc_candidates(
        query, 1, anchor_region=anchor_region,
        ceiling=math.inf if bound is None else bound)
    return (NWCResult(group=page.groups[0] if page.groups else None,
                      stats=page.stats, reason=page.reason),
            page.orders[0] if page.orders else None)


def _pages(engine, query, limit, anchor):
    """Two consecutive kNWC candidate pages, the second after the first's
    last group: groups, order keys, ``exhausted``, ``IOStats`` and, on a
    traced engine, the attribution counts of each page."""
    pages, after = [], None
    for _ in range(2):
        page = engine.knwc_candidates(query, limit, after=after,
                                      anchor_region=anchor)
        pages.append(([g.oids for g in page.groups],
                      [g.distance for g in page.groups], page.orders,
                      page.exhausted, page.stats,
                      engine.tracer.last.counts if engine.tracer.enabled
                      else None))
        if page.groups:
            last = page.groups[-1]
            after = (last.distance, tuple(sorted(last.oids)))
    return pages


def _assert_same_nwc(oracle, columnar, query, **kwargs):
    a = oracle.nwc(query, **kwargs)
    b = columnar.nwc(query, **kwargs)
    assert _answer(a) == _answer(b)
    assert a.stats == b.stats
    if oracle.tracer.enabled:
        assert oracle.tracer.last.counts == columnar.tracer.last.counts
    return b


@pytest.mark.parametrize(
    "flags", ALL_FLAGS, ids=FLAG_IDS)
@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
def test_every_flag_combination_matches_the_oracle(flags, traced):
    oracle = _engine(flags, "python", traced=traced)
    columnar = _engine(flags, "columnar", traced=traced)
    for measure, n, (x, y) in itertools.product(
            DistanceMeasure, (1, 3, 8), LOCATIONS):
        _assert_same_nwc(oracle, columnar,
                         NWCQuery(x, y, 40.0, 30.0, n, measure))
    for measure in DistanceMeasure:
        query = KNWCQuery.make(250.0, 250.0, 40.0, 30.0, 3, 3, 1, measure)
        a, b = oracle.knwc(query), columnar.knwc(query)
        assert a.distances == b.distances
        assert [g.oids for g in a.groups] == [g.oids for g in b.groups]
        assert a.stats == b.stats


@pytest.mark.parametrize("scheme", [Scheme.NWC, Scheme.NWC_PLUS, Scheme.NWC_STAR])
@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
def test_constrained_region_matches_the_oracle(scheme, traced):
    oracle = _engine(scheme.flags, "python", traced=traced)
    columnar = _engine(scheme.flags, "columnar", traced=traced)
    # Edges on lattice lines: objects exactly on the boundary are inside.
    for region in (Rect(100.0, 100.0, 400.0, 362.5), Rect(0.0, 250.0, 250.0, 500.0)):
        for n, (x, y) in itertools.product((1, 3, 8), LOCATIONS):
            result = _assert_same_nwc(
                oracle, columnar, NWCQuery(x, y, 40.0, 30.0, n), region=region)
            if result.found:
                assert all(region.contains_object(p) for p in result.objects)


SEEDS = [None, 5e-324, 1e-310, 1e-200, 30.0, math.nextafter(45.0, math.inf)]


@pytest.mark.parametrize("scheme", [Scheme.NWC_PLUS, Scheme.NWC_STAR])
@pytest.mark.parametrize("bound", SEEDS, ids=[repr(b) for b in SEEDS])
def test_sharded_entry_points_match_the_oracle(scheme, bound):
    """``anchor_region`` + seeded bounds, down to subnormal seeds whose
    square underflows (the ``dy_budget <= 0`` branch of SRR)."""
    oracle = _engine(scheme.flags, "python")
    columnar = _engine(scheme.flags, "columnar")
    anchor = (100.0, 0.0, 262.5, 500.0)  # half-open, edges on lattice lines
    for measure, (x, y) in itertools.product(
            (DistanceMeasure.MAX, DistanceMeasure.AVG), LOCATIONS[:3]):
        query = NWCQuery(x, y, 40.0, 30.0, 3, measure)
        (a, a_order), (b, b_order) = (
            _nwc_page(engine, query, bound=bound, anchor_region=anchor)
            for engine in (oracle, columnar))
        assert _answer(a) == _answer(b)
        assert a_order == b_order
        assert a.stats == b.stats
        assert (_pages(oracle, KNWCQuery(query, 3, 1), 16, anchor)
                == _pages(columnar, KNWCQuery(query, 3, 1), 16, anchor))


def test_matches_the_oracle_after_interleaved_updates():
    """In-place table maintenance (inserts inside the grid extent), the
    dirty-grid rebuild (outside it) and the flat re-snapshot."""
    flags = Scheme.NWC_STAR.flags
    engines = [_engine(flags, mode, tree=RStarTree.bulk_load(POINTS, max_entries=8),
                       traced=True) for mode in ("python", "columnar")]
    rng = random.Random(17)
    live = list(POINTS)
    next_oid = 1_000_000
    for step in range(24):
        if step % 3 == 2:
            victim = live.pop(rng.randrange(len(live)))
            assert all(engine.delete(victim) for engine in engines)
        else:
            # On lattice lines (cell edges), occasionally off the extent.
            x = rng.randrange(-2, 44) * 12.5
            y = rng.randrange(41) * 12.5
            obj = PointObject(next_oid, x, y)
            next_oid += 1
            live.append(obj)
            for engine in engines:
                engine.insert(obj)
        x, y = rng.choice(LOCATIONS)
        _assert_same_nwc(*engines, NWCQuery(x, y, 40.0, 30.0, 3))


def test_duck_typed_dep_grid_uses_the_per_rectangle_fallback():
    flags = Scheme.NWC_STAR.flags
    engines = []
    for mode in ("python", "columnar"):
        tree = RStarTree.bulk_load(POINTS, max_entries=8)
        engines.append(_engine(flags, mode, tree=tree, traced=True,
                               grid=SubtreeCountIndex(tree)))
    assert not hasattr(engines[1].grid, "upper_bounds")
    for n, (x, y) in itertools.product((3, 8), LOCATIONS):
        _assert_same_nwc(*engines, NWCQuery(x, y, 40.0, 30.0, n))


def test_equal_y_ties_make_member_fetch_order_irrelevant():
    """The batched walk returns a region's members in another order
    than the scalar DFS stack.  Selection is by ``(distance, oid)`` and
    window spans are tie-inclusive, so the order cannot matter — pinned
    here on rows of equal y (and duplicate points) with shuffled oids."""
    rng = random.Random(3)
    coords = [(x * 5.0, y * 10.0) for x in range(12) for y in range(6)] * 2
    rng.shuffle(coords)
    points = make_points(coords)
    for flags in (Scheme.NWC.flags, Scheme.NWC_STAR.flags):
        engines = [NWCEngine(RStarTree.bulk_load(points, max_entries=6), flags,
                             grid_cell_size=10.0, execution=mode,
                             tracer=QueryTracer())
                   for mode in ("python", "columnar")]
        for measure, n in itertools.product(DistanceMeasure, (1, 4, 9)):
            _assert_same_nwc(*engines, NWCQuery(27.0, 24.0, 20.0, 20.0, n, measure))


def test_bound_moving_mid_leaf_restamps_the_table(monkeypatch):
    """A tight cluster next to ``q`` qualifies on the first pops of its
    leaf, so the offer lands while rows of that leaf are still to come:
    the table must be recomputed from the next row under the new bound,
    and SRR skips vs DEP cancels still split exactly as the oracle's."""
    cluster = [(200.0 + 0.5 * i, 200.0 + 0.25 * i) for i in range(4)]
    ring = [(200.0 + 9.0 * math.cos(a / 2.0), 200.0 + 9.0 * math.sin(a / 2.0))
            for a in range(12)]
    rng = random.Random(29)
    far = [(rng.uniform(0.0, 500.0), rng.uniform(0.0, 500.0)) for _ in range(80)]
    points = make_points(cluster + ring + far)
    builds = []
    original = columnar_module._leaf_table

    def recording(s, parts, bound, *rest):
        builds.extend((stream.leaf, start, bound) for stream, start in parts)
        return original(s, parts, bound, *rest)

    monkeypatch.setattr(columnar_module, "_leaf_table", recording)
    engines = [NWCEngine(RStarTree.bulk_load(points, max_entries=16),
                         Scheme.NWC_STAR, grid=DensityGrid.build(points, EXTENT, CELL),
                         execution=mode, tracer=QueryTracer())
               for mode in ("python", "columnar")]
    result = _assert_same_nwc(*engines, NWCQuery(200.4, 200.2, 6.0, 6.0, 4))
    assert result.found
    by_leaf: dict[int, list] = {}
    for leaf, start, bound in builds:
        by_leaf.setdefault(leaf, []).append((start, bound))
    restamped = [stamps for stamps in by_leaf.values() if len(stamps) > 1]
    assert any(stamps[-1][0] > 0 for stamps in restamped), \
        "no leaf table was recomputed mid-leaf"
    for stamps in restamped:
        starts = [start for start, _ in stamps]
        bounds = [bound for _, bound in stamps]
        # A leaf waiting with its head unpopped may be restamped at the
        # same row (in another leaf's group); it never goes back.
        assert starts == sorted(starts)
        assert bounds == sorted(set(bounds), reverse=True)  # the bound only drops
    counts = engines[1].tracer.last.counts
    assert counts["srr_objects_skipped"] > 0
    assert result.stats["window_queries_cancelled"] > 0


# ----------------------------------------------------------------------
# Dense windows: the enumeration floor
# ----------------------------------------------------------------------
def _dense_points(seed: int = 11) -> list[PointObject]:
    """~0.15 objects per unit area: a 20 x 15 window holds ~45.  Most
    points sit on a half-unit lattice (duplicates, equal-y rows), the
    rest are continuous."""
    rng = random.Random(seed)
    coords = [(rng.randrange(201) * 0.5, rng.randrange(201) * 0.5)
              for _ in range(900)]
    coords += [(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0))
               for _ in range(600)]
    return make_points(coords)


DENSE = _dense_points()
DENSE_EXTENT = Rect(0.0, 0.0, 100.0, 100.0)
LENGTH, WIDTH = 20.0, 15.0
#: Inside the data off the lattice (the leaf around q holds objects on
#: both sides of qy), on a lattice node, and outside the extent.
DENSE_LOCATIONS = [(41.3, 57.9), (50.0, 50.0), (-15.0, 30.2)]
NO_SRR = OptimizationFlags(srr=False, dip=True, dep=True, iwp=True)


def _dense_engine(flags, execution, points=DENSE, **observers):
    if isinstance(flags, Scheme):
        flags = flags.flags
    grid = DensityGrid.build(points, DENSE_EXTENT, 5.0) if flags.dep else None
    return NWCEngine(RStarTree.bulk_load(points, max_entries=12), flags,
                     grid=grid, execution=execution, **observers)


def _dense_pair(flags, points=DENSE):
    return [_dense_engine(flags, mode, points, tracer=QueryTracer())
            for mode in ("python", "columnar")]


@pytest.fixture
def builds(monkeypatch):
    """Sizes of the ``ColumnarSnapshot``s built, in order."""
    sizes = []
    original = kernels.ColumnarSnapshot.build.__func__

    def counting(cls, flat, cols, sy):
        sizes.append(len(cols))
        return original(cls, flat, cols, sy)

    monkeypatch.setattr(kernels.ColumnarSnapshot, "build", classmethod(counting))
    return sizes


@pytest.fixture
def enumerating(monkeypatch):
    """The oracle's window queries that found at least ``n`` members —
    the rows the columnar loop used to build one snapshot each for."""
    sizes = []
    original = oracle_module._enumerate_windows

    def counting(s, frame, sr, members, *args, **kwargs):
        if len(members) >= s.q.n:
            sizes.append(len(members))
        return original(s, frame, sr, members, *args, **kwargs)

    monkeypatch.setattr(oracle_module, "_enumerate_windows", counting)
    return sizes


def _assert_same_knwc(oracle, columnar, query, maintenance):
    a = oracle.knwc(query, maintenance=maintenance)
    b = columnar.knwc(query, maintenance=maintenance)
    assert a.distances == b.distances
    assert [g.oids for g in a.groups] == [g.oids for g in b.groups]
    assert a.stats == b.stats
    assert oracle.tracer.last.counts == columnar.tracer.last.counts
    return b


@pytest.mark.parametrize("flags", [Scheme.NWC_STAR, NO_SRR], ids=["star", "no-srr"])
@pytest.mark.parametrize("measure", list(DistanceMeasure),
                         ids=[m.name for m in DistanceMeasure])
def test_dense_windows_match_the_oracle(flags, measure, builds, enumerating):
    oracle, columnar = _dense_pair(flags)
    pruned = 0
    # n = 40 sits near a window's mean content, where one member more
    # or less at a window edge decides whether it qualifies.
    for n, (x, y) in itertools.product((1, 3, 8, 40), DENSE_LOCATIONS):
        _assert_same_nwc(oracle, columnar,
                         NWCQuery(x, y, LENGTH, WIDTH, n, measure))
        pruned += columnar.tracer.last.counts.get("windows_pruned_by_bound", 0)
    assert pruned > 0
    if measure in (DistanceMeasure.MAX, DistanceMeasure.MIN):
        assert len(builds) * 3 < len(enumerating)
    else:  # the floor bounds an order statistic: other measures enumerate
        assert sorted(builds) == sorted(enumerating)


@pytest.mark.parametrize("maintenance", ["exact", "paper"])
def test_dense_knwc_matches_the_oracle(maintenance, builds, enumerating):
    query = KNWCQuery.make(41.3, 57.9, LENGTH, WIDTH, 8, 3, 2)
    _assert_same_knwc(*_dense_pair(Scheme.NWC_STAR), query, maintenance)
    # Every row before the k-th group is found enumerates (bound = inf).
    assert len(builds) * 3 < len(enumerating) * 2
    # The baseline scheme evaluates every qualified window
    # (prune_windows is false): no row may be answered from the table.
    del builds[:], enumerating[:]
    _assert_same_knwc(*_dense_pair(Scheme.NWC), query, maintenance)
    assert sorted(builds) == sorted(enumerating)


def test_one_table_holds_both_frame_signs(monkeypatch):
    signs = []
    original = columnar_module._walk_rows

    def recording(s, table, rects, leaf, sy, *rest):
        original(s, table, rects, leaf, sy, *rest)
        if table.floors is not None:
            signs.append({s for s, floor in zip(sy.tolist(), table.floors)
                          if math.isfinite(floor)})

    monkeypatch.setattr(columnar_module, "_walk_rows", recording)
    for measure in (DistanceMeasure.MAX, DistanceMeasure.MIN):
        _assert_same_nwc(*_dense_pair(Scheme.NWC_STAR),
                         NWCQuery(41.3, 57.9, LENGTH, WIDTH, 8, measure))
    assert {1.0, -1.0} in signs


def test_distinct_y_rounding_to_one_frame_y(builds, enumerating):
    """Rows of objects one and two ulps apart in y, seen from a query
    point so far below that ``y - qy`` rounds them together: the
    snapshot orders them by real y, the table groups them by frame y."""
    rng = random.Random(23)
    coords = []
    for _ in range(320):
        y = float(rng.randrange(11))
        for _ in range(rng.randrange(3)):
            y = math.nextafter(y, math.inf)
        coords.append((rng.uniform(0.0, 40.0), y))
    points = make_points(coords)
    qy = -1000.25
    assert len({y - qy for _, y in coords}) < len({y for _, y in coords})
    for measure, n in itertools.product(DistanceMeasure, (3, 8, 36)):
        _assert_same_nwc(*_dense_pair(Scheme.NWC_PLUS, points),
                         NWCQuery(17.3, qy, 15.0, 3.0, n, measure))
    assert len(builds) < len(enumerating)


def test_dense_constrained_region_matches_the_oracle(builds, enumerating):
    engines = _dense_pair(Scheme.NWC_STAR)
    region = Rect(20.0, 35.5, 80.0, 90.0)  # edges on lattice lines
    for n, (x, y) in itertools.product((3, 8), DENSE_LOCATIONS):
        result = _assert_same_nwc(
            *engines, NWCQuery(x, y, LENGTH, WIDTH, n), region=region)
        assert result.found
        assert all(region.contains_object(p) for p in result.objects)
    assert len(builds) * 3 < len(enumerating)


def _first_floor(monkeypatch, flags, query, anchor):
    """``(floor, x, y)`` of the first row an unseeded columnar
    ``nwc`` page pops with a window query."""
    tables = []
    original = columnar_module._leaf_table

    def recording(s, parts, *rest):
        original(s, parts, *rest)
        tables.append((parts[0][0], parts[0][0].table, parts[0][0].base))

    with monkeypatch.context() as patch:
        patch.setattr(columnar_module, "_leaf_table", recording)
        _nwc_page(_dense_engine(flags, "columnar"),
                  query, anchor_region=anchor)
    stream, table, base = tables[0]
    at = next(i for i in range(-base, len(stream.xs))
              if table.slots[i + base] >= 0)
    floor = table.floors[table.slots[at + base]]
    assert math.isfinite(floor) and floor > 0.0
    return floor, stream.xs[at], stream.ys[at]


@pytest.mark.parametrize("flags", [Scheme.NWC_STAR, NO_SRR], ids=["star", "no-srr"])
def test_dense_sharded_entry_points_and_seeds(flags, monkeypatch):
    anchor = (10.0, 0.0, 60.5, 100.0)
    query = NWCQuery(41.3, 57.9, LENGTH, WIDTH, 8)
    # Without SRR a row does not depend on the bound, so the first
    # row's floor is a seed the search meets again, exactly.
    floor, px, py = _first_floor(monkeypatch, NO_SRR, query, anchor)
    generators = []
    original = columnar_module._enumerate_windows

    def recording(s, frame, sr, *args, **kwargs):
        generators.append((sr.px, sr.py))
        return original(s, frame, sr, *args, **kwargs)

    monkeypatch.setattr(columnar_module, "_enumerate_windows", recording)
    oracle = _dense_engine(flags, "python")
    columnar = _dense_engine(flags, "columnar")
    above = math.nextafter(floor, math.inf)
    for bound in (None, 5e-324, floor, above, 12.0):
        del generators[:]
        (a, a_order), (b, b_order) = (
            _nwc_page(engine, query, bound=bound, anchor_region=anchor)
            for engine in (oracle, columnar))
        assert _answer(a) == _answer(b)
        assert a_order == b_order
        assert a.stats == b.stats
        if flags is NO_SRR and bound in (floor, above):
            # floor >= bound answers the row from the table, as the
            # scalar loop's ``distance >= bound`` skips its every window.
            assert ((px, py) in generators) == (bound == above)
        assert (_pages(oracle, KNWCQuery(query, 3, 2), 12, anchor)
                == _pages(columnar, KNWCQuery(query, 3, 2), 12, anchor))


def test_dense_windows_after_interleaved_updates(builds, enumerating):
    engines = _dense_pair(Scheme.NWC_STAR)
    rng = random.Random(41)
    live = list(DENSE)
    next_oid = 2_000_000
    for step in range(18):
        if step % 3 == 2:
            victim = live.pop(rng.randrange(len(live)))
            assert all(engine.delete(victim) for engine in engines)
        else:
            obj = PointObject(next_oid, rng.randrange(-4, 205) * 0.5,
                              rng.randrange(201) * 0.5)
            next_oid += 1
            live.append(obj)
            for engine in engines:
                engine.insert(obj)
        x, y = DENSE_LOCATIONS[step % 3]
        _assert_same_nwc(*engines, NWCQuery(x, y, LENGTH, WIDTH, 8))
    assert len(builds) * 3 < len(enumerating)


def test_observers_do_not_change_which_code_answers(builds, monkeypatch):
    """No clock: with a registry, with a tracer and with neither, a
    query builds the same snapshots, makes the same ``select_ranked``
    calls and returns the same answer and counters — attribution reads
    the table and counts beside the kernel, it does not pick a loop."""
    selections = []
    select_ranked = kernels.select_ranked

    def counting(*args):
        selections.append(None)
        return select_ranked(*args)

    monkeypatch.setattr(kernels, "select_ranked", counting)
    engines = [_dense_engine(Scheme.NWC_STAR, "columnar", **observers)
               for observers in ({}, {"metrics": MetricsRegistry()},
                                 {"tracer": QueryTracer()})]
    queries = [NWCQuery(x, y, LENGTH, WIDTH, n, measure)
               for measure in (DistanceMeasure.MAX, DistanceMeasure.MIN)
               for n in (3, 8) for x, y in DENSE_LOCATIONS]
    for query in queries:
        seen = []
        for engine in engines:
            del builds[:], selections[:]
            result = engine.nwc(query)
            seen.append((_answer(result), result.stats, list(builds),
                         len(selections)))
        assert seen[0] == seen[1] == seen[2]
    knwc = KNWCQuery.make(41.3, 57.9, LENGTH, WIDTH, 8, 3, 2)
    seen = []
    for engine in engines:
        del builds[:], selections[:]
        result = engine.knwc(knwc)
        seen.append((result.distances, result.stats, list(builds),
                     len(selections)))
    assert seen[0] == seen[1] == seen[2]


def test_disabled_observers_cost_no_attribution_and_no_clock(monkeypatch):
    """No clock: with neither tracer nor registry a query builds no
    ``_Attribution`` and reads ``time.perf_counter`` 0 times; with a
    registry it builds one."""
    plain = _dense_engine(Scheme.NWC_STAR, "columnar")
    metered = _dense_engine(Scheme.NWC_STAR, "columnar",
                            metrics=MetricsRegistry())
    counts = {"attributions": 0, "clock": 0}
    attribution = engine_module._Attribution

    def counting_attribution():
        counts["attributions"] += 1
        return attribution()

    def counting_clock():
        counts["clock"] += 1
        return 0.0

    monkeypatch.setattr(engine_module, "_Attribution", counting_attribution)
    monkeypatch.setattr(engine_module, "time",
                        types.SimpleNamespace(perf_counter=counting_clock))
    query = NWCQuery(*DENSE_LOCATIONS[0], LENGTH, WIDTH, 8)
    plain.nwc(query)
    assert counts == {"attributions": 0, "clock": 0}
    metered.nwc(query)
    assert counts["attributions"] == 1


@pytest.mark.parametrize("budget", [1, 150, 1000])
def test_floor_work_in_passes_under_a_small_budget(monkeypatch, budget,
                                                   builds, enumerating):
    """``_FLOOR_BUDGET`` patched down: a pass per row (rows larger than
    the budget, repeated cuts), a few rows a pass, a few passes a table."""
    monkeypatch.setattr("repro.core.columnar._FLOOR_BUDGET", budget)
    engines = _dense_pair(Scheme.NWC_STAR)
    for measure, n in itertools.product(
            (DistanceMeasure.MAX, DistanceMeasure.MIN), (8, 40)):
        _assert_same_nwc(*engines, NWCQuery(41.3, 57.9, LENGTH, WIDTH, n, measure))
    assert len(builds) * 3 < len(enumerating)


def test_leaf_window_counts_equal_per_region_spans():
    rng = np.random.default_rng(7)
    levels = np.concatenate((rng.integers(0, 12, 30) * 0.5,
                             rng.uniform(-3.0, 6.0, 30), [-0.0, 0.0]))
    sizes = np.array([0, 1, 17, 40, 0, 9, 25])
    tys = rng.choice(levels, sizes.sum())
    counts = kernels.leaf_window_counts(tys, sizes, 1.5)
    at = 0
    for size in sizes.tolist():
        region = tys[at:at + size]
        order = np.argsort(region, kind="stable")
        _, _, los, his = kernels.window_spans(region[order], -np.inf, 1.5)
        assert counts[at:at + size][order].tolist() == (his - los).tolist()
        at += size


# ----------------------------------------------------------------------
# Sparse windows: tables built ahead of the pop
# ----------------------------------------------------------------------
SPARSE_EXTENT = Rect(0.0, 0.0, 1000.0, 1000.0)
SPARSE_LENGTH, SPARSE_WIDTH = 8.0, 6.0
#: Mid-data, near a corner, and outside the extent.
SPARSE_LOCATIONS = [(500.0, 500.0), (60.0, 130.0), (-40.0, 1010.0)]
NO_SRR_NO_DIP = OptimizationFlags(srr=False, dip=False, dep=True, iwp=True)


CLUSTERS = ((640.0, 610.0), (180.0, 820.0), (905.0, 95.0), (330.0, 240.0))


def _sparse_points(background: int = 520, clusters=CLUSTERS,
                   seed: int = 19) -> list[PointObject]:
    """A uniform background too thin to fill an 8 x 6 window (0.02
    objects a window at 520) and half-unit-lattice clusters of ten
    that do: a query pops leaf after leaf under an infinite bound, then
    finds a group far away."""
    rng = random.Random(seed)
    coords = [(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
              for _ in range(background)]
    for cx, cy in clusters:
        coords += [(cx + rng.randrange(9) * 0.5, cy + rng.randrange(7) * 0.5)
                   for _ in range(10)]
    return make_points(coords)


SPARSE = _sparse_points()


def _sparse_engine(flags, execution, points=SPARSE, **observers):
    if isinstance(flags, Scheme):
        flags = flags.flags
    grid = DensityGrid.build(points, SPARSE_EXTENT, CELL) if flags.dep else None
    return NWCEngine(RStarTree.bulk_load(points, max_entries=8), flags,
                     grid=grid, execution=execution, **observers)


def _sparse_pair(flags, points=SPARSE):
    return [_sparse_engine(flags, mode, points, tracer=QueryTracer())
            for mode in ("python", "columnar")]


def _sparse_query(x, y, n, measure=DistanceMeasure.MAX):
    return NWCQuery(x, y, SPARSE_LENGTH, SPARSE_WIDTH, n, measure)


class _Tables:
    """Every ``_leaf_table`` call of the columnar loop, in order:
    ``(bound, [(stream, start, ahead)])`` — ``ahead`` when the stream's
    leaf had not been popped yet."""

    def __init__(self, monkeypatch):
        self.builds = []
        original = columnar_module._leaf_table

        def recording(s, parts, bound, *rest):
            self.builds.append((bound, [(stream, start, stream.seq is None)
                                        for stream, start in parts]))
            return original(s, parts, bound, *rest)

        monkeypatch.setattr(columnar_module, "_leaf_table", recording)

    def clear(self):
        del self.builds[:]

    def parts(self):
        return [part for _, parts in self.builds for part in parts]

    def streams(self):
        return list({id(stream): stream for stream, _, _ in self.parts()}.values())

    def ahead(self):
        return list({id(stream): stream
                     for stream, _, ahead in self.parts() if ahead}.values())


@pytest.fixture
def tables(monkeypatch):
    return _Tables(monkeypatch)


@pytest.mark.parametrize(
    "flags", ALL_FLAGS, ids=FLAG_IDS)
@pytest.mark.parametrize("observer", ["plain", "traced", "registry"])
def test_sparse_every_flag_combination_matches_the_oracle(flags, observer, tables):
    observers = {"plain": dict, "traced": lambda: {"tracer": QueryTracer()},
                 "registry": lambda: {"metrics": MetricsRegistry()}}[observer]
    oracle = _sparse_engine(flags, "python", **observers())
    columnar = _sparse_engine(flags, "columnar", **observers())
    for measure, n, (x, y) in itertools.product(
            DistanceMeasure, (1, 3, 8), SPARSE_LOCATIONS[:2]):
        _assert_same_nwc(oracle, columnar, _sparse_query(x, y, n, measure))
    if observer == "registry":
        a, b = (engine.metrics.to_dict() for engine in (oracle, columnar))
        assert a["nwc_opt_events_total"] == b["nwc_opt_events_total"]
        assert a["nwc_query_node_accesses"] == b["nwc_query_node_accesses"]
    # The contract was checked on tables built ahead, not one at a time.
    assert tables.ahead()
    assert max(len(parts) for _, parts in tables.builds) > 2


def test_sparse_queries_build_few_tables(tables):
    """Clock-free budget: with the bound infinite for most of the
    search, a table serves a doubling number of leaves."""
    points = _sparse_points(background=2600, clusters=CLUSTERS[2:3])
    oracle, columnar = _sparse_pair(Scheme.NWC_STAR, points)
    for x, y in SPARSE_LOCATIONS:
        tables.clear()
        _assert_same_nwc(oracle, columnar, _sparse_query(x, y, 8))
        popped = [s for s in tables.streams() if s.seq is not None]
        assert len(tables.builds) * 3 < len(popped)
        # What is built in vain stays below what is used.
        assert len(tables.ahead()) - len(popped) < len(popped)


def test_a_first_leaf_that_offers_keeps_one_leaf_per_table(tables, monkeypatch):
    """Dense windows: the first leaf offers a group, the bound is finite
    from then on, and nothing is ever built ahead of its pop — the only
    table stamped ``inf`` holds one leaf, as in the one-leaf-at-a-time
    loop (the cap patched to 1), which also builds no fewer tables."""
    columnar = _dense_engine(Scheme.NWC_STAR, "columnar")
    for x, y in DENSE_LOCATIONS[:2] + [(80.2, 20.7)]:  # inside the data
        query = NWCQuery(x, y, LENGTH, WIDTH, 8)
        tables.clear()
        columnar.nwc(query)
        grouped = list(tables.builds)
        assert not tables.ahead()
        assert [len(parts) for bound, parts in grouped if bound == math.inf] == [1]
        # ... and the group starts over whenever the bound has moved.
        assert all(len(parts) == 1 for (before, _), (bound, parts)
                   in zip(grouped, grouped[1:]) if bound != before)
        with monkeypatch.context() as patch:
            patch.setattr(columnar_module, "_GROUP_CAP", 1)
            tables.clear()
            columnar.nwc(query)
        assert all(len(parts) == 1 for _, parts in tables.builds)
        assert (sum(bound == math.inf for bound, _ in tables.builds) == 1
                and len(grouped) <= len(tables.builds))


@pytest.mark.parametrize("flags,region,counter", [
    (OptimizationFlags(False, False, False, False),
     Rect(400.0, 380.0, 700.0, 650.0), None),
    (OptimizationFlags(False, False, True, False), None, "dep_nodes_pruned"),
    (OptimizationFlags(False, True, False, False), None, "dip_nodes_pruned"),
], ids=["region", "dep-node", "dip-after-the-bound-moved"])
def test_a_leaf_prepared_ahead_and_pruned_at_its_pop_charges_nothing(
        flags, region, counter, tables):
    """None of these schemes stops early, so a stream prepared ahead
    whose leaf never got its ``seq`` was dropped at its pop."""
    oracle, columnar = _sparse_pair(flags)
    dropped = 0
    for n, (x, y) in itertools.product((3, 8), SPARSE_LOCATIONS):
        tables.clear()
        kwargs = {} if region is None else {"region": region}
        _assert_same_nwc(oracle, columnar, _sparse_query(x, y, n), **kwargs)
        pruned = [s for s in tables.ahead() if s.seq is None]
        if counter is not None:
            assert len(pruned) <= columnar.tracer.last.counts.get(counter, 0)
        dropped += len(pruned)
    assert dropped > 0


def test_a_table_prepared_under_inf_restamps_under_srr(tables):
    oracle, columnar = _sparse_pair(Scheme.NWC_STAR)
    result = _assert_same_nwc(oracle, columnar, _sparse_query(500.0, 500.0, 8))
    assert result.found
    stamps: dict[int, list] = {}
    for bound, parts in tables.builds:
        for stream, start, ahead in parts:
            stamps.setdefault(id(stream), []).append((bound, ahead))
    # Prepared before its pop under inf, reached after the first offer.
    assert any(history[0] == (math.inf, True)
               and any(bound < math.inf for bound, _ in history[1:])
               for history in stamps.values())


def test_a_table_prepared_under_inf_is_kept_without_srr(tables):
    """Without SRR (and without DIP: every leaf is popped, every row
    replayed) no table is built twice, though the bound moves while
    leaves prepared under ``inf`` are still waiting — those beyond the
    answer's distance plus a window diagonal pop after the last offer."""
    oracle, columnar = _sparse_pair(NO_SRR_NO_DIP)
    query = _sparse_query(500.0, 500.0, 8)
    result = _assert_same_nwc(oracle, columnar, query)
    assert result.found
    assert len(tables.parts()) == len(tables.streams())
    late = [stream for bound, parts in tables.builds
            for stream, _, ahead in parts
            if ahead and bound == math.inf and stream.seq is not None
            and stream.dists[0] > result.distance + query.diagonal]
    assert late
    assert any(bound < math.inf for bound, _ in tables.builds)


@pytest.mark.parametrize("flags", [Scheme.NWC_STAR, NO_SRR], ids=["star", "no-srr"])
def test_sparse_sharded_entry_points_and_seeds(flags, tables):
    """A finite seed makes the rows depend on the bound from the first
    pop: under SRR nothing may be built ahead of its pop."""
    if isinstance(flags, Scheme):
        flags = flags.flags
    oracle = _sparse_engine(flags, "python")
    columnar = _sparse_engine(flags, "columnar")
    anchor = (250.0, 0.0, 700.5, 1000.0)
    query = _sparse_query(500.0, 500.0, 8)
    for bound in (None, 5e-324, 150.0, 400.0):
        tables.clear()
        (a, a_order), (b, b_order) = (
            _nwc_page(engine, query, bound=bound, anchor_region=anchor)
            for engine in (oracle, columnar))
        assert _answer(a) == _answer(b)
        assert a_order == b_order
        assert a.stats == b.stats
        if flags.srr:
            assert bool(tables.ahead()) == (bound is None)
        elif bound in (None, 400.0):  # (a small seed leaves DIP one leaf)
            assert tables.ahead()
        assert (_pages(oracle, KNWCQuery(query, 2, 2), 8, anchor)
                == _pages(columnar, KNWCQuery(query, 2, 2), 8, anchor))


def test_sparse_windows_after_interleaved_updates(tables):
    """The flat snapshot is rebuilt between queries: a stream prepared
    for one query must not live into the next."""
    engines = _sparse_pair(Scheme.NWC_STAR)
    rng = random.Random(43)
    live = list(SPARSE)
    next_oid = 3_000_000
    ahead = 0
    for step in range(15):
        if step % 3 == 2:
            victim = live.pop(rng.randrange(len(live)))
            assert all(engine.delete(victim) for engine in engines)
        else:
            obj = PointObject(next_oid, rng.uniform(-20.0, 1020.0),
                              rng.uniform(0.0, 1000.0))
            next_oid += 1
            live.append(obj)
            for engine in engines:
                engine.insert(obj)
        x, y = SPARSE_LOCATIONS[step % 3]
        tables.clear()
        _assert_same_nwc(*engines, _sparse_query(x, y, 8))
        ahead += len(tables.ahead())
        tables.clear()
        gc.collect()
        assert not any(isinstance(found, columnar_module._LeafStream)
                       for found in gc.get_objects())
    assert ahead > 0


@pytest.mark.parametrize("cap", [1, 2, 1000])
def test_group_cap_changes_no_answer_and_no_counter(monkeypatch, cap, tables):
    monkeypatch.setattr(columnar_module, "_GROUP_CAP", cap)
    for flags in (Scheme.NWC_STAR, NO_SRR):
        oracle, columnar = _sparse_pair(flags)
        for n, (x, y) in itertools.product((3, 8), SPARSE_LOCATIONS):
            _assert_same_nwc(oracle, columnar, _sparse_query(x, y, n))
    assert max(len(parts) for _, parts in tables.builds) <= cap
    assert (cap == 1) == (not tables.ahead())


# ----------------------------------------------------------------------
# Events only: what goes through the heap, and where the sums are cut
# ----------------------------------------------------------------------
@pytest.fixture
def object_pops(monkeypatch):
    """The object entries the columnar loop takes off its heap, in
    order (``heapq`` as :mod:`repro.core.columnar` sees it)."""
    popped = []
    shim = types.SimpleNamespace(**vars(heapq))

    def heappop(heap):
        entry = heapq.heappop(heap)
        if entry[1] == 1:
            popped.append(entry)
        return entry

    shim.heappop = heappop
    monkeypatch.setattr(columnar_module, "heapq", shim)
    return popped


def _count_visits(monkeypatch, oracle):
    """Objects the scalar loop takes off its iterator, one list item each."""
    visits = []
    original = oracle.tree.incremental_nearest

    def counting(*args, **kwargs):
        for item in original(*args, **kwargs):
            visits.append(item[1])
            yield item

    monkeypatch.setattr(oracle.tree, "incremental_nearest", counting)
    return visits


def test_only_events_go_through_the_heap(tables, object_pops, monkeypatch):
    """The pop gate, clock-free: a stream enters the heap once, then
    only for a row that may offer, for the SRR stop and once per
    restamp — a small share of the objects the oracle visits, whose
    every pop the loop used to replay."""
    points = _sparse_points(background=2600, clusters=CLUSTERS[2:3])
    oracle = _sparse_engine(Scheme.NWC_STAR, "python", points)
    columnar = _sparse_engine(Scheme.NWC_STAR, "columnar", points)
    visits = _count_visits(monkeypatch, oracle)
    enumerations = []
    original = columnar_module._enumerate_windows

    def counting(s, *args, **kwargs):
        enumerations.append(args[1])
        return original(s, *args, **kwargs)

    monkeypatch.setattr(columnar_module, "_enumerate_windows", counting)
    for x, y in SPARSE_LOCATIONS:
        tables.clear()
        del object_pops[:], visits[:], enumerations[:]
        result = _assert_same_nwc(oracle, columnar, _sparse_query(x, y, 8))
        assert result.found
        entered = [s for s in tables.streams() if s.seq is not None]
        restamps = len(tables.parts()) - len(tables.streams())
        events = len(enumerations) + 1  # the rows that may offer, the stop
        assert len(object_pops) <= len(entered) + events + restamps
        assert len(object_pops) * 10 < len(visits)


def _mirrored_points(seed: int = 7) -> list[PointObject]:
    """A thinned lattice and two tight clusters in one quadrant,
    mirrored about ``(50, 50)`` in x, in y and in both: seen from
    there, every object has three twins at exactly its distance, in
    leaves of their own."""
    rng = random.Random(seed)
    quadrant = [(1.5 + 3.0 * i, 1.5 + 3.0 * j)
                for i in range(16) for j in range(16) if rng.random() < 0.45]
    for cx, cy in ((19.5, 13.5), (31.5, 34.5)):
        quadrant += [(cx + 0.5 * a, cy + 0.5 * b)
                     for a in range(2) for b in range(2)]
    return make_points([(50.0 + sx * x, 50.0 + sy * y) for x, y in quadrant
                        for sx in (1.0, -1.0) for sy in (1.0, -1.0)])


def test_equal_distances_across_leaves_are_cut_by_seq(monkeypatch):
    """The rows charged at a move of the bound, and at the SRR stop,
    are those keyed below the moving / stopping row's heap key
    ``(dist, seq + i)`` — not those nearer than it: a twin at the same
    distance in a leaf popped earlier has been passed, one in a leaf
    popped later has not.  Full ``IOStats`` and attribution equal the
    oracle's, with twins on both sides of a move and beyond the stop."""
    points = _mirrored_points()
    cuts = []  # (key the sums are cut at, side of a stream with a twin)
    original = columnar_module._LeafStream.first_after

    def recording(stream, dist, seq):
        dists = stream.dists
        twin = (bisect_right(dists, dist, stream.at)
                > bisect_left(dists, dist, stream.at))
        if twin and seq < stream.seq:
            cuts.append(((dist, seq), "later"))
        elif twin and seq >= stream.seq + len(dists):
            cuts.append(((dist, seq), "earlier"))
        else:
            cuts.append(((dist, seq), None))
        return original(stream, dist, seq)

    monkeypatch.setattr(columnar_module._LeafStream, "first_after", recording)
    engines = [NWCEngine(RStarTree.bulk_load(points, max_entries=8),
                         Scheme.NWC_STAR,
                         grid=DensityGrid.build(points, Rect(0, 0, 100, 100), 5.0),
                         execution=mode, metrics=MetricsRegistry())
               for mode in ("python", "columnar")]
    at_moves, at_stops = set(), set()
    for measure, n, (length, width) in itertools.product(
            DistanceMeasure, (3, 6), ((4.0, 4.0), (8.0, 5.0))):
        del cuts[:]
        result = _assert_same_nwc(
            *engines, NWCQuery(50.0, 50.0, length, width, n, measure))
        assert result.found
        a, b = (engine.metrics.to_dict() for engine in engines)
        assert a["nwc_opt_events_total"] == b["nwc_opt_events_total"]
        assert b["nwc_opt_events_total"]["values"]  # attribution was on
        stop = cuts[-1][0]
        at_moves |= {side for key, side in cuts if key != stop}
        at_stops |= {side for key, side in cuts if key == stop}
    assert at_moves == {"earlier", "later", None}
    # (An earlier leaf's twin of the stopping row would have stopped first.)
    assert at_stops == {"later", None}


@pytest.mark.parametrize("scheme", [Scheme.NWC, Scheme.NWC_STAR])
def test_rows_dropped_before_the_first_table_keep_the_stream_going(scheme, tables):
    """A stream whose nearest rows lie outside ``region`` /
    ``anchor_region`` drops them before it has a table: its next row is
    an event all the same, or the stream would never be heard of again."""
    oracle = _engine(scheme.flags, "python")
    columnar = _engine(scheme.flags, "columnar")
    late = 0
    for (x, y), n in itertools.product(LOCATIONS, (1, 3)):
        query = NWCQuery(x, y, 40.0, 30.0, n)
        for kwargs in ({"region": Rect(130.0, 120.0, 400.0, 362.5)},
                       {"anchor_region": (130.0, 0.0, 262.5, 500.0)}):
            tables.clear()
            if "region" in kwargs:
                _assert_same_nwc(oracle, columnar, query, **kwargs)
            else:
                (a, a_order), (b, b_order) = (
                    _nwc_page(engine, query, **kwargs)
                    for engine in (oracle, columnar))
                assert _answer(a) == _answer(b)
                assert a_order == b_order
                assert a.stats == b.stats
            first = {}
            for stream, start, _ in tables.parts():
                first.setdefault(id(stream), start)
            late += sum(start > 0 for start in first.values())
    assert late > 0


EVENT_SCHEMES = [Scheme.NWC_STAR.flags, NO_SRR, Scheme.NWC.flags]


@pytest.mark.parametrize("flags", EVENT_SCHEMES, ids=["star", "no-srr", "baseline"])
def test_a_bound_finite_from_the_first_pop(flags, object_pops):
    """Seeded bounds, page sizes and both kNWC policies on the sparse
    fixture, under SRR (every move of the bound re-keys the frontier),
    without it (no table reads the bound, the pop compares a row's
    floor with the bound of its day) and with no optimization at all:
    results, ``IOStats`` and attribution equal the oracle's, and the
    rows in between still stay out of the heap."""
    oracle, columnar = _sparse_pair(flags)
    plain = _sparse_engine(flags, "columnar")
    anchor = (250.0, 0.0, 700.5, 1000.0)
    query = _sparse_query(500.0, 500.0, 8)
    for bound in (150.0, 400.0):
        (a, a_order), (b, b_order) = (
            _nwc_page(engine, query, bound=bound, anchor_region=anchor)
            for engine in (oracle, columnar))
        assert _answer(a) == _answer(b)
        assert a_order == b_order
        assert a.stats == b.stats
        assert oracle.tracer.last.counts == columnar.tracer.last.counts
        for limit in (1, 4):
            assert (_pages(oracle, KNWCQuery(query, 2, 2), limit, anchor)
                    == _pages(columnar, KNWCQuery(query, 2, 2), limit, anchor))
    for maintenance, (k, m) in itertools.product(
            ("exact", "paper"), ((2, 0), (3, 2))):
        knwc = KNWCQuery.make(640.0, 600.0, SPARSE_LENGTH, SPARSE_WIDTH, 4, k, m)
        expected = _assert_same_knwc(oracle, columnar, knwc, maintenance)
        del object_pops[:]
        result = plain.knwc(knwc, maintenance=maintenance)
        assert result.stats == expected.stats
        assert len(object_pops) * 2 < len(SPARSE)


def _span_tree(span):
    """A span subtree without its clock readings and ``execution``
    attribute."""
    tree = span_to_dict(span)

    def strip(node):
        del node["duration_s"]
        node["attrs"] = {key: value for key, value in node["attrs"].items()
                         if key != "execution"}
        for child in node["children"]:
            strip(child)
        return node

    return strip(tree)


@pytest.mark.parametrize("flags", EVENT_SCHEMES, ids=["star", "no-srr", "baseline"])
def test_a_tracer_makes_every_window_query_an_event(flags, object_pops):
    """Spans open in pop order, so with a tracer every row that issues
    a window query goes through the heap: the span list, each span's
    I/O delta and the root's attribution counts equal the oracle's —
    while the rows that issue none (SRR skips, DEP cancels, dropped
    rows) are still charged in sums, to the ``search`` span."""
    oracle, columnar = _sparse_pair(flags)
    for n, (x, y) in itertools.product((3, 8), SPARSE_LOCATIONS[:2]):
        del object_pops[:]
        result = _assert_same_nwc(oracle, columnar, _sparse_query(x, y, n))
        a, b = _span_tree(oracle.tracer.last), _span_tree(columnar.tracer.last)
        assert a == b
        assert a["io"] == {k: v for k, v in result.stats.items() if v}
        queries = result.stats["window_queries"]
        assert queries <= len(object_pops)
        if flags.dep:  # cancelled rows open no span
            assert result.stats["window_queries_cancelled"] > 0
    knwc = KNWCQuery.make(640.0, 600.0, SPARSE_LENGTH, SPARSE_WIDTH, 4, 2, 0)
    _assert_same_knwc(oracle, columnar, knwc, "exact")
    assert _span_tree(oracle.tracer.last) == _span_tree(columnar.tracer.last)
