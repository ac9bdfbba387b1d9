"""The leaf-batched columnar loop against the scalar oracle.

``NWCEngine._leaf_table`` runs SRR, DEP, the window walk and the
below-``n`` test for all remaining objects of a leaf in one array pass;
a pop then only replays its row.  The contract is the one every
execution mode has: results, the full ``IOStats`` *and* the attribution
counters equal the scalar path's — here over every flag combination,
measure and entry point, on data built to hit the places where an array
pass could drift from the scalar code: duplicate coordinates, equal-y
ties inside one search region, points exactly on grid-cell and extent
edges, subnormal seeded bounds, and a bound that moves mid-leaf.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from repro.core import (
    DistanceMeasure,
    KNWCQuery,
    NWCEngine,
    NWCQuery,
    OptimizationFlags,
    Scheme,
)
from repro.geometry import PointObject, Rect, make_points
from repro.grid import DensityGrid, SubtreeCountIndex
from repro.index import RStarTree
from repro.obs import QueryTracer

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


def _engine(flags, execution, tree=None, traced=False, grid=None):
    tree = tree or RStarTree.bulk_load(POINTS, max_entries=8)
    if grid is None and flags.dep:
        grid = DensityGrid.build(POINTS, EXTENT, CELL)
    return NWCEngine(tree, flags, grid=grid, execution=execution,
                     tracer=QueryTracer() if traced else None)


def _answer(result):
    return (result.found, result.distance if result.found else None,
            [p.oid for p in result.objects] if result.found else None)


def _assert_same_nwc(oracle, columnar, query, **kwargs):
    a = oracle.nwc(query, **kwargs)
    b = columnar.nwc(query, **kwargs)
    assert _answer(a) == _answer(b)
    assert a.stats == b.stats
    if oracle.tracer.enabled:
        assert oracle.tracer.last.counts == columnar.tracer.last.counts
    return b


@pytest.mark.parametrize(
    "flags", ALL_FLAGS,
    ids=["".join(name for name, on in zip(("S", "I", "E", "W"), (
        f.srr, f.dip, f.dep, f.iwp)) if on) or "none" for f in ALL_FLAGS])
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
            engine.nwc_ordered(query, bound=bound, anchor_region=anchor)
            for engine in (oracle, columnar))
        assert _answer(a) == _answer(b)
        assert a_order == b_order
        assert a.stats == b.stats
        pools = []
        for engine in (oracle, columnar):
            pool = engine.knwc_candidates(
                KNWCQuery(query, 3, 1), 16, bound=bound, anchor_region=anchor)
            pools.append(([g.oids for g in pool.groups],
                          [g.distance for g in pool.groups], pool.orders,
                          pool.horizon, engine.tree.stats.snapshot()))
        assert pools[0] == pools[1]


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
    original = NWCEngine._leaf_table

    def recording(self, q, stream, start, bound, region):
        builds.append((stream.leaf, start, bound))
        return original(self, q, stream, start, bound, region)

    monkeypatch.setattr(NWCEngine, "_leaf_table", recording)
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
    assert restamped, "no leaf table was recomputed mid-leaf"
    for stamps in restamped:
        starts = [start for start, _ in stamps]
        bounds = [bound for _, bound in stamps]
        assert starts == sorted(set(starts)) and starts[-1] > 0
        assert bounds == sorted(set(bounds), reverse=True)  # the bound only drops
    counts = engines[1].tracer.last.counts
    assert counts["srr_objects_skipped"] > 0
    assert result.stats["window_queries_cancelled"] > 0
