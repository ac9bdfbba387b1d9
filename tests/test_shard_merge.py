"""Property tests: the coordinator's staged scatter-gather merge is
bit-identical to the single-engine oracle.

The scatter is simulated in-process against real shard engines — the
same exchange the coordinator performs over TCP: for NWC, probe the
closest shard first, seed the fan-out with one ulp above its best and
skip shards whose x-band lower bound cannot beat it; for kNWC, drive
the coordinator's :class:`KNWCPager` through each shard's pages.
Randomized over partitions (including empty shards) and measures, for
both fresh-built and mmap-loaded shard engines.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core import NWCEngine
from repro.core.knwc import rank
from repro.core.measures import DistanceMeasure
from repro.core.query import KNWCQuery, NWCQuery
from repro.core.schemes import Scheme
from repro.geometry import Rect, make_points
from repro.index import RStarTree
from repro.shard import (
    KNWCPager,
    ShardManifest,
    make_shard_engine,
    merge_nwc,
    next_bound,
    partition_dataset,
    seedable,
    shard_lower_bound,
)
from tests.conftest import make_clustered_points, make_uniform_points

EXTENT = Rect(0, 0, 1000, 1000)
HALO = 40.0  # >= every query length issued below

POINT_MEASURES = (DistanceMeasure.MAX, DistanceMeasure.MIN,
                  DistanceMeasure.AVG)
ALL_MEASURES = POINT_MEASURES + (DistanceMeasure.NEAREST_WINDOW,)


def _group_key(group):
    return (tuple(sorted(group.oids)), group.distance,
            (group.window.x1, group.window.y1,
             group.window.x2, group.window.y2))


class World:
    """One dataset sharded one way, with its single-engine oracles."""

    def __init__(self, name, points, manifest: ShardManifest, engines):
        self.name = name
        self.points = points
        self.manifest = manifest
        self.engines = engines
        tree = RStarTree.bulk_load(points)
        # The pruned single engine and the unpruned baseline: one
        # answer order, so both are canonical (NEAREST_WINDOW aside,
        # whose pruned answers agree on distance only).
        self.oracle = NWCEngine(RStarTree.bulk_load(points),
                                scheme=Scheme.NWC_STAR, extent=EXTENT)
        self.baseline = NWCEngine(tree, scheme=Scheme.NWC, extent=EXTENT)

    # ------------------------------------------------------------------
    # The coordinator's staged exchange, in miniature
    # ------------------------------------------------------------------
    def scatter_nwc(self, query: NWCQuery):
        manifest = self.manifest
        bounds = [shard_lower_bound(query.qx, query.length,
                                    manifest.owned_interval(i))
                  for i in range(manifest.shard_count)]
        order = sorted(range(manifest.shard_count),
                       key=lambda i: (bounds[i], i))
        probe = order[0]
        winners = [self._nwc_page(probe, query, math.inf)]
        best, _ = merge_nwc(winners)
        seed = math.inf
        if best is not None and seedable(query.measure):
            seed = next_bound(best.distance)
        skipped = 0
        for i in order[1:]:
            if best is not None and bounds[i] > best.distance:
                skipped += 1
                continue
            winners.append(self._nwc_page(i, query, seed))
        merged, _ = merge_nwc(winners)
        return merged, skipped

    def _nwc_page(self, shard, query, ceiling):
        """Shard ``shard``'s ``nwc_scatter`` answer: ``(group, order)``."""
        page = self.engines[shard].knwc_candidates(
            query, 1, anchor_region=self.manifest.anchor_region(shard),
            ceiling=ceiling)
        if not page.groups:
            return None, None
        return page.groups[0], page.orders[0]

    def scatter_knwc(self, query: KNWCQuery):
        """The coordinator's paging loop against in-process shards:
        ``(groups, pages answered per shard)``."""
        manifest = self.manifest
        pager = KNWCPager(query, [manifest.owned_interval(i)
                                  for i in range(manifest.shard_count)])
        while pages := pager.requests():
            for i, (after, limit) in pages.items():
                page = self.engines[i].knwc_candidates(
                    query, limit, after=after,
                    anchor_region=manifest.anchor_region(i))
                pager.feed(i, page.groups, page.orders, page.exhausted)
        return pager.result(), pager.pages


def _build_world(name, tmp_path, points, shards, mode):
    manifest = partition_dataset(points, shards, HALO, tmp_path, EXTENT,
                                 cell_size=25.0)
    if mode == "mmap":
        engines = [make_shard_engine(manifest, str(tmp_path), i)
                   for i in range(shards)]
    else:
        engines = []
        for i in range(shards):
            lo, hi = manifest.stored_interval(i)
            stored = [p for p in points if lo <= p.x <= hi]
            tree = (RStarTree.bulk_load(stored) if stored else RStarTree())
            engines.append(NWCEngine(tree, scheme=Scheme.NWC_STAR,
                                     extent=EXTENT))
    return World(name, points, manifest, engines)


def _duplicated_points():
    """A cluster the two-shard cut runs through, every other point of it
    (and of a sparse background) twice: objects at equal coordinates
    are anchors at equal distances, which pop in heap-counter order."""
    rng = random.Random(91)
    coords = [(rng.gauss(500.0, 25.0), rng.gauss(500.0, 25.0))
              for _ in range(120)]
    coords += [(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
               for _ in range(60)]
    return make_points(coords + coords[::2])


WORLD_SPECS = [
    # (id, shards, mode, point factory)
    ("uniform-2-mmap", 2, "mmap",
     lambda: make_uniform_points(240, seed=7)),
    ("uniform-4-fresh", 4, "fresh",
     lambda: make_uniform_points(240, seed=21)),
    ("clustered-3-mmap", 3, "mmap",
     lambda: make_clustered_points(240, clusters=3, seed=33)),
    # All data in x <= 120 with 5 shards: several shards are empty.
    ("skewed-5-fresh", 5, "fresh",
     lambda: make_uniform_points(160, span=120.0, seed=55)),
    ("duplicates-2-fresh", 2, "fresh", _duplicated_points),
]


@pytest.fixture(scope="module", params=WORLD_SPECS,
                ids=[spec[0] for spec in WORLD_SPECS])
def world(request, tmp_path_factory):
    name, shards, mode, factory = request.param
    tmp = tmp_path_factory.mktemp(f"shards-{name}")
    return _build_world(name, tmp, factory(), shards, mode)


def _random_queries(world, rng, count):
    span = 1000.0 if world.points[0].x > 150 else 200.0
    for _ in range(count):
        yield (rng.uniform(0, span), rng.uniform(0, span),
               rng.uniform(15, 40), rng.uniform(10, 30), rng.randint(2, 4))


def test_nwc_point_measures_bit_identical(world):
    rng = random.Random(4242)
    found = 0
    for qx, qy, length, width, n in _random_queries(world, rng, 10):
        for measure in POINT_MEASURES:
            query = NWCQuery(qx, qy, length, width, n, measure)
            merged, _ = world.scatter_nwc(query)
            oracle = world.oracle.nwc(query)
            if oracle.group is None:
                assert merged is None
            else:
                found += 1
                assert merged is not None
                assert _group_key(merged) == _group_key(oracle.group)
    assert found > 0  # the trial set must actually exercise answers


def test_nwc_nearest_window_distance_exact(world):
    rng = random.Random(77)
    found = 0
    for qx, qy, length, width, n in _random_queries(world, rng, 10):
        query = NWCQuery(qx, qy, length, width, n,
                         DistanceMeasure.NEAREST_WINDOW)
        merged, _ = world.scatter_nwc(query)
        oracle = world.oracle.nwc(query)
        assert (merged is not None) == oracle.found
        if oracle.found:
            found += 1
            # Tie pick may differ (trajectory-dependent measure); the
            # repo-wide NEAREST_WINDOW convention is distance equality.
            assert merged.distance == oracle.distance
    assert found > 0


def test_knwc_matches_unpruned_baseline(world):
    rng = random.Random(990)
    deepest = 0
    nonempty = 0
    for qx, qy, length, width, n in _random_queries(world, rng, 8):
        for measure in ALL_MEASURES:
            k = rng.choice((1, 3, 8))
            m = rng.choice((0, n - 1))
            query = KNWCQuery.make(qx, qy, length, width, n, k, m, measure)
            merged, pages = world.scatter_knwc(query)
            deepest = max(deepest, *pages)
            canon = world.baseline.knwc(query)
            assert [_group_key(g) for g in merged] == \
                [_group_key(g) for g in canon.groups]
            if measure is not DistanceMeasure.NEAREST_WINDOW:
                # One answer order: the pruned engine agrees, ties and
                # windows included.
                assert world.oracle.knwc(query).groups == canon.groups
            nonempty += bool(canon.groups)
    assert nonempty > 0
    assert deepest > 1  # some shard must have been paged past its first page


def test_knwc_prune_skips_occur_without_breaking_identity(world):
    # A query hugging the left edge puts far shards' lower bounds above
    # the kth distance: those shards must never be asked for a page.
    # Skips are only *guaranteed* on dense uniform data with enough
    # shards (elsewhere the kth distance may legitimately reach every
    # band).
    if world.manifest.shard_count < 3:
        pytest.skip("needs enough shards for a far one to be skipped")
    rng = random.Random(11)
    skips = 0
    for _ in range(6):
        query = KNWCQuery.make(rng.uniform(0, 60), rng.uniform(0, 200),
                               30.0, 20.0, 2, 2, 1, DistanceMeasure.MAX)
        merged, pages = world.scatter_knwc(query)
        canon = world.baseline.knwc(query)
        assert [_group_key(g) for g in merged] == \
            [_group_key(g) for g in canon.groups]
        if len(merged) == query.k:
            far = [i for i in range(world.manifest.shard_count)
                   if shard_lower_bound(query.base.qx, query.base.length,
                                        world.manifest.owned_interval(i))
                   > merged[-1].distance]
            assert all(pages[i] == 0 for i in far)
            skips += len(far)
    if world.name == "uniform-4-fresh":
        assert skips > 0


@pytest.mark.parametrize("measure", ALL_MEASURES, ids=lambda m: m.value)
@pytest.mark.parametrize("spec", WORLD_SPECS[:2], ids=lambda s: s[0])
def test_pages_walk_the_unpruned_candidate_stream(spec, measure, tmp_path):
    """Paging one group at a time from no cursor until ``exhausted``
    yields exactly the unpruned baseline's full candidate stream of the
    shard's anchor band, in key order (ties, windows and order keys
    included), on an mmap-loaded and a fresh-built fleet.  (The sparse
    uniform worlds keep the walk short: each page is a fresh search.)"""
    name, shards, mode, factory = spec
    world = _build_world(name, tmp_path, factory(), shards, mode)
    rng = random.Random(313)
    walked = 0
    for qx, qy, length, width, n in _random_queries(world, rng, 2):
        query = KNWCQuery.make(qx, qy, length, width, n, 2, 0, measure)
        for i, engine in enumerate(world.engines):
            band = world.manifest.anchor_region(i)
            whole = world.baseline.knwc_candidates(query, 1 << 30,
                                                   anchor_region=band)
            assert whole.exhausted
            want = [(_group_key(g), order)
                    for g, order in zip(whole.groups, whole.orders)]
            got, after, exhausted = [], None, False
            while not exhausted:
                page = engine.knwc_candidates(query, 1, after=after,
                                              anchor_region=band)
                assert len(page.groups) <= 1
                exhausted = page.exhausted
                for group, order in zip(page.groups, page.orders):
                    got.append((_group_key(group), order))
                    after = rank(group, order)
                assert len(got) <= len(want)
            assert got == want
            walked += len(want)
    assert walked > 0


def test_duplicates_are_split_over_both_shards(tmp_path):
    """The duplicates world puts equal coordinates in both anchor bands,
    so both shards' streams hold equal-distance anchors."""
    points = _duplicated_points()
    world = _build_world("duplicates", tmp_path, points, 2, "fresh")
    count: dict[tuple[float, float], int] = {}
    for p in points:
        count[(p.x, p.y)] = count.get((p.x, p.y), 0) + 1
    for i in range(2):
        x1, y1, x2, y2 = world.manifest.anchor_region(i)
        assert any(n == 2 and x1 <= x < x2 and y1 <= y < y2
                   for (x, y), n in count.items())
