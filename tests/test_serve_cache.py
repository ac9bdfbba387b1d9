"""Unit tests for the serving result cache and its protocol helpers:
shield-radius derivation, targeted invalidation, LRU/TTL hygiene and
the deterministic wire serialization the cache's correctness rests on."""

from __future__ import annotations

import json
import math
import random
from collections import OrderedDict

import pytest

from repro.core import (
    DistanceMeasure,
    KNWCQuery,
    NWCEngine,
    NWCQuery,
    Scheme,
)
from repro.index import RStarTree
from repro.obs.metrics import MetricsRegistry
from repro.serve import protocol
from repro.serve.cache import ResultCache
from repro.sub.index import SubscriptionIndex
from tests.conftest import make_uniform_points


def _put(cache, key, version=0, qx=0.0, qy=0.0, n=3,
         insert_radius=100.0, delete_radius=100.0, payload=None):
    cache.put(key, version, payload or {"k": key}, qx, qy, n,
              insert_radius, delete_radius)


class TestLookup:
    def test_hit_requires_matching_version(self):
        cache = ResultCache()
        _put(cache, "a", version=3)
        assert cache.get("a", 3) == {"k": "a"}
        assert cache.get("a", 4) is None  # evicts
        assert cache.get("a", 3) is None
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 2 and stats.invalidated == 1

    def test_ttl_expiry_with_injected_clock(self):
        now = [0.0]
        cache = ResultCache(ttl_s=5.0, clock=lambda: now[0])
        _put(cache, "a")
        now[0] = 4.9
        assert cache.get("a", 0) is not None
        now[0] = 5.1
        assert cache.get("a", 0) is None
        assert cache.stats().expired == 1

    def test_lru_evicts_least_recent(self):
        cache = ResultCache(max_entries=2)
        _put(cache, "a")
        _put(cache, "b")
        assert cache.get("a", 0) is not None  # refresh a
        _put(cache, "c")  # evicts b
        assert cache.get("b", 0) is None
        assert cache.get("a", 0) is not None
        assert cache.get("c", 0) is not None
        assert cache.stats().evicted == 1

    def test_zero_capacity_disables_caching(self):
        cache = ResultCache(max_entries=0)
        _put(cache, "a")
        assert len(cache) == 0 and cache.get("a", 0) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=-1)
        with pytest.raises(ValueError):
            ResultCache(ttl_s=0.0)


class TestTargetedInvalidation:
    def test_far_update_carries_entry_forward(self):
        cache = ResultCache()
        _put(cache, "a", version=0, qx=0.0, qy=0.0, insert_radius=50.0,
             delete_radius=50.0)
        cache.note_insert(100.0, 0.0, new_version=1)
        assert cache.get("a", 1) == {"k": "a"}  # survived, at new version
        assert cache.stats().carried == 1

    def test_near_update_invalidates(self):
        cache = ResultCache()
        _put(cache, "a", insert_radius=50.0)
        cache.note_insert(30.0, 40.0, new_version=1)  # dist 50 == radius
        assert cache.get("a", 1) is None
        assert cache.stats().invalidated == 1

    def test_boundary_is_strict(self):
        # Exactly on the shield means "could tie" -> must invalidate.
        cache = ResultCache()
        _put(cache, "on", insert_radius=50.0)
        _put(cache, "out", insert_radius=49.9999)
        cache.note_insert(50.0, 0.0, new_version=1)
        assert cache.get("on", 1) is None
        assert cache.get("out", 1) is not None

    def test_insert_and_delete_radii_independent(self):
        cache = ResultCache()
        _put(cache, "a", insert_radius=protocol.ALWAYS_INVALIDATE,
             delete_radius=protocol.NEVER_INVALIDATE)
        cache.note_delete(0.0, 0.0, new_version=1, new_size=100)
        assert cache.get("a", 1) is not None  # deletes can't touch it
        cache.note_insert(1e9, 1e9, new_version=2)
        assert cache.get("a", 2) is None  # any insert kills it

    def test_delete_below_group_size_invalidates(self):
        # A cached "n exceeds dataset size" flip: the shrunk dataset can
        # no longer hold n objects, so the answer's reason would change.
        cache = ResultCache()
        _put(cache, "a", n=5, delete_radius=protocol.NEVER_INVALIDATE)
        cache.note_delete(1e9, 1e9, new_version=1, new_size=4)
        assert cache.get("a", 1) is None

    def test_metrics_layer_serve(self):
        reg = MetricsRegistry()
        cache = ResultCache(metrics=reg)
        _put(cache, "a")
        cache.get("a", 0)
        cache.get("zz", 0)
        values = reg.to_dict()["nwc_cache_events_total"]["values"]
        assert values['{layer="serve",outcome="hit"}'] == 1
        assert values['{layer="serve",outcome="miss"}'] == 1


class TestShieldRadii:
    def test_found_nwc_uses_distance_plus_two_diagonals(self):
        query = NWCQuery(0, 0, 30, 40, 3)  # diagonal 50
        engine = _tiny_engine()
        result = engine.nwc(query)
        assert result.found
        ins, dele = protocol.shield_radii_nwc(query, result)
        assert ins == dele == result.distance + 2.0 * query.diagonal

    def test_not_found_nwc(self):
        query = NWCQuery(0, 0, 1, 1, 30)
        engine = _tiny_engine()
        result = engine.nwc(query)
        assert not result.found
        ins, dele = protocol.shield_radii_nwc(query, result)
        assert ins == protocol.ALWAYS_INVALIDATE
        assert dele == protocol.NEVER_INVALIDATE

    def test_full_knwc_uses_worst_group(self):
        query = KNWCQuery.make(400, 400, 120, 120, 2, 2, 1)
        engine = _tiny_engine()
        result = engine.knwc(query)
        assert len(result.groups) == query.k
        ins, dele = protocol.shield_radii_knwc(query, result)
        worst = max(g.distance for g in result.groups)
        assert ins == dele == worst + 2.0 * query.base.diagonal

    def test_partial_knwc_always_invalidates(self):
        query = KNWCQuery.make(400, 400, 120, 120, 2, 50, 0)
        engine = _tiny_engine()
        result = engine.knwc(query)
        assert 0 < len(result.groups) < query.k
        assert protocol.shield_radii_knwc(query, result) == (
            protocol.ALWAYS_INVALIDATE, protocol.ALWAYS_INVALIDATE
        )

    def test_empty_knwc_behaves_like_not_found(self):
        query = KNWCQuery.make(0, 0, 1, 1, 30, 2, 1)
        engine = _tiny_engine()
        result = engine.knwc(query)
        assert not result.groups
        assert protocol.shield_radii_knwc(query, result) == (
            protocol.ALWAYS_INVALIDATE, protocol.NEVER_INVALIDATE
        )


class TestProtocol:
    def test_encode_decode_roundtrip_is_exact(self):
        # JSON repr round-trips IEEE doubles: the serialized result of a
        # cached answer is bit-identical to a fresh serialization.
        values = [0.1, 1 / 3, math.pi, 1e-300, 12345.6789]
        line = protocol.encode_line({"xs": values})
        assert protocol.decode_line(line)["xs"] == values

    def test_encode_is_deterministic(self):
        a = protocol.encode_line({"b": 1, "a": 2})
        b = protocol.encode_line({"a": 2, "b": 1})
        assert a == b  # sorted keys

    def test_decode_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_line(b"{nope")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_line(b"[1, 2]")

    def test_parse_nwc_validates_fields(self):
        good = {"x": 1, "y": 2, "length": 10, "width": 10, "n": 3}
        query = protocol.parse_nwc(good)
        assert (query.qx, query.n) == (1.0, 3)
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_nwc(good | {"n": "three"})
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_nwc(good | {"x": True})
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_nwc(good | {"measure": "cosine"})
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_nwc({"x": 1})

    def test_parse_nwc_accepts_every_measure(self):
        base = {"x": 1, "y": 2, "length": 10, "width": 10, "n": 3}
        for measure in DistanceMeasure:
            query = protocol.parse_nwc(base | {"measure": measure.value})
            assert query.measure is measure

    def test_parse_knwc(self):
        payload = {"x": 1, "y": 2, "length": 10, "width": 10, "n": 3,
                   "k": 4, "m": 1}
        query, maintenance = protocol.parse_knwc(payload)
        assert (query.k, query.m, maintenance) == (4, 1, "exact")
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_knwc(payload | {"maintenance": "lazy"})

    def test_parse_page_validates_limit_and_cursor(self):
        assert protocol.parse_page({"limit": 4}) == (4, None, math.inf)
        assert protocol.parse_page({"limit": 4, "after": None}) \
            == (4, None, math.inf)
        assert protocol.parse_page(
            {"limit": 8, "after": [1.5, [0.5, -2], [3, 9]]}) \
            == (8, (1.5, (0.5, -2.0), (3, 9)), math.inf)
        for limit in (None, 0, -1, 2.0, True, "4"):
            with pytest.raises(protocol.ProtocolError):
                protocol.parse_page({"limit": limit})
        order = [0.5, -2.0]
        for after in (7, [], [1.5], [1.5, [3], [2.0, 0.0]], [1.5, 3],
                      [1.5, [3, 9.5]], [1.5, [True]], ["1.5", [3]],
                      [False, [3]], [math.inf, [3]], [math.nan, [3]],
                      # The rank's middle part is the order key
                      # [anchor distance, frame y], both finite.
                      [1.5, [3, 9]], [1.5, order, [3, 9.5]],
                      [1.5, order, [True]], ["1.5", order, [3]],
                      [math.inf, order, [3]], [1.5, None, [3]],
                      [1.5, 0.5, [3]], [1.5, [0.5], [3]],
                      [1.5, [0.5, 1.0, 2.0], [3]], [1.5, ["0.5", 1.0], [3]],
                      [1.5, [True, 1.0], [3]], [1.5, [math.inf, 1.0], [3]],
                      [1.5, [0.5, math.nan], [3]], [1.5, order, [3], 4]):
            with pytest.raises(protocol.ProtocolError):
                protocol.parse_page({"limit": 4, "after": after})

    def test_parse_page_validates_the_ceiling(self):
        for ceiling, want in ((None, math.inf), (2.5, 2.5), (3, 3.0),
                              (5e-324, 5e-324)):
            assert protocol.parse_page({"limit": 1, "ceiling": ceiling}) \
                == (1, None, want)
        for ceiling in (True, False, "2.5", [2.5], math.nan, math.inf,
                        -math.inf, 0, 0.0, -1.0):
            with pytest.raises(protocol.ProtocolError):
                protocol.parse_page({"limit": 1, "ceiling": ceiling})

    def test_parse_point_rejects_non_finite(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_point({"oid": 1, "x": math.inf, "y": 0})

    def test_serialized_nwc_result_is_json_stable(self):
        engine = _tiny_engine()
        result = engine.nwc(NWCQuery(400, 400, 80, 80, 3))
        payload = protocol.serialize_nwc(result)
        assert json.loads(json.dumps(payload)) == payload
        assert "stats" not in payload  # volatile counters stay out

    def test_error_response_shape(self):
        response = protocol.error_response("overloaded", "full", request_id=7)
        assert response == {"ok": False, "id": 7,
                            "error": {"code": "overloaded", "message": "full"}}


def _tiny_engine() -> NWCEngine:
    tree = RStarTree.bulk_load(make_uniform_points(120, seed=83),
                               max_entries=16)
    return NWCEngine(tree, Scheme.NWC_STAR)


class TestShieldSoundnessRandomized:
    """The end-to-end property the cache's correctness rests on: if the
    shield keeps an entry across an update, recomputing the query on the
    updated dataset serializes identically."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_carried_nwc_entries_match_recomputation(self, seed):
        rng = random.Random(1000 + seed)
        points = make_uniform_points(150, span=800.0, seed=90 + seed)
        tree = RStarTree.bulk_load(list(points), max_entries=16)
        engine = NWCEngine(tree, Scheme.NWC_STAR)
        queries = [NWCQuery(rng.uniform(0, 800), rng.uniform(0, 800),
                            60, 60, 3) for _ in range(12)]
        cache = ResultCache()
        for i, query in enumerate(queries):
            result = engine.nwc(query)
            ins, dele = protocol.shield_radii_nwc(query, result)
            cache.put(i, 0, protocol.serialize_nwc(result),
                      query.qx, query.qy, query.n, ins, dele)
        from repro.geometry import PointObject
        obj = PointObject(99_999, rng.uniform(0, 800), rng.uniform(0, 800))
        if rng.random() < 0.5:
            engine.insert(obj)
            cache.note_insert(obj.x, obj.y, 1)
        else:
            victim = rng.choice(points)
            assert engine.delete(victim)
            cache.note_delete(victim.x, victim.y, 1, engine.tree.size)
        carried = 0
        for i, query in enumerate(queries):
            kept = cache.get(i, 1)
            if kept is not None:
                carried += 1
                assert kept == protocol.serialize_nwc(engine.nwc(query))
        assert carried > 0  # far-away queries must survive one update

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_carried_knwc_entries_match_recomputation(self, seed):
        from repro.geometry import PointObject

        rng = random.Random(2000 + seed)
        points = make_uniform_points(150, span=800.0, seed=190 + seed)
        engine = NWCEngine(RStarTree.bulk_load(list(points), max_entries=16),
                           Scheme.NWC_STAR)
        queries = [KNWCQuery.make(rng.uniform(0, 800), rng.uniform(0, 800),
                                  60, 60, 2, 2, 1) for _ in range(12)]
        cache = ResultCache()
        for i, query in enumerate(queries):
            result = engine.knwc(query)
            ins, dele = protocol.shield_radii_knwc(query, result)
            cache.put(i, 0, protocol.serialize_knwc(result),
                      query.base.qx, query.base.qy, query.base.n, ins, dele)
        if rng.random() < 0.5:
            obj = PointObject(99_999, rng.uniform(0, 800), rng.uniform(0, 800))
            engine.insert(obj)
            cache.note_insert(obj.x, obj.y, 1)
        else:
            victim = rng.choice(points)
            assert engine.delete(victim)
            cache.note_delete(victim.x, victim.y, 1, engine.tree.size)
        carried = 0
        for i, query in enumerate(queries):
            kept = cache.get(i, 1)
            if kept is not None:
                carried += 1
                assert kept == protocol.serialize_knwc(engine.knwc(query))
        assert carried > 0


class TestCacheVersion:
    """The cache holds answers at one version: the one it was last
    reconciled to."""

    def test_put_older_than_the_cache_is_not_stored(self):
        cache = ResultCache()
        cache.note_insert(1e9, 1e9, new_version=2)
        _put(cache, "a", version=1)
        assert len(cache) == 0

    def test_put_newer_than_the_cache_invalidates_what_it_holds(self):
        # Updates the cache was never told about: nothing it holds is
        # known valid at the newer version.
        cache = ResultCache()
        _put(cache, "a", version=0)
        _put(cache, "b", version=5)
        assert cache.get("a", 5) is None
        assert cache.get("b", 5) == {"k": "b"}
        assert cache.stats().invalidated == 1


class _LinearCache:
    """The reference rule, one walk over every live entry per update:
    an entry is carried iff ``n <= new_size`` and the update lies
    strictly outside its shield radius; LRU and TTL as in the cache."""

    def __init__(self, max_entries, ttl_s, clock):
        self.max_entries, self.ttl_s, self.clock = max_entries, ttl_s, clock
        self.entries = OrderedDict()  # key -> (expires_at, qx, qy, n, ins, del)
        self.counts = dict.fromkeys(
            ("hits", "misses", "expired", "invalidated", "carried",
             "evicted"), 0)

    def get(self, key):
        entry = self.entries.get(key)
        if entry is None:
            self.counts["misses"] += 1
        elif entry[0] <= self.clock():
            del self.entries[key]
            self.counts["expired"] += 1
            self.counts["misses"] += 1
        else:
            self.entries.move_to_end(key)
            self.counts["hits"] += 1

    def put(self, key, qx, qy, n, ins, dele):
        self.entries[key] = (self.clock() + self.ttl_s, qx, qy, n, ins, dele)
        self.entries.move_to_end(key)
        while len(self.entries) > self.max_entries:
            self.entries.popitem(last=False)
            self.counts["evicted"] += 1

    def note(self, x, y, op, new_size):
        for key, (_, qx, qy, n, ins, dele) in list(self.entries.items()):
            radius = ins if op == "insert" else dele
            if n <= new_size and math.hypot(x - qx, y - qy) > radius:
                self.counts["carried"] += 1
            else:
                del self.entries[key]
                self.counts["invalidated"] += 1


class TestShieldIndexEquivalence:
    """The bucketed reconcile against the linear rule, step by step:
    random puts (finite, always and never radii, huge radii past the
    bucketing budget, ``n`` around the dataset size, re-puts of live
    keys at moved locations), lookups, inserts, deletes, LRU overflow
    and TTL expiry on the injected clock."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_linear_reference(self, seed):
        rng = random.Random(seed)
        now = [0.0]
        clock = lambda: now[0]  # noqa: E731
        cache = ResultCache(max_entries=10, ttl_s=40.0, clock=clock)
        ref = _LinearCache(10, 40.0, clock)
        size, version = 30, 0

        def radius():
            roll = rng.random()
            if roll < 0.1:
                return protocol.ALWAYS_INVALIDATE
            if roll < 0.2:
                return protocol.NEVER_INVALIDATE
            if roll < 0.25:
                return 1e6  # too many cells: falls back to the always set
            return rng.uniform(10.0, 400.0)

        for _ in range(600):
            step = rng.random()
            if step < 0.45:
                live = list(ref.entries)
                key = (rng.choice(live) if live and rng.random() < 0.3
                       else ("q", rng.randrange(60)))
                qx, qy = rng.uniform(-200, 2200), rng.uniform(-200, 2200)
                n = size + rng.randint(-3, 1)
                ins, dele = radius(), radius()
                cache.put(key, version, {"k": key}, qx, qy, n, ins, dele)
                ref.put(key, qx, qy, n, ins, dele)
            elif step < 0.7:
                key = ("q", rng.randrange(60))
                assert (cache.get(key, version) is not None) \
                    == (key in ref.entries
                        and ref.entries[key][0] > now[0])
                ref.get(key)
            elif step < 0.85:
                x, y = rng.uniform(-200, 2200), rng.uniform(-200, 2200)
                version += 1
                if rng.random() < 0.5:
                    size += 1
                    cache.note_insert(x, y, version)
                    ref.note(x, y, "insert", size)
                else:
                    size -= 1
                    cache.note_delete(x, y, version, size)
                    ref.note(x, y, "delete", size)
            else:
                now[0] += rng.uniform(0.0, 20.0)
            stats = cache.stats()
            assert list(cache._entries) == list(ref.entries)
            assert len(cache._shields) == len(cache)
            assert {name: getattr(stats, name) for name in ref.counts} \
                == ref.counts


def _count_shield_tests(monkeypatch) -> list:
    """Record the key of every exact shield test the index runs."""
    tested = []
    within = SubscriptionIndex._within

    def counting(x, y, item, *rule):
        tested.append(item.key)
        return within(x, y, item, *rule)

    monkeypatch.setattr(SubscriptionIndex, "_within", staticmethod(counting))
    return tested


class TestReconcileWork:
    """Reconcile work is proportional to the affected entries, not to
    the cache: counted in exact shield tests, not in time."""

    @staticmethod
    def _grid_cache(always: int = 0) -> ResultCache:
        cache = ResultCache(max_entries=1000 + always)
        for i in range(1000):  # a 40 x 25 lattice, 25 units apart
            _put(cache, i, qx=25.0 * (i % 40), qy=25.0 * (i // 40),
                 insert_radius=60.0, delete_radius=60.0)
        for i in range(always):
            _put(cache, ("always", i), qx=500.0, qy=300.0,
                 insert_radius=protocol.ALWAYS_INVALIDATE,
                 delete_radius=protocol.NEVER_INVALIDATE)
        return cache

    def test_far_insert_tests_no_entry(self, monkeypatch):
        cache = self._grid_cache()
        tested = _count_shield_tests(monkeypatch)
        cache.note_insert(-1e6, -1e6, new_version=1)
        assert tested == []
        assert cache.stats().carried == 1000 and len(cache) == 1000

    def test_near_insert_tests_its_cell_and_the_always_set(self, monkeypatch):
        cache = self._grid_cache(always=3)
        x, y = 510.0, 290.0
        shields = cache._shields
        cell = set(shields._cells[shields._cell_of(x, y)])
        inside = {i for i in range(1000)
                  if math.hypot(x - 25.0 * (i % 40), y - 25.0 * (i // 40))
                  <= 60.0}
        tested = _count_shield_tests(monkeypatch)
        cache.note_insert(x, y, new_version=1)
        assert len(tested) <= len(cell) + 3 < 1000 // 4
        assert cache.stats().invalidated == len(inside) + 3
        assert cache.stats().carried == 1000 - len(inside)
