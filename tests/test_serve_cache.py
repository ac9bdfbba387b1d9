"""Unit tests for the serving result cache and its protocol helpers:
shield-radius derivation, targeted invalidation, LRU/TTL hygiene and
the deterministic wire serialization the cache's correctness rests on."""

from __future__ import annotations

import json
import math
import random

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

    def test_invalidate_all(self):
        cache = ResultCache()
        _put(cache, "a")
        _put(cache, "b")
        cache.invalidate_all()
        assert len(cache) == 0 and cache.stats().invalidated == 2

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
        assert protocol.parse_page({"limit": 4}) == (4, None)
        assert protocol.parse_page({"limit": 4, "after": None}) == (4, None)
        assert protocol.parse_page({"limit": 8, "after": [1.5, [3, 9]]}) \
            == (8, (1.5, (3, 9)))
        for limit in (None, 0, -1, 2.0, True, "4"):
            with pytest.raises(protocol.ProtocolError):
                protocol.parse_page({"limit": limit})
        for after in (7, [], [1.5], [1.5, [3], [2.0, 0.0]], [1.5, 3],
                      [1.5, [3, 9.5]], [1.5, [True]], ["1.5", [3]],
                      [False, [3]], [math.inf, [3]], [math.nan, [3]]):
            with pytest.raises(protocol.ProtocolError):
                protocol.parse_page({"limit": 4, "after": after})

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
