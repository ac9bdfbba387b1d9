"""Unit tests for the standing-query registry: shield-radius
bucketing, always/never placement, rebucketing, the delete size-flip
sweep, the re-evaluations the shields spare and state round-trips."""

from __future__ import annotations

import math
import random

import pytest

from repro.core import NWCEngine, Scheme
from repro.geometry import PointObject
from repro.index import RStarTree
from repro.sub import reconcile, subscription_from_record
from repro.sub.index import (
    DEFAULT_CELL_SIZE,
    MAX_CELLS_PER_SUB,
    Subscription,
    SubscriptionIndex,
)
from repro.sub.runtime import evaluate_subscription
from tests.conftest import make_uniform_points


def _sub(sub_id: str, qx: float, qy: float, *, n: int = 4,
         ins: float = math.inf, dele: float = math.inf) -> Subscription:
    # Index tests never evaluate, so spec/query stay empty.
    return Subscription(sub_id=sub_id, kind="nwc", spec={}, qx=qx, qy=qy,
                        n=n, insert_radius=ins, delete_radius=dele)


class TestPlacement:
    def test_finite_radius_buckets_near_probes_only(self):
        index = SubscriptionIndex(cell_size=100.0)
        index.add(_sub("a", 150.0, 150.0, ins=40.0, dele=40.0))
        assert index.probe(160.0, 160.0, "insert") == {"a"}
        assert index.probe(5000.0, 5000.0, "insert") == set()
        # The covering square [110, 190]^2 fits inside cell (1, 1).
        assert index.cell_count == 1

    def test_shield_test_is_non_strict(self):
        index = SubscriptionIndex(cell_size=100.0)
        index.add(_sub("a", 0.0, 0.0, ins=50.0, dele=50.0))
        on_boundary = index.affected_insert(50.0, 0.0)
        assert [s.sub_id for s in on_boundary] == ["a"]
        beyond = index.affected_insert(50.0 + 1e-9, 0.0)
        assert beyond == []

    def test_always_radius_hits_every_probe(self):
        index = SubscriptionIndex(cell_size=100.0)
        index.add(_sub("a", 0.0, 0.0, ins=math.inf, dele=-math.inf))
        assert [s.sub_id for s in index.affected_insert(9e6, -9e6)] == ["a"]
        # NEVER on the delete side: geometry can never flip it.
        assert index.affected_delete(0.0, 0.0, new_size=100) == []

    def test_stale_index_names_everything_once(self):
        index = SubscriptionIndex(cell_size=100.0)
        for sub_id, qx in (("b", 0.0), ("a", 900.0)):
            index.add(_sub(sub_id, qx, 0.0, ins=50.0, dele=50.0))
        assert [s.sub_id for s in index.due("insert", 0.0, 0.0, 10)] == ["b"]
        index.stale = True
        assert [s.sub_id
                for s in index.due("delete", 5e6, 5e6, 10)] == ["a", "b"]
        assert index.stale is False
        assert index.due("delete", 5e6, 5e6, 10) == []

    def test_huge_finite_radius_degrades_to_always(self):
        index = SubscriptionIndex(cell_size=1.0)
        radius = MAX_CELLS_PER_SUB * 10.0
        index.add(_sub("a", 0.0, 0.0, ins=radius, dele=-math.inf))
        # Bucketing would blow the cell budget, so placement must fall
        # back to the always *candidate* set — conservative coarse
        # probe, with the exact radius test still applied after.
        assert index.cell_count == 0
        assert index.probe(1e9, 1e9, "insert") == {"a"}
        assert [s.sub_id
                for s in index.affected_insert(radius - 1.0, 0.0)] == ["a"]
        assert index.affected_insert(1e9, 1e9) == []

    def test_rebucket_moves_the_disk(self):
        index = SubscriptionIndex(cell_size=100.0)
        sub = _sub("a", 150.0, 150.0, ins=40.0, dele=40.0)
        index.add(sub)
        assert index.probe(160.0, 160.0, "insert") == {"a"}
        sub.insert_radius = sub.delete_radius = 900.0
        index.rebucket(sub)
        assert index.probe(700.0, 700.0, "insert") == {"a"}
        sub.insert_radius = sub.delete_radius = 10.0
        index.rebucket(sub)
        assert index.probe(700.0, 700.0, "insert") == set()
        assert index.probe(150.0, 150.0, "insert") == {"a"}

    def test_remove_cleans_every_structure(self):
        index = SubscriptionIndex(cell_size=100.0)
        index.add(_sub("a", 0.0, 0.0, n=9, ins=40.0, dele=math.inf))
        index.add(_sub("b", 0.0, 0.0, n=3, ins=math.inf, dele=30.0))
        assert index.remove("a").sub_id == "a"
        assert index.remove("a") is None
        assert "a" not in index and len(index) == 1
        assert index.probe(0.0, 0.0, "delete") == {"b"}
        # max-n guard recomputed after the largest-n sub left.
        assert index._max_n == 3
        assert index.remove("b").sub_id == "b"
        assert index.cell_count == 0
        assert not index._always_insert and not index._always_delete

    def test_add_same_id_replaces(self):
        index = SubscriptionIndex(cell_size=100.0)
        index.add(_sub("a", 0.0, 0.0, ins=40.0, dele=40.0))
        index.add(_sub("a", 5000.0, 5000.0, ins=40.0, dele=40.0))
        assert len(index) == 1
        assert index.probe(0.0, 0.0, "insert") == set()
        assert index.probe(5000.0, 5000.0, "insert") == {"a"}


class TestDeleteSizeFlip:
    def test_shrinking_below_n_sweeps_regardless_of_geometry(self):
        index = SubscriptionIndex(cell_size=100.0)
        # Far away and delete-shielded: geometry alone would skip it.
        index.add(_sub("big", 9000.0, 9000.0, n=8, ins=10.0, dele=10.0))
        index.add(_sub("small", 9000.0, 9000.0, n=2, ins=10.0, dele=10.0))
        affected = index.affected_delete(0.0, 0.0, new_size=7)
        assert [s.sub_id for s in affected] == ["big"]
        # Dataset still >= every n: no sweep, no geometric hit.
        assert index.affected_delete(0.0, 0.0, new_size=8) == []

    def test_never_radius_still_flips_on_size(self):
        index = SubscriptionIndex(cell_size=100.0)
        index.add(_sub("a", 0.0, 0.0, n=5, ins=math.inf, dele=-math.inf))
        assert [s.sub_id
                for s in index.affected_delete(0.0, 0.0, new_size=4)] == ["a"]


class TestIncrementality:
    def test_shields_spare_most_reevaluations(self):
        """20 inserts re-evaluate 300 standing NWC queries (~2n objects
        per window) at most a fifth of the 6,000 times that re-evaluating
        every query on every insert would."""
        length, width, n, subs, inserts = 20.0, 15.0, 2, 300, 20
        side = math.sqrt(4000 * length * width / (2.0 * n))
        engine = NWCEngine(RStarTree.bulk_load(
            make_uniform_points(4000, span=side, seed=20260808),
            max_entries=50), Scheme.NWC_STAR)
        rng = random.Random(5)
        index = SubscriptionIndex()
        for i in range(subs):
            sub = subscription_from_record({
                "sub": f"s{i:03d}", "x": rng.uniform(width, side - width),
                "y": rng.uniform(width, side - width),
                "length": length, "width": width, "n": n})
            sub.result, sub.insert_radius, sub.delete_radius = \
                evaluate_subscription(engine, sub)
            index.add(sub)
        reevals = 0
        for step in range(inserts):
            obj = PointObject(90_000 + step, rng.uniform(0.0, side),
                              rng.uniform(0.0, side))
            engine.insert(obj)
            reevals += reconcile(index, engine, "insert", obj.x, obj.y,
                                 engine.tree.size, step + 1)[1]
        assert reevals <= subs * inserts // 5, reevals


class TestValidation:
    def test_bad_cell_size_rejected(self):
        with pytest.raises(ValueError):
            SubscriptionIndex(cell_size=0.0)
        with pytest.raises(ValueError):
            SubscriptionIndex(cell_size=math.inf)

    def test_unknown_op_rejected(self):
        index = SubscriptionIndex()
        with pytest.raises(ValueError):
            index.probe(0.0, 0.0, "upsert")


class TestState:
    def test_roundtrip_preserves_radii_and_counters(self):
        index = SubscriptionIndex(cell_size=DEFAULT_CELL_SIZE)
        spec = {"x": 10.0, "y": 20.0, "length": 50.0, "width": 50.0, "n": 3}
        sub = Subscription(sub_id="s1", kind="nwc", spec=spec, qx=10.0,
                           qy=20.0, n=3, result={"found": False},
                           revision=4, version=17, insert_radius=math.inf,
                           delete_radius=-math.inf)
        index.add(sub)
        states = index.to_state()
        assert states[0]["ins"] == "always" and states[0]["del"] == "never"
        rebuilt = SubscriptionIndex.from_state(states)
        copy = rebuilt.get("s1")
        assert copy.revision == 4 and copy.version == 17
        assert copy.insert_radius == math.inf
        assert copy.delete_radius == -math.inf
        assert copy.result == {"found": False}
        assert copy.query is not None  # spec re-parsed into a query
        assert [s.sub_id for s in rebuilt.affected_insert(10.0, 20.0)] \
            == ["s1"]
