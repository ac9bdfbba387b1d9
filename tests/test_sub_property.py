"""Property test: shield-radius bucketing is conservative.

The subscription index may re-evaluate too much (spurious candidates
cost time, never correctness), but it must never re-evaluate too
little — a missed candidate would leave a standing query's maintained
answer diverging from a fresh evaluation.  Driven with seeded random
subscriptions and update streams, single-engine (directly against
``reconcile``) and through a 3-shard fleet (against a
:class:`repro.check.Twin`: every frame at its version, the last one at
the final version)."""

from __future__ import annotations

import random

import pytest

from repro.check import Twin
from repro.core import KNWCQuery, NWCEngine, NWCQuery, Scheme
from repro.geometry import PointObject
from repro.index import RStarTree
from repro.sub import SubscriptionIndex, reconcile, subscription_from_record
from repro.sub.runtime import evaluate_subscription, register
from tests.conftest import make_uniform_points
from tests.test_shard_serve import EXTENT, L, W, Fleet
from tests.test_shard_serve import POINTS as FLEET_POINTS

POINTS = make_uniform_points(300, span=1000.0, seed=23)


def _engine() -> NWCEngine:
    return NWCEngine(RStarTree.bulk_load(list(POINTS), max_entries=16),
                     Scheme.NWC_STAR)


def _random_record(rng: random.Random, i: int) -> dict:
    record = {
        "op": "subscribe", "sub": f"p{i}", "kind": "nwc",
        "x": rng.uniform(50.0, 950.0), "y": rng.uniform(50.0, 950.0),
        "length": rng.uniform(40.0, 90.0), "width": rng.uniform(40.0, 90.0),
        "n": rng.randint(2, 5),
    }
    if i % 3 == 2:
        record["kind"] = "knwc"
        record["k"] = rng.randint(2, 3)
        record["m"] = 1
    return record


@pytest.mark.parametrize("seed", [7, 101, 4242])
def test_single_engine_no_false_negatives(seed):
    rng = random.Random(seed)
    engine = _engine()
    index = SubscriptionIndex()
    for i in range(12):
        sub = subscription_from_record(_random_record(rng, i))
        register(index, sub, evaluate_subscription(engine, sub), 0)

    live: list[PointObject] = []
    version = 0
    reeval_total = 0
    for step in range(60):
        if live and rng.random() < 0.35:
            obj = live.pop(rng.randrange(len(live)))
            op = "delete"
            assert engine.delete(obj)
        else:
            obj = PointObject(50_000 + step, rng.uniform(0.0, 1000.0),
                              rng.uniform(0.0, 1000.0))
            op = "insert"
            engine.insert(obj)
            live.append(obj)
        version += 1
        _changed, reevals = reconcile(
            index, engine, op, obj.x, obj.y, engine.tree.size, version)
        reeval_total += reevals
        # The invariant: every maintained answer equals a fresh
        # evaluation, whether or not the index chose to re-evaluate it.
        for sub in index.subscriptions():
            fresh, _ins, _del = evaluate_subscription(engine, sub)
            assert sub.result == fresh, (
                f"seed {seed} step {step}: stale answer for {sub.sub_id} "
                f"after {op} at ({obj.x:.1f}, {obj.y:.1f})")
    # The shield actually pruned: far fewer re-evaluations than the
    # re-evaluate-everything baseline would have done.
    assert 0 < reeval_total < 60 * 12


def _fleet_query(x: float, y: float, n: int, k: int | None):
    query = NWCQuery(x, y, L, W, n)
    return query if k is None else KNWCQuery(query, k, 1)


@pytest.mark.slow
def test_sharded_no_false_negatives(tmp_path):
    rng = random.Random(31)
    fleet = Fleet(tmp_path)
    # The fleet's canon: one star engine over the whole dataset.
    twin = Twin(NWCEngine(RStarTree.bulk_load(list(FLEET_POINTS)),
                          Scheme.NWC_STAR, extent=EXTENT,
                          execution="columnar"))
    try:
        from repro.serve.client import ServeClient

        sub_client = ServeClient(fleet.coordinator.host,
                                 fleet.coordinator.port)
        streams, specs = [], []
        for i in range(6):
            x = rng.uniform(100.0, 900.0)
            y = rng.uniform(100.0, 900.0)
            n = rng.randint(2, 4)
            k = rng.randint(2, 3) if i % 3 == 2 else None
            stream = sub_client.subscribe(x, y, L, W, n, k=k,
                                          m=0 if k is None else 1)
            twin.check_subscribe(_fleet_query(x, y, n, k), stream.ack)
            streams.append(stream)
            specs.append((x, y, n, k))

        live: list[PointObject] = []
        for step in range(40):
            if live and rng.random() < 0.35:
                obj = live.pop(rng.randrange(len(live)))
                twin.check_update("delete", obj,
                                  fleet.client.delete(obj.oid, obj.x, obj.y))
            else:
                obj = PointObject(60_000 + step, rng.uniform(0.0, 1000.0),
                                  rng.uniform(0.0, 1000.0))
                twin.check_update("insert", obj,
                                  fleet.client.insert(obj.oid, obj.x, obj.y))
                live.append(obj)

        # Drain until quiet; every frame must advance its subscription
        # by exactly one revision to the twin's answer at its version.
        while (frame := streams[0].poll(timeout_s=1.0)) is not None:
            twin.check_frame(frame)

        # Conservative maintenance: the last pushed answer of every
        # standing query equals the final answer, which a fresh query
        # at the final version serves too.
        twin.check_delivery(exact=False)
        for x, y, n, k in specs:
            twin.check_answer(_fleet_query(x, y, n, k),
                              fleet.client.nwc(x, y, L, W, n) if k is None
                              else fleet.client.knwc(x, y, L, W, n, k, 1))
        assert twin.mismatches == 0, twin.examples
        sub_client.close()
    finally:
        fleet.stop()
