"""Property test: shield-radius bucketing is conservative.

The subscription index may re-evaluate too much (spurious candidates
cost time, never correctness), but it must never re-evaluate too
little — a missed candidate would leave a standing query's maintained
answer diverging from a fresh evaluation.  Driven with seeded random
subscriptions and update streams, single-engine (directly against
``reconcile``) and through a 3-shard fleet (against one-shot queries
at the final version)."""

from __future__ import annotations

import random

import pytest

from repro.core import NWCEngine, Scheme
from repro.geometry import PointObject
from repro.index import RStarTree
from repro.sub import SubscriptionIndex, reconcile, subscription_from_record
from repro.sub.runtime import evaluate_subscription
from tests.conftest import make_uniform_points
from tests.test_shard_serve import L, W, Fleet

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
        sub.result, sub.insert_radius, sub.delete_radius = \
            evaluate_subscription(engine, sub)
        sub.revision = 1
        index.add(sub)

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


@pytest.mark.slow
def test_sharded_no_false_negatives(tmp_path):
    rng = random.Random(31)
    fleet = Fleet(tmp_path)
    try:
        from repro.serve.client import ServeClient

        sub_client = ServeClient(fleet.coordinator.host,
                                 fleet.coordinator.port)
        streams = []
        specs = []
        for i in range(6):
            x = rng.uniform(100.0, 900.0)
            y = rng.uniform(100.0, 900.0)
            n = rng.randint(2, 4)
            k = rng.randint(2, 3) if i % 3 == 2 else None
            stream = sub_client.subscribe(x, y, L, W, n, k=k,
                                          m=0 if k is None else 1)
            streams.append(stream)
            specs.append((x, y, n, k))

        pushed = {s.sub_id: s.result for s in streams}
        revisions = {s.sub_id: s.revision for s in streams}
        live: list[PointObject] = []
        for step in range(40):
            if live and rng.random() < 0.35:
                obj = live.pop(rng.randrange(len(live)))
                fleet.client.delete(obj.oid, obj.x, obj.y)
            else:
                obj = PointObject(60_000 + step, rng.uniform(0.0, 1000.0),
                                  rng.uniform(0.0, 1000.0))
                fleet.client.insert(obj.oid, obj.x, obj.y)
                live.append(obj)

        # Drain until quiet; every frame must advance its subscription
        # by exactly one revision.
        while True:
            frame = streams[0].poll(timeout_s=1.0)
            if frame is None:
                break
            sid = frame["sub"]
            assert frame["revision"] == revisions[sid] + 1, frame
            revisions[sid] = frame["revision"]
            pushed[sid] = frame["result"]

        # Conservative maintenance: the last pushed answer of every
        # standing query equals a fresh query at the final version.
        for stream, (x, y, n, k) in zip(streams, specs):
            if k is None:
                fresh = fleet.client.nwc(x, y, L, W, n)
            else:
                fresh = fleet.client.knwc(x, y, L, W, n, k, 1)
            assert pushed[stream.sub_id] == fresh["result"], stream.sub_id
        sub_client.close()
    finally:
        fleet.stop()
