"""Update consistency: randomized interleavings of inserts, deletes and
queries checked against brute force after every step.

These are the serving layer's ground-truth assumptions: an engine that
answers correctly *between* arbitrary update sequences — including the
lazy paths (``_grid_dirty`` rebuild after out-of-extent inserts, IWP
rebuild after any structural change) — is what makes the result cache's
"bit-identical to a fresh engine call" contract meaningful.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core import (
    KNWCQuery,
    NWCEngine,
    NWCQuery,
    Scheme,
    knwc_bruteforce,
    nwc_bruteforce,
)
from repro.geometry import PointObject
from repro.index import RStarTree, validate_tree
from tests.conftest import make_clustered_points, make_uniform_points

SCHEMES = [Scheme.NWC, Scheme.NWC_PLUS, Scheme.NWC_STAR]


def _build(points, scheme, execution):
    tree = RStarTree.bulk_load(points, max_entries=8)
    return NWCEngine(tree, scheme, grid_cell_size=100.0, execution=execution)


def _assert_nwc_agrees(engine, points, query):
    got = engine.nwc(query)
    want = nwc_bruteforce(points, query)
    assert got.found == want.found
    if want.found:
        assert math.isclose(got.distance, want.distance,
                            rel_tol=1e-12, abs_tol=1e-12)


def _assert_knwc_agrees(engine, points, query):
    got = engine.knwc(query)
    want = knwc_bruteforce(points, query)
    assert [sorted(g.oids) for g in got.groups] == [
        sorted(g.oids) for g in want.groups
    ]


@pytest.mark.parametrize("execution", ["python", "columnar"])
@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
def test_random_interleaving_matches_bruteforce(scheme, execution):
    """~40 random ops; every query re-checked against brute force."""
    rng = random.Random(1009)
    points = make_uniform_points(70, span=400.0, seed=31)
    engine = _build(points, scheme, execution)
    live = list(points)
    inserted: list[PointObject] = []
    next_oid = 50_000
    for step in range(40):
        op = rng.choices(["insert", "delete", "nwc", "knwc"],
                         weights=[3, 2, 3, 2])[0]
        if op == "insert":
            obj = PointObject(next_oid, rng.uniform(0, 400), rng.uniform(0, 400))
            next_oid += 1
            engine.insert(obj)
            live.append(obj)
            inserted.append(obj)
        elif op == "delete":
            victim = rng.choice(live)
            assert engine.delete(victim)
            live.remove(victim)
            if victim in inserted:
                inserted.remove(victim)
        elif op == "nwc":
            query = NWCQuery(rng.uniform(0, 400), rng.uniform(0, 400),
                             rng.uniform(40, 90), rng.uniform(40, 90),
                             rng.randint(2, 4))
            _assert_nwc_agrees(engine, live, query)
        else:
            query = KNWCQuery.make(rng.uniform(0, 400), rng.uniform(0, 400),
                                   60.0, 60.0, 3, 2, 1)
            _assert_knwc_agrees(engine, live, query)
    validate_tree(engine.tree)


@pytest.mark.parametrize("execution", ["python", "columnar"])
def test_out_of_extent_inserts_dirty_grid_rebuild(execution):
    """Inserts beyond the DEP grid's extent flip ``_grid_dirty``; the
    lazy rebuild must happen before the next query prunes anything."""
    points = make_uniform_points(60, span=300.0, seed=37)
    engine = _build(points, Scheme.NWC_STAR, execution)
    assert engine.grid is not None
    live = list(points)
    # A tight cluster far outside the original extent.
    planted = [PointObject(60_000 + i, 900.0 + i, 900.0) for i in range(3)]
    for obj in planted:
        engine.insert(obj)
        live.append(obj)
    assert engine._grid_dirty
    query = NWCQuery(900, 900, 20, 20, 3)
    _assert_nwc_agrees(engine, live, query)
    assert not engine._grid_dirty  # rebuilt lazily by the query
    got = engine.nwc(query)
    assert got.found and {p.oid for p in got.objects} == {p.oid for p in planted}


@pytest.mark.parametrize("execution", ["python", "columnar"])
def test_updates_rebuild_iwp_before_answering(execution):
    """IWP's structural pointers go stale on any update; interleaved
    queries must see the rebuilt index, not the old node graph."""
    points = make_clustered_points(80, clusters=3, span=400.0, seed=41)
    engine = _build(points, Scheme.NWC_STAR, execution)

    def pointer_index():
        return engine.iwp if execution == "python" else engine._flat_iwp

    assert engine.flags.iwp
    if execution == "python":  # columnar builds its FlatIWP with the first query
        assert engine.iwp is not None
    live = list(points)
    rng = random.Random(43)
    for round_no in range(4):
        stale = pointer_index()
        for _ in range(6):
            obj = PointObject(70_000 + round_no * 10 + _,
                              rng.uniform(0, 400), rng.uniform(0, 400))
            engine.insert(obj)
            live.append(obj)
        assert engine._iwp_dirty
        victim = rng.choice(live)
        assert engine.delete(victim)
        live.remove(victim)
        query = NWCQuery(rng.uniform(0, 400), rng.uniform(0, 400), 70, 70, 3)
        _assert_nwc_agrees(engine, live, query)
        assert not engine._iwp_dirty
        assert pointer_index() is not None and pointer_index() is not stale


def test_execution_modes_identical_through_updates():
    """The python and columnar paths stay bit-identical across
    the same update/query interleaving (the serving twin-verify
    precondition; columnar also exercises the flat-snapshot rebuild)."""
    points = make_uniform_points(60, span=300.0, seed=47)
    engines = {
        mode: _build(list(points), Scheme.NWC_STAR, mode)
        for mode in ("python", "columnar")
    }
    rng = random.Random(53)
    for step in range(20):
        if step % 3 == 0:
            obj = PointObject(80_000 + step, rng.uniform(0, 300),
                              rng.uniform(0, 300))
            for engine in engines.values():
                engine.insert(obj)
        query = NWCQuery(rng.uniform(0, 300), rng.uniform(0, 300), 60, 60, 3)
        results = {mode: engine.nwc(query) for mode, engine in engines.items()}
        py, other = results["python"], results["columnar"]
        assert py.found == other.found
        assert py.distance == other.distance  # bitwise, not approximate
        if py.found:
            assert [p.oid for p in py.objects] == \
                [p.oid for p in other.objects]
