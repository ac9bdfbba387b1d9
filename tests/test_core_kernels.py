"""Equivalence of the engine execution modes, plus kernel units.

The columnar path must be *bit-identical* to the scalar path: same
groups (objects and order), same distances, same stats counters —
across schemes, measures, window shapes and datasets with duplicate
coordinates.  The property tests here are the contract that
lets the engine default to ``execution="columnar"``.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ALL_SCHEMES,
    DistanceMeasure,
    EngineConfigError,
    KNWCQuery,
    NWCEngine,
    NWCQuery,
    Scheme,
)
from repro.core.kernels import (
    ColumnarSnapshot,
    rank_by_key,
    select_ranked,
    window_mindists,
    window_spans,
)
from repro.geometry import PointObject, make_points
from repro.index import FlatRTree, RStarTree


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------
def _coords(span: float):
    # Coarse grid coordinates so duplicate x/y values (and whole
    # duplicate points) are common — they exercise the tie-breaking.
    return st.integers(0, int(span)).map(lambda v: v / 2.0)


@st.composite
def engine_cases(draw):
    span = 100.0
    count = draw(st.integers(8, 60))
    coords = draw(
        st.lists(st.tuples(_coords(span), _coords(span)),
                 min_size=count, max_size=count)
    )
    points = make_points(coords)
    scheme = draw(st.sampled_from(ALL_SCHEMES))
    measure = draw(st.sampled_from(list(DistanceMeasure)))
    n = draw(st.integers(1, 6))
    length = draw(st.floats(2.0, 40.0, allow_nan=False))
    width = draw(st.floats(2.0, 40.0, allow_nan=False))
    qx = draw(_coords(span))
    qy = draw(_coords(span))
    return points, scheme, NWCQuery(qx, qy, length, width, n, measure)


def _run_both(points, scheme, build_query):
    tree = RStarTree.bulk_load(points, max_entries=8)
    return [build_query(NWCEngine(tree, scheme, execution=execution))
            for execution in ("python", "columnar")]


@settings(max_examples=60, deadline=None)
@given(engine_cases())
def test_nwc_vector_modes_match_python(case):
    points, scheme, query = case
    py, col = _run_both(points, scheme, lambda e: e.nwc(query))
    assert py.stats == col.stats
    assert py.found == col.found
    assert py.distance == col.distance
    if py.found:
        assert [p.oid for p in py.objects] == [p.oid for p in col.objects]
        assert py.group.window == col.group.window


@settings(max_examples=30, deadline=None)
@given(engine_cases(), st.integers(1, 4), st.integers(0, 3),
       st.sampled_from(["exact", "paper"]))
def test_knwc_vector_modes_match_python(case, k, m_raw, maintenance):
    points, scheme, base = case
    m = min(m_raw, base.n - 1)
    query = KNWCQuery(base, k, m)
    py, col = _run_both(points, scheme,
                        lambda e: e.knwc(query, maintenance=maintenance))
    assert py.stats == col.stats
    assert py.distances == col.distances
    assert [[p.oid for p in g.objects] for g in py.groups] == \
        [[p.oid for p in g.objects] for g in col.groups]


# ----------------------------------------------------------------------
# Kernel units
# ----------------------------------------------------------------------
def test_snapshot_sort_is_stable_and_matches_scalar():
    members = [PointObject(i, float(i), y) for i, y in
               enumerate([3.0, 1.0, 3.0, 1.0, 2.0])]
    flat = FlatRTree.from_tree(RStarTree.bulk_load(members, max_entries=8))
    cols = np.argsort(flat.oids)  # fetch order == ``members`` order
    for sy in (1.0, -1.0):
        snap = ColumnarSnapshot.build(flat, cols, sy)
        expected = sorted(members, key=lambda p: sy * p.y)
        assert snap.oids.tolist() == [p.oid for p in expected]
        assert flat.oids[snap.cols].tolist() == snap.oids.tolist()
        tys, dsq = snap.frame_arrays(0.0, 0.0, sy)
        assert list(tys) == [sy * p.y for p in expected]
        assert list(dsq) == [p.x * p.x + p.y * p.y for p in expected]


def test_window_spans_matches_bisect():
    rng = np.random.default_rng(11)
    tys = np.sort(np.round(rng.uniform(0, 20, 50), 1))
    width = 3.0
    start, tops, los, his = window_spans(tys, 5.0, width)
    from bisect import bisect_left, bisect_right
    lst = tys.tolist()
    assert start == bisect_left(lst, 5.0)
    for j, top in enumerate(tops.tolist()):
        assert los[j] == bisect_left(lst, top - width)
        assert his[j] == bisect_right(lst, top)
    dists = window_mindists(tops, width, 2.0)
    for j, top in enumerate(tops.tolist()):
        dy = max(top - width, 0.0)
        assert dists[j] == pytest.approx(np.sqrt(4.0 + dy * dy))


@given(st.lists(st.integers(0, 8), min_size=3, max_size=40),
       st.integers(1, 5), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_select_ranked_matches_nsmallest(vals, n, rnd):
    # Heavy duplication in vals forces tie-breaks through the oid path.
    dsq = np.asarray([float(v) for v in vals])
    oids = np.arange(len(vals), dtype=np.int64)
    rnd.shuffle(vals)
    lo = rnd.randrange(0, len(vals))
    hi = rnd.randrange(lo, len(vals)) + 1
    if hi - lo < n:
        return
    ref = heapq.nsmallest(n, range(lo, hi),
                          key=lambda i: (dsq[i], oids[i]))
    # One region-global rank, filtered per window, must pick the same
    # members in the same order.
    rank = rank_by_key(dsq, oids)
    assert select_ranked(rank, lo, hi, n).tolist() == ref


def test_invalid_execution_mode_rejected(uniform_points):
    tree = RStarTree.bulk_load(uniform_points[:50])
    for mode in ("fortran", "numpy"):
        with pytest.raises(EngineConfigError,
                           match=r"\('python', 'columnar'\)"):
            NWCEngine(tree, Scheme.NWC, execution=mode)
