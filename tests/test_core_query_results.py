"""Unit tests for query descriptors and result types."""

import math
import pickle

import pytest

from repro.core import DistanceMeasure, KNWCQuery, NWCQuery, NWCResult, ObjectGroup
from repro.geometry import Rect, make_points
from repro.serve.protocol import _serialize_group, group_from_payload


class TestNWCQuery:
    def test_valid_query(self):
        q = NWCQuery(1.0, 2.0, 10.0, 20.0, 5)
        assert q.measure is DistanceMeasure.MAX
        assert q.diagonal == pytest.approx(math.hypot(10, 20))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(qx=float("nan"), qy=0, length=1, width=1, n=1),
            dict(qx=0, qy=float("inf"), length=1, width=1, n=1),
            dict(qx=0, qy=0, length=0, width=1, n=1),
            dict(qx=0, qy=0, length=1, width=-2, n=1),
            dict(qx=0, qy=0, length=1, width=1, n=0),
        ],
    )
    def test_invalid_queries(self, kwargs):
        with pytest.raises(ValueError):
            NWCQuery(**kwargs)


class TestKNWCQuery:
    def test_make(self):
        q = KNWCQuery.make(0, 0, 5, 5, n=4, k=3, m=2)
        assert q.k == 3 and q.m == 2 and q.base.n == 4

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KNWCQuery.make(0, 0, 5, 5, n=4, k=0, m=0)

    @pytest.mark.parametrize("m", [-1, 4, 5])
    def test_invalid_m(self, m):
        with pytest.raises(ValueError):
            KNWCQuery.make(0, 0, 5, 5, n=4, k=1, m=m)

    def test_m_equal_n_minus_one_allowed(self):
        q = KNWCQuery.make(0, 0, 5, 5, n=4, k=2, m=3)
        assert q.m == 3


class TestObjectGroup:
    def _group(self, coords, dist=1.0):
        pts = make_points(coords)
        return ObjectGroup(tuple(pts), dist, Rect(0, 0, 10, 10))

    def test_oids(self):
        group = self._group([(1, 1), (2, 2)])
        assert group.oids == frozenset({0, 1})

    def test_overlap(self):
        pts = make_points([(1, 1), (2, 2), (3, 3)])
        a = ObjectGroup((pts[0], pts[1]), 1.0, Rect(0, 0, 5, 5))
        b = ObjectGroup((pts[1], pts[2]), 2.0, Rect(0, 0, 5, 5))
        assert a.overlap(b) == 1
        assert a.overlap(a) == 2

    def test_oids_are_built_once_and_are_no_part_of_the_value(self):
        asked, fresh = (self._group([(1, 1), (2, 2)]) for _ in range(2))
        assert asked.oids is asked.oids
        assert asked == fresh and hash(asked) == hash(fresh)
        assert repr(asked) == repr(fresh)
        for group in (asked, fresh):
            copy = pickle.loads(pickle.dumps(group))
            assert copy == group and copy.oids == group.oids
        assert group_from_payload(_serialize_group(asked)) == fresh
        assert _serialize_group(asked) == _serialize_group(fresh)


class TestNWCResult:
    def test_empty_result(self):
        result = NWCResult(group=None, stats={"node_accesses": 7})
        assert not result.found
        assert result.objects == ()
        assert result.distance == float("inf")
        assert result.node_accesses == 7

    def test_populated_result(self):
        pts = make_points([(1, 1)])
        group = ObjectGroup(tuple(pts), 3.5, Rect(0, 0, 2, 2))
        result = NWCResult(group=group, stats={})
        assert result.found
        assert result.distance == 3.5
        assert result.objects == tuple(pts)
        assert result.node_accesses == 0


class TestKNWCResult:
    def test_max_pairwise_overlap(self):
        from repro.core import KNWCResult

        pts = make_points([(i, i) for i in range(5)])
        g1 = ObjectGroup((pts[0], pts[1], pts[2]), 1.0, Rect(0, 0, 9, 9))
        g2 = ObjectGroup((pts[2], pts[3], pts[4]), 2.0, Rect(0, 0, 9, 9))
        result = KNWCResult(groups=(g1, g2), stats={})
        assert len(result) == 2
        assert result.distances == (1.0, 2.0)
        assert result.max_pairwise_overlap() == 1
