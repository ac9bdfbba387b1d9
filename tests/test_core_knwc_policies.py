"""Unit tests for the kNWC group-maintenance policies."""

import random

import pytest

from repro.core import ExactGroupBuffer, PaperGroupList, ObjectGroup, make_policy
from repro.geometry import PointObject, Rect


def group(oids, dist):
    """Group with the given object ids and distance."""
    objects = tuple(PointObject(oid, float(oid), 0.0) for oid in oids)
    return ObjectGroup(objects, dist, Rect(0, 0, 1, 1))


class TestFactory:
    def test_known_kinds(self):
        assert isinstance(make_policy("exact", 2, 1), ExactGroupBuffer)
        assert isinstance(make_policy("paper", 2, 1), PaperGroupList)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_policy("magic", 2, 1)

    @pytest.mark.parametrize("cls", [ExactGroupBuffer, PaperGroupList])
    def test_invalid_parameters(self, cls):
        with pytest.raises(ValueError):
            cls(0, 1)
        with pytest.raises(ValueError):
            cls(2, -1)


@pytest.mark.parametrize("kind", ["exact", "paper"])
class TestCommonBehaviour:
    def test_empty_bound_is_infinite(self, kind):
        policy = make_policy(kind, 2, 0)
        assert policy.bound() == float("inf")
        assert policy.finalize() == ()

    def test_simple_topk_by_distance(self, kind):
        policy = make_policy(kind, 2, 0)
        policy.offer(group([1, 2], 5.0))
        policy.offer(group([3, 4], 3.0))
        policy.offer(group([5, 6], 9.0))
        result = policy.finalize()
        assert [g.distance for g in result] == [3.0, 5.0]
        assert policy.bound() == 5.0

    def test_overlap_rejection(self, kind):
        policy = make_policy(kind, 2, 0)
        policy.offer(group([1, 2], 1.0))
        policy.offer(group([2, 3], 2.0))  # overlaps the closer group
        policy.offer(group([4, 5], 3.0))
        result = policy.finalize()
        assert [sorted(g.oids) for g in result] == [[1, 2], [4, 5]]

    def test_m_allows_partial_overlap(self, kind):
        policy = make_policy(kind, 2, 1)
        policy.offer(group([1, 2], 1.0))
        policy.offer(group([2, 3], 2.0))  # one shared object allowed
        result = policy.finalize()
        assert [sorted(g.oids) for g in result] == [[1, 2], [2, 3]]

    def test_duplicate_sets_ignored(self, kind):
        policy = make_policy(kind, 3, 2)
        policy.offer(group([1, 2, 3], 1.0))
        policy.offer(group([1, 2, 3], 1.0))
        assert len(policy.finalize()) == 1

    def test_result_sorted_ascending(self, kind):
        policy = make_policy(kind, 4, 3)
        for dist in (7.0, 1.0, 5.0, 3.0):
            policy.offer(group([int(dist * 10), int(dist * 10) + 1, 99, 98], dist))
        dists = [g.distance for g in policy.finalize()]
        assert dists == sorted(dists)


class TestExactBuffer:
    def test_bound_can_rise_when_closer_group_evicts(self):
        # Greedy over a superset can lose its k-th member: F overlaps
        # both A and B, outranks them, and leaves a single group.
        policy = ExactGroupBuffer(2, 0)
        policy.offer(group([1, 2], 1.0))    # A
        policy.offer(group([3, 4], 2.0))    # B
        assert policy.bound() == 2.0
        policy.offer(group([2, 3], 0.5))    # F overlaps A and B
        assert policy.bound() == float("inf")
        assert [sorted(g.oids) for g in policy.finalize()] == [[2, 3]]

    def test_late_candidate_recovers_after_eviction(self):
        policy = ExactGroupBuffer(2, 0)
        policy.offer(group([1, 2], 1.0))
        policy.offer(group([3, 4], 2.0))
        policy.offer(group([5, 6], 3.0))    # buffered even though beyond k
        policy.offer(group([2, 3], 0.5))    # evicts both earlier groups
        result = policy.finalize()
        assert [sorted(g.oids) for g in result] == [[2, 3], [5, 6]]

    def test_order_independence(self):
        offers = [group([1, 2], 1.0), group([2, 3], 0.5), group([5, 6], 3.0),
                  group([3, 4], 2.0), group([7, 8], 2.5)]
        import itertools

        reference = None
        for perm in itertools.permutations(offers):
            policy = ExactGroupBuffer(3, 0)
            for g in perm:
                policy.offer(g)
            outcome = [sorted(g.oids) for g in policy.finalize()]
            if reference is None:
                reference = outcome
            assert outcome == reference


    @pytest.mark.parametrize("k,m", [(1, 0), (3, 0), (3, 1), (5, 2)])
    def test_resumed_selection_equals_a_fresh_greedy_filter(self, k, m):
        """The selection is resumed from the newcomer's rank, not walked
        again from the top: after every offer of a seeded sequence —
        distances tie, several offers pass between two reads — it
        equals Definition 3's greedy filter over everything offered."""
        rng = random.Random(100 * k + m)
        policy = ExactGroupBuffer(k, m)
        offered: dict[frozenset, ObjectGroup] = {}
        for _ in range(400):
            candidate = group(rng.sample(range(12), 3), float(rng.randrange(9)))
            policy.offer(candidate)
            offered.setdefault(candidate.oids, candidate)  # first offer wins
            if rng.random() < 0.4:
                continue  # no read between this offer and the next
            expected = []
            for cand in sorted(offered.values(),
                               key=lambda g: (g.distance, sorted(g.oids))):
                if len(expected) < k and all(
                        len(cand.oids & kept.oids) <= m for kept in expected):
                    expected.append(cand)
            assert list(policy.finalize()) == expected
            assert policy.bound() == (
                expected[-1].distance if len(expected) == k else float("inf"))


class TestPaperList:
    def test_eviction_does_not_reconsider(self):
        # The documented deviation: a candidate rejected against a group
        # that is evicted later is lost (DESIGN.md 4.1).
        policy = PaperGroupList(2, 0)
        policy.offer(group([1, 2], 1.0))
        policy.offer(group([3, 4], 2.0))
        policy.offer(group([5, 6], 3.0))    # dropped: list is full (i = k)
        policy.offer(group([2, 3], 0.5))    # evicts [1,2] and [3,4]
        result = policy.finalize()
        assert [sorted(g.oids) for g in result] == [[2, 3]]

    def test_step5_removes_conflicting_farther_groups(self):
        policy = PaperGroupList(3, 0)
        policy.offer(group([1, 2], 2.0))
        policy.offer(group([3, 4], 3.0))
        policy.offer(group([4, 5], 1.0))  # closer; [3,4] now conflicts
        result = policy.finalize()
        assert [sorted(g.oids) for g in result] == [[4, 5], [1, 2]]

    def test_farther_than_full_list_dropped(self):
        policy = PaperGroupList(1, 0)
        policy.offer(group([1, 2], 1.0))
        policy.offer(group([3, 4], 2.0))
        assert [sorted(g.oids) for g in policy.finalize()] == [[1, 2]]
