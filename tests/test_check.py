"""The checker against planted faults: no server, no clock.

Each test feeds :class:`repro.check.Twin` synthetic responses, acks and
frames built from the twin's own answers, then plants one fault a
served answer or a pushed frame can carry, and requires that it is
flagged under its rule while the faultless stream stays clean.
"""

from __future__ import annotations

import pytest

from repro.check import Twin
from repro.core import KNWCQuery, NWCEngine, NWCQuery, Scheme
from repro.geometry import PointObject
from repro.index import RStarTree
from tests.conftest import make_uniform_points

POINTS = make_uniform_points(300, span=1000.0, seed=11)
QUERY = NWCQuery(300.0, 300.0, 80.0, 80.0, 4)

#: Four tight points beat any seed cluster, the far insert is shielded,
#: the delete breaks the cluster again.
SCRIPT = [("insert", PointObject(9001, 299.0, 300.0)),
          ("insert", PointObject(9002, 301.0, 300.0)),
          ("insert", PointObject(9003, 300.0, 299.0)),
          ("insert", PointObject(9004, 300.0, 301.0)),
          ("insert", PointObject(9005, 950.0, 950.0)),
          ("delete", PointObject(9004, 300.0, 301.0))]


def _twin() -> Twin:
    tree = RStarTree.bulk_load(list(POINTS), max_entries=16)
    return Twin(NWCEngine(tree, Scheme.NWC_STAR))


def _response(twin: Twin, query, **fields) -> dict:
    """A served answer as the twin would give it."""
    result, accesses = twin.answer(query)
    return {"ok": True, "op": "nwc", "version": 0, "cached": False,
            "result": result, "stats": {"node_accesses": accesses}} | fields


def _ack(twin: Twin) -> dict:
    return {"ok": True, "op": "subscribe", "sub": "s1", "kind": "nwc",
            "version": 0, "revision": 1, "result": twin.answer(QUERY)[0]}


@pytest.fixture()
def stream():
    """A twin that followed ``s1`` over :data:`SCRIPT`, and the frames a
    correct server pushed for it: one per answer change, at the version
    of the update that made it."""
    twin = _twin()
    assert twin.check_subscribe(QUERY, _ack(twin))
    for version, (op, obj) in enumerate(SCRIPT, start=1):
        assert twin.check_update(op, obj, {"version": version,
                                           "deleted": True})
    answers = twin.subs["s1"].answers
    frames, previous = [], answers[0]
    for version in sorted(answers):
        if answers[version] != previous:
            previous = answers[version]
            frames.append({"op": "notify", "sub": "s1",
                           "revision": len(frames) + 2,
                           "version": version, "result": previous})
    assert len(frames) >= 2  # the script moves the answer twice or more
    return twin, frames


def _deliver(twin: Twin, frames: list[dict], exact: bool = True) -> Twin:
    for frame in frames:
        twin.check_frame(frame)
    twin.check_delivery(exact)
    return twin


class TestAnswers:
    def test_exact_answers_pass(self):
        twin = _twin()
        knwc = KNWCQuery.make(500.0, 500.0, 60.0, 60.0, 3, 3, 1)
        assert twin.check_answer(QUERY, _response(twin, QUERY))
        assert twin.check_answer(knwc, _response(twin, knwc, op="knwc"))
        assert (twin.checked, twin.mismatches) == (2, 0)

    def test_wrong_result_bytes_is_flagged(self):
        twin = _twin()
        response = _response(twin, QUERY)
        group = response["result"]["group"]
        response["result"] = response["result"] | {
            "group": group | {"distance": group["distance"] + 1e-9}}
        assert not twin.check_answer(QUERY, response)
        assert twin.faults == {"result": 1}
        assert twin.examples[0]["version"] == 0

    def test_doctored_node_accesses_is_a_mismatch(self):
        """Node accesses are compared on an uncached single-engine
        answer only: a cache hit searched nothing, a fleet sums the
        searches of its shards."""
        twin = _twin()
        accesses = twin.answer(QUERY)[1]
        doctored = {"node_accesses": accesses + 1}
        assert twin.check_answer(QUERY, _response(twin, QUERY))
        assert twin.check_answer(
            QUERY, _response(twin, QUERY, cached=True, stats=doctored))
        assert twin.check_answer(
            QUERY, _response(twin, QUERY, shards={"fanout": 2},
                             stats=doctored))
        assert twin.mismatches == 0
        assert not twin.check_answer(
            QUERY, _response(twin, QUERY, stats=doctored))
        assert twin.faults == {"node_accesses": 1}
        assert twin.examples[0]["node_accesses"] == [accesses + 1, accesses]

    def test_delete_not_found_that_the_twin_holds_is_flagged(self):
        twin = _twin()
        held, absent = POINTS[0], PointObject(777_777, 1.0, 1.0)
        assert twin.check_update("delete", absent,
                                 {"version": 0, "deleted": False})
        assert not twin.check_update("delete", held,
                                     {"version": 0, "deleted": False})
        assert twin.faults == {"delete": 1}

    def test_served_objects_must_be_the_acked_ones(self):
        twin = _twin()
        obj = PointObject(9001, 5.0, 5.0)
        twin.check_update("insert", obj, {"version": 1})
        assert twin.check_objects([*POINTS, obj])
        assert not twin.check_objects(POINTS)
        assert twin.faults == {"objects": 1}


class TestFrames:
    def test_correct_stream_passes(self, stream):
        twin, frames = stream
        assert twin.pending() == len(frames)
        _deliver(twin, frames)
        assert twin.pending() == 0
        assert twin.mismatches == 0, twin.examples

    def test_subscribe_ack_that_does_not_match_is_flagged(self):
        twin = _twin()
        ack = _ack(twin)
        ack["result"] = twin.answer(NWCQuery(700.0, 700.0, 80.0, 80.0, 4))[0]
        assert not twin.check_subscribe(QUERY, ack)
        assert twin.faults == {"ack": 1}

    def test_skipped_revision_is_flagged(self, stream):
        twin, frames = stream
        frames[0] = frames[0] | {"revision": 3}
        _deliver(twin, frames)
        assert twin.faults["revision"] >= 1
        assert twin.spurious >= 1

    def test_frame_at_another_version_is_flagged(self, stream):
        twin, frames = stream
        # The first change's answer, stamped with the second change's
        # version, where the fresh answer is a different one.
        assert not twin.check_frame(frames[0] | {"version":
                                                 frames[1]["version"]})
        assert twin.faults == {"version": 1}

    def test_frame_at_an_unacked_version_is_flagged(self, stream):
        twin, frames = stream
        assert not twin.check_frame(frames[0] | {"version": 10_000})
        assert twin.faults == {"version": 1}

    def test_frame_that_repeats_the_previous_result_is_flagged(self, stream):
        twin, frames = stream
        ack_result = twin.subs["s1"].answers[0]
        assert not twin.check_frame(frames[0] | {"result": ack_result,
                                                 "version": 0})
        assert twin.faults == {"repeat": 1}

    def test_frame_of_an_unknown_subscription_is_flagged(self, stream):
        twin, frames = stream
        assert not twin.check_frame(frames[0] | {"sub": "s2"})
        assert twin.faults == {"unknown": 1}


class TestDelivery:
    def test_change_never_delivered_is_missed(self, stream):
        twin, frames = stream
        _deliver(twin, frames[:-1])
        assert twin.faults == {"missed": 1}
        assert twin.missed == 1

    def test_extra_frame_is_flagged(self, stream):
        """Frames that each match the fresh answer at their version but
        add up to more changes than there were."""
        twin, frames = stream
        back = {"op": "notify", "sub": "s1", "version": 0,
                "result": twin.subs["s1"].answers[0]}
        extra = [back | {"revision": len(frames) + 2},
                 frames[-1] | {"revision": len(frames) + 3}]
        _deliver(twin, frames + extra)
        assert twin.faults == {"extra": 2}

    def test_fault_run_accepts_coalesced_pushes(self, stream):
        """With faults injected, pushes may coalesce: only the last
        frame must be the final answer."""
        twin, frames = stream
        last = frames[-1] | {"revision": 2}
        _deliver(twin, [last], exact=False)
        assert twin.mismatches == 0, twin.examples

    def test_last_frame_that_never_converged_is_flagged(self, stream):
        twin, frames = stream
        _deliver(twin, frames[:-1], exact=False)
        assert twin.faults == {"unconverged": 1}
        assert twin.missed == 1
