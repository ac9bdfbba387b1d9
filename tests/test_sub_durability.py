"""Durability tests for standing queries: WAL replay restores
subscriptions with revision continuity, checkpoints capture them, an
unsubscribe is as durable as a subscribe, and a ``kill -9`` mid-burst
resumes exactly where the acked stream left off."""

from __future__ import annotations

import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import NWCEngine, NWCQuery, Scheme
from repro.geometry import PointObject
from repro.index import RStarTree, save_tree
from repro.serve import (
    ConnectionLostError,
    DurabilityConfig,
    ServeClient,
    ServeConfig,
    ServerThread,
    protocol,
    recover,
    wait_until_healthy,
)
from repro.sub import SubscriptionIndex, reconcile, subscription_from_record
from repro.sub.runtime import evaluate_subscription
from tests.conftest import make_uniform_points

POINTS = make_uniform_points(300, span=1000.0, seed=11)

QUERY = NWCQuery(300.0, 300.0, 80.0, 80.0, 4)


def _make_engine(tree=None) -> NWCEngine:
    if tree is None:
        tree = RStarTree.bulk_load(list(POINTS), max_entries=16)
    return NWCEngine(tree, Scheme.NWC_STAR)


def _boot(state_dir, **kwargs):
    return recover(DurabilityConfig(state_dir=str(state_dir), fsync="never",
                                    **kwargs), _make_engine)


def _twin_replay(updates) -> tuple[NWCEngine, int, dict]:
    """Replay the acked update stream through the same reconcile code
    path recovery uses; returns the twin, the expected revision and the
    expected final result."""
    twin = _make_engine()
    index = SubscriptionIndex()
    sub = subscription_from_record(
        {"op": "subscribe", "sub": "s1", "kind": "nwc", "x": QUERY.qx,
         "y": QUERY.qy, "length": QUERY.length, "width": QUERY.width,
         "n": QUERY.n})
    sub.result, sub.insert_radius, sub.delete_radius = \
        evaluate_subscription(twin, sub)
    sub.revision = 1
    index.add(sub)
    version = 0
    for op, obj in updates:
        twin.insert(obj) if op == "insert" else twin.delete(obj)
        version += 1
        reconcile(index, twin, op, obj.x, obj.y, twin.tree.size, version)
    return twin, sub.revision, sub.result


class TestRecovery:
    def test_replay_restores_subscription_and_revision(self, tmp_path):
        engine, durable = _boot(tmp_path / "state")
        updates = []
        with ServerThread(engine, ServeConfig(port=0), durable=durable) as st:
            with ServeClient(port=st.port) as sub_client, \
                    ServeClient(port=st.port) as upd:
                stream = sub_client.subscribe(
                    QUERY.qx, QUERY.qy, QUERY.length, QUERY.width, QUERY.n,
                    sub="s1")
                assert stream.revision == 1
                # Four tight points beat any seed cluster, the far
                # insert is shielded, the delete flips the answer back.
                for op, obj in [
                    ("insert", PointObject(9001, 299.0, 300.0)),
                    ("insert", PointObject(9002, 301.0, 300.0)),
                    ("insert", PointObject(9003, 300.0, 299.0)),
                    ("insert", PointObject(9004, 300.0, 301.0)),
                    ("insert", PointObject(9005, 950.0, 950.0)),  # shielded
                    ("delete", PointObject(9004, 300.0, 301.0)),
                ]:
                    if op == "insert":
                        upd.insert(obj.oid, obj.x, obj.y)
                    else:
                        upd.delete(obj.oid, obj.x, obj.y)
                    updates.append((op, obj))

        twin, expected_revision, expected_result = _twin_replay(updates)
        assert expected_revision >= 3  # cluster formed, then broken

        recovered, durable2 = _boot(tmp_path / "state")
        copy = durable2.subs.get("s1")
        assert copy is not None
        assert copy.revision == expected_revision
        assert copy.version == len(updates)
        assert copy.result == expected_result
        assert copy.result == protocol.serialize_nwc(recovered.nwc(QUERY))
        durable2.close()

    def test_checkpoint_captures_subs_and_tail_continues(self, tmp_path):
        engine, durable = _boot(tmp_path / "state")
        updates = []
        with ServerThread(engine, ServeConfig(port=0), durable=durable) as st:
            with ServeClient(port=st.port) as sub_client, \
                    ServeClient(port=st.port) as upd:
                sub_client.subscribe(QUERY.qx, QUERY.qy, QUERY.length,
                                     QUERY.width, QUERY.n, sub="s1")
                cluster = [PointObject(9001 + i, 299.0 + i, 300.0)
                           for i in range(4)]
                for obj in cluster:
                    upd.insert(obj.oid, obj.x, obj.y)
                    updates.append(("insert", obj))
                report = upd.checkpoint()
                # The subscribe record and the inserts are all behind
                # the checkpoint now; the WAL is empty.
                assert report["wal_records_dropped"] == 5
                obj = cluster[0]
                upd.delete(obj.oid, obj.x, obj.y)
                updates.append(("delete", obj))

        _twin, expected_revision, expected_result = _twin_replay(updates)
        assert expected_revision >= 3  # changed before AND after the cut
        recovered, durable2 = _boot(tmp_path / "state")
        assert durable2.recovery.replayed == 1  # only the tail insert
        copy = durable2.subs.get("s1")
        assert copy is not None
        # The checkpoint carried revision state, the tail replay
        # continued it: no fork, no reset.
        assert copy.revision == expected_revision
        assert copy.result == expected_result
        durable2.close()

    def test_unsubscribe_is_durable(self, tmp_path):
        engine, durable = _boot(tmp_path / "state")
        with ServerThread(engine, ServeConfig(port=0), durable=durable) as st:
            with ServeClient(port=st.port) as sub_client, \
                    ServeClient(port=st.port) as upd:
                sub_client.subscribe(QUERY.qx, QUERY.qy, QUERY.length,
                                     QUERY.width, QUERY.n, sub="s1")
                assert upd.unsubscribe("s1")["removed"] is True
                upd.insert(9001, 301.0, 301.0)

        _recovered, durable2 = _boot(tmp_path / "state")
        assert durable2.subs.get("s1") is None
        assert len(durable2.subs) == 0
        durable2.close()

    def test_state_with_retired_shield_sentinels_recovers(self, tmp_path):
        """Shard workers used to hold a coordinator's fleet subscriptions
        as *shield sentinels*: ``sub_track``/``sub_untrack`` WAL records
        and ``kind: "shield"`` checkpoint entries.  Recovery drops both;
        the tree, the version and the client subscription come out as
        if they had never been written."""
        state_dir = tmp_path / "state"
        _engine, durable = _boot(state_dir)
        subscribe = {"op": "subscribe", "sub": "s1", "kind": "nwc",
                     "x": QUERY.qx, "y": QUERY.qy, "length": QUERY.length,
                     "width": QUERY.width, "n": QUERY.n}
        sentinel = {"op": "sub_track", "sub": "fleet-1", "x": QUERY.qx,
                    "y": QUERY.qy, "n": QUERY.n, "ins": "always",
                    "del": 75.0, "req": "coord-track-1"}
        head = [("insert", PointObject(9001 + i, 299.0 + i, 300.0))
                for i in range(3)]
        durable.wal.append(subscribe)
        durable.wal.append(sentinel)
        for op, obj in head:
            durable.wal.append({"op": op, "oid": obj.oid, "x": obj.x,
                                "y": obj.y})
        durable.close()

        # A checkpoint whose pointer also lists the sentinel, as the
        # worker's SubscriptionIndex.to_state() wrote it.
        engine, durable = _boot(state_dir)
        seq, version = durable.wal.last_seq, durable.recovery.version
        path = durable.state.checkpoint_path(seq)
        save_tree(engine.tree, path)
        shield_state = {"sub": "fleet-1", "kind": "shield",
                        "spec": {"x": QUERY.qx, "y": QUERY.qy,
                                 "n": QUERY.n},
                        "revision": 0, "version": 0, "ins": "always",
                        "del": 75.0}
        durable.state.write_current(os.path.basename(path), seq, version,
                                    durable.dedupe,
                                    durable.subs.to_state() + [shield_state])
        durable.wal.compact(seq, version)
        tail = [("insert", PointObject(9004, 302.0, 300.0)),
                ("delete", PointObject(9001, 299.0, 300.0))]
        durable.wal.append({"op": "sub_track", "sub": "fleet-2",
                            "x": 10.0, "y": 10.0, "n": 2, "ins": 5.0,
                            "del": "never", "req": "coord-track-2"})
        for op, obj in tail:
            durable.wal.append({"op": op, "oid": obj.oid, "x": obj.x,
                                "y": obj.y})
            durable.wal.append({"op": "sub_untrack", "sub": "fleet-1",
                                "req": f"coord-untrack-{obj.oid}"})
        durable.close()

        recovered, durable = _boot(state_dir)
        updates = head + tail
        twin, expected_revision, expected_result = _twin_replay(updates)
        assert recovered.tree.size == twin.tree.size == len(POINTS) + 3
        assert durable.recovery.version == len(updates)
        assert [sub.sub_id for sub in durable.subs.subscriptions()] == ["s1"]
        copy = durable.subs.get("s1")
        assert copy.revision == expected_revision >= 2
        assert copy.result == expected_result
        assert copy.result == protocol.serialize_nwc(recovered.nwc(QUERY))
        assert not any(req.startswith("coord-") for req in durable.dedupe)
        durable.close()


# ----------------------------------------------------------------------
# kill -9 mid-burst: the real CLI server
# ----------------------------------------------------------------------
REPO = Path(__file__).resolve().parents[1]
SERVER_SIZE = 250


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _spawn_server(state_dir, port,
                  crash: str | None = None) -> subprocess.Popen:
    env = os.environ.copy()
    env["PYTHONPATH"] = (str(REPO / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    if crash:
        env["REPRO_CRASH_POINT"] = crash
    else:
        env.pop("REPRO_CRASH_POINT", None)
    command = [sys.executable, "-m", "repro", "serve",
               "--dataset", "uniform", "--size", str(SERVER_SIZE),
               "--port", str(port), "--state-dir", str(state_dir)]
    proc = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        wait_until_healthy("127.0.0.1", port, timeout_s=60)
    except TimeoutError:
        proc.kill()
        raise
    return proc


def _cli_twin() -> NWCEngine:
    from repro.datasets import uniform

    dataset = uniform(SERVER_SIZE)
    tree = RStarTree.bulk_load(dataset.points)
    return NWCEngine(tree, Scheme.NWC_STAR, extent=dataset.extent)


@pytest.mark.slow
class TestKillNineResume:
    def test_resume_after_crash_continues_revisions(self, tmp_path):
        state, port = tmp_path / "state", _free_port()
        # before_ack fires on: subscribe (1), insert (2), insert (3).
        # The server dies after the second insert is durable and
        # applied but before its ack leaves.
        proc = _spawn_server(state, port, crash="before_ack:3")
        query = NWCQuery(500.0, 500.0, 200.0, 200.0, 3)
        crashed = {"op": "insert", "oid": 9002, "x": 505.0, "y": 500.0,
                   "req": "sub-crash-req"}
        try:
            sub_client = ServeClient(port=port, timeout_s=10)
            stream = sub_client.subscribe(query.qx, query.qy, query.length,
                                          query.width, query.n,
                                          sub="standing-crash")
            assert stream.revision == 1
            with ServeClient(port=port, timeout_s=10) as upd:
                upd.insert(9001, 495.0, 500.0)
                with pytest.raises((ConnectionLostError, OSError)):
                    upd.call(dict(crashed))
            sub_client.close()
        finally:
            proc.wait(timeout=30)
        assert proc.returncode == 137

        proc = _spawn_server(state, port)
        try:
            with ServeClient(port=port) as upd:
                replay = upd.call(dict(crashed))
                assert replay.get("deduped") is True
                upd.insert(9003, 500.0, 505.0)
                fresh = upd.nwc(query.qx, query.qy, query.length,
                                query.width, query.n)

            twin = _cli_twin()
            index = SubscriptionIndex()
            sub = subscription_from_record(
                {"op": "subscribe", "sub": "standing-crash", "kind": "nwc",
                 "x": query.qx, "y": query.qy, "length": query.length,
                 "width": query.width, "n": query.n})
            sub.result, sub.insert_radius, sub.delete_radius = \
                evaluate_subscription(twin, sub)
            sub.revision = 1
            index.add(sub)
            for version, (oid, x, y) in enumerate(
                    [(9001, 495.0, 500.0), (9002, 505.0, 500.0),
                     (9003, 500.0, 505.0)], start=1):
                twin.insert(PointObject(oid, x, y))
                reconcile(index, twin, "insert", x, y, twin.tree.size,
                          version)
            assert sub.revision > 1  # the burst actually changed it

            with ServeClient(port=port) as sub_client:
                resumed = sub_client.subscribe(
                    query.qx, query.qy, query.length, query.width, query.n,
                    sub="standing-crash")
                assert resumed.ack.get("resumed") is True
                assert resumed.revision == sub.revision
                assert resumed.result == sub.result
                assert resumed.result == fresh["result"]
        finally:
            proc.terminate()
            proc.wait(timeout=30)
