"""Durability and crash-recovery tests for the serving layer.

Three layers of proof, increasingly end-to-end:

* **In-process recovery** — drive a durable :class:`ServerThread`,
  then :func:`~repro.serve.durability.recover` the state directory and
  assert the recovered engine answers bit-identically to a twin that
  applied exactly the acknowledged updates (and that torn WAL tails
  are dropped while body corruption raises typed errors).
* **Crash-window state surgery** — hand-build the on-disk states a
  crash can leave between checkpoint steps (orphan checkpoint, updated
  ``CURRENT`` with an uncompacted WAL, anchor mismatch) and assert
  recovery handles each one.
* **Seeded subprocess crashes** — boot the real CLI server with
  ``REPRO_CRASH_POINT`` so it dies *mid-protocol* (between WAL append
  and ack, mid-checkpoint, mid-compaction), reboot it, and assert
  exactly-once semantics through request-id dedupe.
"""

from __future__ import annotations

import functools
import os
import random
import socket
import subprocess
import sys
import threading
import time
from collections import OrderedDict
from pathlib import Path

import pytest

from repro.core import NWCEngine, NWCQuery, Scheme
from repro.geometry import PointObject
from repro.index import RStarTree, load_tree, save_tree
from repro.serve import (
    BackoffPolicy,
    ConnectionLostError,
    DurabilityConfig,
    RemoteError,
    RetryPolicy,
    ServeClient,
    ServeConfig,
    ServerState,
    ServerThread,
    Supervisor,
    SupervisorConfig,
    protocol,
    recover,
    run_loadgen,
    wait_until_healthy,
)
from repro.serve.backoff import retry_deadline
from repro.serve.loadgen import LoadgenConfig, LoadMix
from repro.storage.wal import (
    WalCorruptionError,
    WalError,
    WriteAheadLog,
)
from tests.conftest import make_uniform_points
from tests.faults import append_garbage, garble_wal_record

POINTS = make_uniform_points(300, span=1000.0, seed=11)

QUERIES = [NWCQuery(200.0, 300.0, 80.0, 80.0, 4),
           NWCQuery(700.0, 100.0, 120.0, 60.0, 3),
           NWCQuery(500.0, 500.0, 100.0, 100.0, 5)]


def _make_engine(tree=None) -> NWCEngine:
    if tree is None:
        tree = RStarTree.bulk_load(list(POINTS), max_entries=16)
    return NWCEngine(tree, Scheme.NWC_STAR)


def _answers(engine: NWCEngine) -> list[dict]:
    return [protocol.serialize_nwc(engine.nwc(q)) for q in QUERIES]


def _objects(engine: NWCEngine) -> list[tuple[int, float, float]]:
    return sorted((p.oid, p.x, p.y) for p in engine.tree.iter_objects())


def _boot(state_dir, **kwargs):
    return recover(DurabilityConfig(state_dir=str(state_dir), fsync="never",
                                    **kwargs), _make_engine)


class TestRecovery:
    def test_first_boot_serves_seed_dataset(self, tmp_path):
        engine, durable = _boot(tmp_path / "state")
        assert engine.tree.size == len(POINTS)
        assert durable.recovery.version == 0
        assert durable.recovery.replayed == 0
        durable.close()

    def test_recovery_equals_twin_of_acked_updates(self, tmp_path):
        engine, durable = _boot(tmp_path / "state")
        acked: list[tuple[str, PointObject]] = []
        with ServerThread(engine, ServeConfig(port=0), durable=durable) as st:
            with ServeClient(port=st.port) as client:
                for i in range(12):
                    obj = PointObject(10_000_000 + i, 150.0 + 40.0 * i,
                                      900.0 - 50.0 * i)
                    client.insert(obj.oid, obj.x, obj.y)
                    acked.append(("insert", obj))
                for i in (1, 4, 7):
                    obj = acked[i][1]
                    client.delete(obj.oid, obj.x, obj.y)
                    acked.append(("delete", obj))
                final_version = client.health()["version"]

        twin = _make_engine()
        for op, obj in acked:
            twin.insert(obj) if op == "insert" else twin.delete(obj)
        recovered, durable2 = _boot(tmp_path / "state")
        assert durable2.recovery.version == final_version
        assert durable2.recovery.replayed == len(acked)
        assert _objects(recovered) == _objects(twin)
        assert _answers(recovered) == _answers(twin)
        durable2.close()

    def test_checkpoint_then_tail_replay(self, tmp_path):
        engine, durable = _boot(tmp_path / "state")
        with ServerThread(engine, ServeConfig(port=0), durable=durable) as st:
            with ServeClient(port=st.port) as client:
                for i in range(6):
                    client.insert(10_000_000 + i, 100.0 + i, 100.0 + i)
                report = client.checkpoint()
                assert report["seq"] == 6
                assert report["wal_records_dropped"] == 6
                for i in range(3):
                    client.insert(10_000_100 + i, 300.0 + i, 300.0 + i)

        recovered, durable2 = _boot(tmp_path / "state")
        assert durable2.recovery.checkpoint_seq == 6
        assert durable2.recovery.replayed == 3
        assert durable2.recovery.version == 9
        assert recovered.tree.size == len(POINTS) + 9
        durable2.close()

    def test_torn_wal_tail_dropped_on_recovery(self, tmp_path):
        engine, durable = _boot(tmp_path / "state")
        state = durable.state
        with ServerThread(engine, ServeConfig(port=0), durable=durable) as st:
            with ServeClient(port=st.port) as client:
                for i in range(5):
                    client.insert(10_000_000 + i, 100.0 + i, 100.0 + i)
        append_garbage(state.wal_path, 41, random.Random(2))

        twin = _make_engine()
        for i in range(5):
            twin.insert(PointObject(10_000_000 + i, 100.0 + i, 100.0 + i))
        recovered, durable2 = _boot(tmp_path / "state")
        assert durable2.recovery.truncated_bytes == 41
        assert durable2.recovery.replayed == 5
        assert _answers(recovered) == _answers(twin)
        durable2.close()

    def test_wal_body_corruption_is_a_typed_error(self, tmp_path):
        engine, durable = _boot(tmp_path / "state")
        state = durable.state
        with ServerThread(engine, ServeConfig(port=0), durable=durable) as st:
            with ServeClient(port=st.port) as client:
                for i in range(6):
                    client.insert(10_000_000 + i, 100.0 + i, 100.0 + i)
        garble_wal_record(state.wal_path, 2, random.Random(7))
        with pytest.raises(WalCorruptionError):
            _boot(tmp_path / "state")


class TestCrashWindows:
    """Hand-built on-disk states from every checkpoint crash window."""

    def _state_with_wal(self, tmp_path, records):
        state = ServerState(tmp_path / "state")
        wal = WriteAheadLog(state.wal_path, fsync="never", create=True)
        for record in records:
            wal.append(record)
        wal.close()
        return state

    def _insert_records(self, count):
        return [{"op": "insert", "oid": 10_000_000 + i,
                 "x": 100.0 + i, "y": 100.0 + i} for i in range(count)]

    def test_orphan_checkpoint_without_current_is_ignored(self, tmp_path):
        # Crash after step 1 (tree saved) but before step 2 (CURRENT
        # repointed): recovery must replay the full WAL over the seed.
        records = self._insert_records(5)
        state = self._state_with_wal(tmp_path, records)
        after3 = _make_engine()
        for record in records[:3]:
            after3.insert(PointObject(record["oid"], record["x"], record["y"]))
        save_tree(after3.tree, state.checkpoint_path(3))

        recovered, durable = _boot(tmp_path / "state")
        assert durable.recovery.checkpoint_seq == 0
        assert durable.recovery.replayed == 5
        assert recovered.tree.size == len(POINTS) + 5
        durable.close()

    def test_current_updated_but_wal_not_compacted(self, tmp_path):
        # Crash after step 2 (CURRENT repointed) but before step 3
        # (compaction): replay must skip the checkpointed prefix.
        records = self._insert_records(5)
        state = self._state_with_wal(tmp_path, records)
        after3 = _make_engine()
        for record in records[:3]:
            after3.insert(PointObject(record["oid"], record["x"], record["y"]))
        save_tree(after3.tree, state.checkpoint_path(3))
        state.write_current(os.path.basename(state.checkpoint_path(3)),
                            seq=3, version=3, dedupe=OrderedDict())

        twin = _make_engine()
        for record in records:
            twin.insert(PointObject(record["oid"], record["x"], record["y"]))
        recovered, durable = _boot(tmp_path / "state")
        assert durable.recovery.checkpoint_seq == 3
        assert durable.recovery.skipped == 3
        assert durable.recovery.replayed == 2
        assert durable.recovery.version == 5
        assert _objects(recovered) == _objects(twin)
        durable.close()

    def test_wal_anchored_past_checkpoint_is_refused(self, tmp_path):
        # A WAL that starts *after* the checkpoint it is paired with has
        # lost records; recovery must refuse, not silently under-apply.
        state = ServerState(tmp_path / "state")
        save_tree(_make_engine().tree, state.checkpoint_path(5))
        state.write_current(os.path.basename(state.checkpoint_path(5)),
                            seq=5, version=5, dedupe=OrderedDict())
        WriteAheadLog(state.wal_path, fsync="never", create=True,
                      base_seq=10, base_version=10).close()
        with pytest.raises(WalError, match="missing"):
            _boot(tmp_path / "state")

    def test_current_naming_missing_checkpoint_is_refused(self, tmp_path):
        state = ServerState(tmp_path / "state")
        save_tree(_make_engine().tree, state.checkpoint_path(2))
        state.write_current(os.path.basename(state.checkpoint_path(2)),
                            seq=2, version=2, dedupe=OrderedDict())
        os.unlink(state.checkpoint_path(2))
        with pytest.raises(WalError, match="missing checkpoint"):
            _boot(tmp_path / "state")


class TestDedupe:
    def test_repeated_request_id_applies_once(self, tmp_path):
        engine, durable = _boot(tmp_path / "state")
        with ServerThread(engine, ServeConfig(port=0), durable=durable) as st:
            with ServeClient(port=st.port) as client:
                first = client.call({"op": "insert", "oid": 1, "x": 5.0,
                                     "y": 5.0, "req": "r-1"})
                second = client.call({"op": "insert", "oid": 1, "x": 5.0,
                                      "y": 5.0, "req": "r-1"})
                assert second.get("deduped") is True
                assert second["version"] == first["version"]
                assert second["size"] == first["size"]
                assert "deduped" not in first

    def test_dedupe_active_without_state_dir(self):
        with ServerThread(_make_engine(), ServeConfig(port=0)) as st:
            with ServeClient(port=st.port) as client:
                first = client.call({"op": "delete", "oid": POINTS[0].oid,
                                     "x": POINTS[0].x, "y": POINTS[0].y,
                                     "req": "d-1"})
                assert first["deleted"] is True
                second = client.call({"op": "delete", "oid": POINTS[0].oid,
                                      "x": POINTS[0].x, "y": POINTS[0].y,
                                      "req": "d-1"})
                assert second.get("deduped") is True
                assert second["deleted"] is True  # the remembered outcome
                assert second["size"] == first["size"]

    def test_invalid_request_id_rejected(self):
        with ServerThread(_make_engine(), ServeConfig(port=0)) as st:
            with ServeClient(port=st.port) as client:
                with pytest.raises(RemoteError, match="req"):
                    client.call({"op": "insert", "oid": 1, "x": 1.0,
                                 "y": 1.0, "req": ""})
                with pytest.raises(RemoteError, match="req"):
                    client.call({"op": "insert", "oid": 1, "x": 1.0,
                                 "y": 1.0, "req": "x" * 200})

    def test_dedupe_survives_restart(self, tmp_path):
        engine, durable = _boot(tmp_path / "state")
        with ServerThread(engine, ServeConfig(port=0), durable=durable) as st:
            with ServeClient(port=st.port) as client:
                first = client.call({"op": "insert", "oid": 7, "x": 9.0,
                                     "y": 9.0, "req": "boot-1"})
        engine2, durable2 = _boot(tmp_path / "state")
        with ServerThread(engine2, ServeConfig(port=0),
                          durable=durable2) as st:
            with ServeClient(port=st.port) as client:
                replay = client.call({"op": "insert", "oid": 7, "x": 9.0,
                                      "y": 9.0, "req": "boot-1"})
                assert replay.get("deduped") is True
                assert replay["version"] == first["version"]
                assert replay["size"] == first["size"]

    def test_live_acks_equal_the_acks_recovery_rebuilds(self, tmp_path):
        """Each served insert, delete (no-op included), subscribe and
        unsubscribe ack is the one replay files under its ``req``, and
        replayed subscriptions land on the live revisions."""
        engine, durable = _boot(tmp_path / "state")
        rng = random.Random(39)
        live, acks, streams = list(POINTS), {}, []
        with ServerThread(engine, ServeConfig(port=0), durable=durable) as st:
            with ServeClient(port=st.port) as client:
                for i in range(40):
                    frame = {"id": i, "req": f"mix-{i}"}
                    if i in (3, 17):  # each stream on its own connection
                        streams.append(ServeClient(port=st.port))
                        frame |= {"op": "subscribe", "x": 500.0, "y": 500.0,
                                  "length": 100.0, "width": 100.0, "n": 4}
                        if i == 17:
                            frame |= {"k": 2, "m": 1}
                        acks[i] = streams[-1].call(frame)
                        continue
                    if i == 30:
                        frame |= {"op": "unsubscribe", "sub": acks[3]["sub"]}
                    elif i == 9:
                        frame |= {"op": "delete", "oid": 1, "x": -5.0,
                                  "y": -5.0}
                    elif rng.random() < 0.5:
                        obj = PointObject(20_000 + i, rng.uniform(420, 580),
                                          rng.uniform(420, 580))
                        live.append(obj)
                        frame |= {"op": "insert", "oid": obj.oid,
                                  "x": obj.x, "y": obj.y}
                    else:
                        obj = live.pop(rng.randrange(len(live)))
                        frame |= {"op": "delete", "oid": obj.oid,
                                  "x": obj.x, "y": obj.y}
                    acks[i] = client.call(frame)
            for stream in streams:
                stream.close()
        assert acks[9]["deleted"] is False and acks[30]["removed"] is True
        state = lambda subs: {sub.sub_id: (sub.revision, sub.version,  # noqa: E731
                                           sub.result)
                              for sub in subs.subscriptions()}
        _, durable2 = _boot(tmp_path / "state")
        for i, ack in acks.items():
            rebuilt = protocol.decode_line(protocol.encode_line(
                durable2.dedupe[f"mix-{i}"]))
            assert rebuilt == {k: v for k, v in ack.items() if k != "id"}
        assert state(durable2.subs) == state(st.server.subs)
        assert max(rev for rev, _, _ in state(durable2.subs).values()) > 1
        durable2.close()


class TestClientRobustness:
    def test_init_closes_socket_when_makefile_fails(self, monkeypatch):
        """Satellite: the constructor must not leak the raw socket."""
        closed = []

        class ExplodingSocket:
            def makefile(self, mode):
                raise OSError("injected makefile failure")

            def close(self):
                closed.append(True)

        monkeypatch.setattr(socket, "create_connection",
                            lambda address, timeout: ExplodingSocket())
        with pytest.raises(OSError, match="injected makefile"):
            ServeClient("127.0.0.1", 1)
        assert closed == [True]

    def test_wait_until_healthy_backs_off_exponentially(self, monkeypatch):
        """The polling schedule itself, on a virtual clock: sleeping
        advances ``monotonic`` and nothing else does."""
        class VirtualClock:
            def __init__(self):
                self.now = 100.0
                self.sleeps = []  # (clock before the sleep, duration)

            def monotonic(self):
                return self.now

            def sleep(self, duration):
                self.sleeps.append((self.now, duration))
                self.now += duration

        clock = VirtualClock()
        attempts = []

        def refuse(self, *args, **kwargs):
            attempts.append(clock.now)
            raise OSError("connection refused (test)")

        monkeypatch.setattr(ServeClient, "__init__", refuse)
        monkeypatch.setattr("repro.serve.backoff.time", clock)
        monkeypatch.setattr("repro.serve.client.time", clock)
        # retry_deadline bound the real time.sleep as its default.
        monkeypatch.setattr(
            "repro.serve.client.retry_deadline",
            functools.partial(retry_deadline, sleep=clock.sleep))
        deadline = clock.now + 1.0
        with pytest.raises(TimeoutError, match="connection refused"):
            wait_until_healthy("127.0.0.1", 1, timeout_s=1.0,
                               interval_s=0.05)
        assert attempts[0] == 100.0  # the first attempt is immediate
        assert len(attempts) == len(clock.sleeps) + 1
        # 0.05, 0.1, 0.2, 0.4, 0.8, 1.0: five or six delays fill a second
        # (fixed 0.05 s polling would make twenty attempts).
        assert 6 <= len(attempts) <= 8
        for i, (before, slept) in enumerate(clock.sleeps):
            full = min(1.0, 0.05 * 2 ** i)
            # Jitter only shortens, by at most half; a delay that would
            # pass the deadline is clipped to end on it.
            assert slept <= full
            assert slept >= full / 2 or slept == deadline - before
        before, slept = clock.sleeps[-1]
        assert slept == deadline - before
        assert deadline <= clock.now == pytest.approx(deadline)

    def test_retry_rides_through_server_restart(self, tmp_path):
        engine, durable = _boot(tmp_path / "state")
        thread_a = ServerThread(engine, ServeConfig(port=0), durable=durable)
        thread_a.start()
        port = thread_a.port
        client = ServeClient(port=port, retry=RetryPolicy(
            max_attempts=8, backoff=BackoffPolicy(initial_s=0.05, max_s=0.4)),
            seed=5)
        for i in range(3):
            client.insert(10_000_000 + i, 50.0 + i, 50.0 + i)
        thread_a.stop()

        def restart():
            time.sleep(0.3)
            engine2, durable2 = _boot(tmp_path / "state")
            thread_b = ServerThread(engine2, ServeConfig(port=port),
                                    durable=durable2)
            thread_b.start()
            restarted.append(thread_b)

        restarted: list[ServerThread] = []
        threading.Thread(target=restart, daemon=True).start()
        try:
            response = client.insert(10_000_100, 40.0, 40.0)
            assert response["version"] == 4
            assert client.reconnects >= 1
            assert client.retries >= 1
        finally:
            client.close()
            for thread in restarted:
                thread.stop()

    def test_loadgen_reports_retry_and_error_breakdown(self, tmp_path):
        engine, durable = _boot(tmp_path / "state")
        with ServerThread(engine, ServeConfig(port=0), durable=durable) as st:
            config = LoadgenConfig(
                port=st.port, workers=2, requests_per_worker=20,
                query_pool=8, seed=3, retry=RetryPolicy(max_attempts=3),
                mix=LoadMix(nwc=0.6, knwc=0.1, insert=0.2, delete=0.1),
            )
            report = run_loadgen(config, _dataset(), verify_engine=_make_engine())
        assert report.mismatches == 0
        assert report.errors == 0
        data = report.to_dict()
        assert data["retries"] == 0 and data["reconnects"] == 0
        assert isinstance(data["error_codes"], dict)
        assert "retries: 0   reconnects: 0" in report.format()


def _dataset():
    from repro.datasets import Dataset
    from repro.geometry import Rect

    xs = [p.x for p in POINTS]
    ys = [p.y for p in POINTS]
    return Dataset(name="test", points=tuple(POINTS),
                   extent=Rect(min(xs), min(ys), max(xs), max(ys)))


class TestSnapshotUnderConcurrentUpdates:
    def test_snapshot_version_matches_serialized_tree(self, tmp_path):
        """Satellite: the version a snapshot reports must be the version
        of the tree bytes it wrote — even while inserts stream in and
        WAL checkpoints run concurrently."""
        engine, durable = _boot(tmp_path / "state", checkpoint_every=8)
        seed_oids = sorted(p.oid for p in POINTS)
        planned = [PointObject(10_000_000 + i, 120.0 + 3.0 * i,
                               880.0 - 2.0 * i) for i in range(60)]
        sent: list[PointObject] = []
        stop = threading.Event()
        failures: list[Exception] = []

        def updater(port):
            try:
                with ServeClient(port=port) as client:
                    for obj in planned:
                        if stop.is_set():
                            break
                        sent.append(obj)  # append *before* send: len(sent)
                        client.insert(obj.oid, obj.x, obj.y)  # >= version
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        with ServerThread(engine, ServeConfig(port=0), durable=durable) as st:
            thread = threading.Thread(target=updater, args=(st.port,),
                                      daemon=True)
            thread.start()
            try:
                with ServeClient(port=st.port) as client:
                    for i in range(6):
                        path = str(tmp_path / f"snap{i}.pages")
                        response = client.snapshot(path)
                        version = response["version"]
                        loaded = load_tree(path)
                        # Insert-only workload: version == applied inserts.
                        assert loaded.size == len(POINTS) + version
                        expected = sorted(
                            seed_oids + [o.oid for o in sent[:version]])
                        assert sorted(
                            p.oid for p in loaded.iter_objects()) == expected
                        # Twin reload: the serialized tree answers like an
                        # engine that applied exactly those inserts.
                        twin = _make_engine()
                        for obj in sent[:version]:
                            twin.insert(obj)
                        assert (_answers(NWCEngine(loaded, Scheme.NWC_STAR))
                                == _answers(twin))
                        time.sleep(0.02)
                    health = client.health()
            finally:
                stop.set()
                thread.join(timeout=30)
        assert not failures
        durability = health["durability"]
        # checkpoint_every=8 with tens of inserts: compaction really ran
        # while snapshots were being taken.
        assert durability["wal_records"] < len(sent)


class TestSupervisor:
    BACKOFF = BackoffPolicy(initial_s=0.01, max_s=0.05)

    def _script(self, tmp_path, fail_times: int) -> list[str]:
        counter = tmp_path / "count"
        script = (
            "import os, sys\n"
            f"path = {str(counter)!r}\n"
            "runs = int(open(path).read()) if os.path.exists(path) else 0\n"
            "open(path, 'w').write(str(runs + 1))\n"
            f"sys.exit(1 if runs < {fail_times} else 0)\n"
        )
        return [sys.executable, "-c", script]

    def test_restarts_until_clean_exit(self, tmp_path):
        supervisor = Supervisor(
            self._script(tmp_path, fail_times=2),
            SupervisorConfig(backoff=self.BACKOFF, healthy_after_s=60.0,
                             pid_file=str(tmp_path / "pid")),
            seed=1,
        )
        assert supervisor.run(handle_signals=False) == 0
        assert supervisor.restarts == 2
        assert not os.path.exists(tmp_path / "pid")

    def test_max_restarts_gives_up_with_child_code(self, tmp_path):
        command = [sys.executable, "-c", "import sys; sys.exit(3)"]
        supervisor = Supervisor(
            command,
            SupervisorConfig(backoff=self.BACKOFF, max_restarts=2),
            seed=1,
        )
        assert supervisor.run(handle_signals=False) == 3
        assert supervisor.restarts == 3

    def test_pid_file_points_at_live_child(self, tmp_path):
        pid_file = tmp_path / "nested" / "server.pid"
        script = ("import os, time\n"
                  f"while not os.path.exists({str(tmp_path / 'go')!r}):\n"
                  "    time.sleep(0.01)\n")
        supervisor = Supervisor(
            [sys.executable, "-c", script],
            SupervisorConfig(backoff=self.BACKOFF, pid_file=str(pid_file)),
            seed=1,
        )
        outcome: list[int] = []
        thread = threading.Thread(
            target=lambda: outcome.append(
                supervisor.run(handle_signals=False)), daemon=True)
        thread.start()
        deadline = time.monotonic() + 10
        while not pid_file.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        pid = int(pid_file.read_text())
        os.kill(pid, 0)  # alive
        (tmp_path / "go").write_text("")
        thread.join(timeout=10)
        assert outcome == [0]


# ----------------------------------------------------------------------
# Seeded subprocess crashes: the real CLI server dying mid-protocol
# ----------------------------------------------------------------------
REPO = Path(__file__).resolve().parents[1]
SERVER_SIZE = 250


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _spawn_server(state_dir, port, crash: str | None = None,
                  extra: list[str] | None = None) -> subprocess.Popen:
    env = os.environ.copy()
    env["PYTHONPATH"] = (str(REPO / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    if crash:
        env["REPRO_CRASH_POINT"] = crash
    else:
        env.pop("REPRO_CRASH_POINT", None)
    command = [sys.executable, "-m", "repro", "serve",
               "--dataset", "uniform", "--size", str(SERVER_SIZE),
               "--port", str(port), "--state-dir", str(state_dir),
               *(extra or [])]
    proc = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        wait_until_healthy("127.0.0.1", port, timeout_s=60)
    except TimeoutError:
        proc.kill()
        raise
    return proc


def _cli_twin() -> NWCEngine:
    """An engine built the way ``repro serve`` builds its own."""
    from repro.datasets import uniform

    dataset = uniform(SERVER_SIZE)
    tree = RStarTree.bulk_load(dataset.points)
    return NWCEngine(tree, Scheme.NWC_STAR, extent=dataset.extent)


def _assert_matches_twin(port: int, twin: NWCEngine) -> None:
    with ServeClient(port=port) as client:
        for query in QUERIES:
            served = client.nwc(query.qx, query.qy, query.length,
                                query.width, query.n)
            assert served["result"] == protocol.serialize_nwc(twin.nwc(query))


@pytest.mark.slow
class TestSeededSubprocessCrashes:
    def test_kill_between_append_and_ack_is_exactly_once(self, tmp_path):
        state, port = tmp_path / "state", _free_port()
        proc = _spawn_server(state, port, crash="before_ack:3")
        payload = {"op": "insert", "oid": 10_000_002, "x": 42.0, "y": 43.0,
                   "req": "crash-req"}
        try:
            with ServeClient(port=port, timeout_s=10) as client:
                client.insert(10_000_000, 40.0, 40.0)
                client.insert(10_000_001, 41.0, 42.0)
                # The third update dies after the WAL append + apply but
                # before the ack reaches us.
                with pytest.raises((ConnectionLostError, OSError)):
                    client.call(payload)
        finally:
            proc.wait(timeout=30)
        assert proc.returncode == 137

        proc = _spawn_server(state, port)
        try:
            with ServeClient(port=port) as client:
                replay = client.call(dict(payload))
                # The record survived and was replayed; the resend must
                # dedupe, not double-apply.
                assert replay.get("deduped") is True
                assert replay["version"] == 3
                assert replay["size"] == SERVER_SIZE + 3
            twin = _cli_twin()
            twin.insert(PointObject(10_000_000, 40.0, 40.0))
            twin.insert(PointObject(10_000_001, 41.0, 42.0))
            twin.insert(PointObject(10_000_002, 42.0, 43.0))
            _assert_matches_twin(port, twin)
        finally:
            proc.terminate()
            proc.wait(timeout=30)

    def test_kill_mid_checkpoint_keeps_full_wal(self, tmp_path):
        state, port = tmp_path / "state", _free_port()
        proc = _spawn_server(state, port, crash="mid_checkpoint")
        try:
            with ServeClient(port=port, timeout_s=10) as client:
                for i in range(5):
                    client.insert(10_000_000 + i, 60.0 + i, 60.0 + i)
                with pytest.raises((ConnectionLostError, OSError)):
                    client.checkpoint()
        finally:
            proc.wait(timeout=30)
        assert proc.returncode == 137

        proc = _spawn_server(state, port)
        try:
            with ServeClient(port=port) as client:
                recovery = client.health()["durability"]["recovery"]
                # CURRENT was never repointed: the full log replays.
                assert recovery["checkpoint_seq"] == 0
                assert recovery["replayed"] == 5
                assert recovery["version"] == 5
            twin = _cli_twin()
            for i in range(5):
                twin.insert(PointObject(10_000_000 + i, 60.0 + i, 60.0 + i))
            _assert_matches_twin(port, twin)
        finally:
            proc.terminate()
            proc.wait(timeout=30)

    def test_kill_mid_compaction_skips_checkpointed_prefix(self, tmp_path):
        state, port = tmp_path / "state", _free_port()
        proc = _spawn_server(state, port, crash="mid_compact")
        try:
            with ServeClient(port=port, timeout_s=10) as client:
                for i in range(5):
                    client.insert(10_000_000 + i, 60.0 + i, 60.0 + i)
                with pytest.raises((ConnectionLostError, OSError)):
                    client.checkpoint()
        finally:
            proc.wait(timeout=30)
        assert proc.returncode == 137

        proc = _spawn_server(state, port)
        try:
            with ServeClient(port=port) as client:
                recovery = client.health()["durability"]["recovery"]
                # CURRENT points at seq 5; the uncompacted log's records
                # are all skipped by sequence number.
                assert recovery["checkpoint_seq"] == 5
                assert recovery["skipped"] == 5
                assert recovery["replayed"] == 0
                assert recovery["version"] == 5
            twin = _cli_twin()
            for i in range(5):
                twin.insert(PointObject(10_000_000 + i, 60.0 + i, 60.0 + i))
            _assert_matches_twin(port, twin)
        finally:
            proc.terminate()
            proc.wait(timeout=30)

    def test_kill_inside_wal_append_converges_via_dedupe(self, tmp_path):
        state, port = tmp_path / "state", _free_port()
        proc = _spawn_server(state, port, crash="wal_append:2")
        payload = {"op": "insert", "oid": 10_000_001, "x": 71.0, "y": 72.0,
                   "req": "append-req"}
        try:
            with ServeClient(port=port, timeout_s=10) as client:
                client.insert(10_000_000, 70.0, 70.0)
                # Dies inside append(): logged, never applied, never acked.
                with pytest.raises((ConnectionLostError, OSError)):
                    client.call(payload)
        finally:
            proc.wait(timeout=30)
        assert proc.returncode == 137

        proc = _spawn_server(state, port)
        try:
            with ServeClient(port=port) as client:
                # Recovery replayed the logged-but-unacked record; the
                # client's resend dedupes against the rebuilt id map.
                replay = client.call(dict(payload))
                assert replay.get("deduped") is True
                assert replay["size"] == SERVER_SIZE + 2
            twin = _cli_twin()
            twin.insert(PointObject(10_000_000, 70.0, 70.0))
            twin.insert(PointObject(10_000_001, 71.0, 72.0))
            _assert_matches_twin(port, twin)
        finally:
            proc.terminate()
            proc.wait(timeout=30)
