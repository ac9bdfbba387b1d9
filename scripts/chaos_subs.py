#!/usr/bin/env python
"""Kill-9 chaos run for fleet-wide standing queries.

Boots a 3-shard fleet (one supervised ``repro shard-worker``
subprocess per shard, WAL state directories, in-process coordinator),
registers a set of NWC/kNWC subscriptions, then drives a verified
update burst while SIGKILL-ing one worker child mid-burst.  The run
passes only if the crash is invisible to subscription correctness:

* **zero spurious notifications** — every pushed frame's result equals
  the twin's answer at exactly the dataset version the frame carries
  (the coordinator re-evaluates under the write slot, so a push can
  never observe a half-applied update);
* **zero missed notifications** — after the burst drains, every
  standing query has converged on the twin's final answer (while a
  shard is down the coordinator degrades to *delayed, never wrong*:
  pushes may coalesce, but they may not be lost);
* the burst itself is exactly-once — acknowledged updates survive the
  kill (worker WAL + request-id dedupe) and the supervisor restarts
  the child on the same port.

    PYTHONPATH=src python scripts/chaos_subs.py [--updates 60] [--subs 8]

Exits 0 on success, 1 with a JSON report of what diverged otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import socket
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import KNWCQuery, NWCEngine, NWCQuery, Scheme
from repro.geometry import PointObject, Rect
from repro.index import RStarTree
from repro.serve import protocol
from repro.serve.client import (
    ServeClient,
    ShardUnavailableError,
    wait_until_healthy,
)
from repro.shard import CoordinatorConfig, coordinator_thread, partition_dataset

EXTENT = Rect(0, 0, 1000, 1000)
L, W = 40.0, 30.0
OID_BASE = 70_000


def _uniform_points(count: int, span: float, seed: int) -> list[PointObject]:
    rng = random.Random(seed)
    return [PointObject(i, rng.uniform(0.0, span), rng.uniform(0.0, span))
            for i in range(count)]


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _read_pid(state_dir: str, timeout_s: float = 20.0) -> int:
    pid_file = os.path.join(state_dir, "server.pid")
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            with open(pid_file, "r", encoding="utf-8") as fh:
                return int(fh.read().strip())
        except (OSError, ValueError):
            time.sleep(0.05)
    raise TimeoutError(f"no pid published in {pid_file}")


def _update_with_retry(client, payload, timeout_s=60.0):
    """At-least-once resend; worker WAL dedupe makes it exactly-once."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            return client.call(dict(payload))
        except ShardUnavailableError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.1)


class Twin:
    """The coordinator's canon: one star engine over the whole dataset."""

    def __init__(self, points) -> None:
        self.star = NWCEngine(RStarTree.bulk_load(list(points)),
                              Scheme.NWC_STAR, extent=EXTENT,
                              execution="columnar")

    def apply(self, op: str, obj: PointObject) -> None:
        if op == "insert":
            self.star.insert(obj)
        else:
            self.star.delete(obj)

    def answer(self, spec) -> dict:
        x, y, n, k = spec
        if k is None:
            return protocol.serialize_nwc(
                self.star.nwc(NWCQuery(x, y, L, W, n)))
        return protocol.serialize_knwc(
            self.star.knwc(KNWCQuery(NWCQuery(x, y, L, W, n), k, 1)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=300,
                        help="seed dataset cardinality")
    parser.add_argument("--shards", type=int, default=3)
    parser.add_argument("--subs", type=int, default=8,
                        help="standing queries to register")
    parser.add_argument("--updates", type=int, default=60,
                        help="acked updates in the burst")
    parser.add_argument("--kill-at", type=int, default=None,
                        help="acked updates before the SIGKILL "
                             "(default: a third into the burst)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    kill_at = args.kill_at if args.kill_at is not None else args.updates // 3

    rng = random.Random(args.seed)
    points = _uniform_points(args.size, span=1000.0, seed=77)
    repo = os.path.join(os.path.dirname(__file__), "..")
    env = os.environ.copy()
    env["PYTHONPATH"] = (os.path.join(repo, "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    outcome: dict[str, object] = {"updates": args.updates,
                                  "kill_at": kill_at}
    failures: list[str] = []

    with tempfile.TemporaryDirectory(prefix="chaos-subs-") as workdir:
        manifest = partition_dataset(points, args.shards, L, workdir,
                                     EXTENT, cell_size=25.0)
        supervisors, addresses, state_dirs = [], [], []
        coordinator = None
        clients = []
        try:
            for index in range(args.shards):
                port = _free_port()
                state_dir = os.path.join(workdir, f"shard-{index}")
                os.makedirs(state_dir, exist_ok=True)
                supervisors.append(subprocess.Popen(
                    [sys.executable, "-m", "repro", "shard-worker",
                     "--dir", workdir, "--index", str(index),
                     "--host", "127.0.0.1", "--port", str(port),
                     "--state-dir", state_dir, "--wal-fsync", "always",
                     "--supervised"],
                    env=env, stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL))
                addresses.append(("127.0.0.1", port))
                state_dirs.append(state_dir)
            for _host, port in addresses:
                wait_until_healthy("127.0.0.1", port, timeout_s=60)
            coordinator = coordinator_thread(
                manifest, addresses,
                config=CoordinatorConfig(shard_attempts=2,
                                         shard_backoff_s=0.02)).start()
            wait_until_healthy(coordinator.host, coordinator.port,
                               shards=args.shards, timeout_s=60)

            upd = ServeClient(coordinator.host, coordinator.port)
            sub_client = ServeClient(coordinator.host, coordinator.port)
            clients = [upd, sub_client]

            twin = Twin(points)
            specs, streams = [], []
            for i in range(args.subs):
                spec = (rng.uniform(100.0, 900.0), rng.uniform(100.0, 900.0),
                        rng.randint(2, 4),
                        rng.randint(2, 3) if i % 4 == 3 else None)
                x, y, n, k = spec
                stream = sub_client.subscribe(x, y, L, W, n, k=k,
                                              m=0 if k is None else 1)
                if stream.result != twin.answer(spec):
                    failures.append(f"ack mismatch for {stream.sub_id}")
                specs.append(spec)
                streams.append(stream)
            pushed = {s.sub_id: s.result for s in streams}
            revisions = {s.sub_id: s.revision for s in streams}

            # Answers per sub at every acked version: the spurious
            # check keys on the version each pushed frame carries.
            history: dict[str, dict[int, dict]] = {
                s.sub_id: {} for s in streams}

            live: list[PointObject] = []
            kills_done = 0
            first_pid = second_pid = None
            victim = args.shards // 2  # a middle shard: band updates hit it
            for step in range(args.updates):
                if step == kill_at:
                    first_pid = _read_pid(state_dirs[victim])
                    os.kill(first_pid, signal.SIGKILL)
                    kills_done += 1
                    print(f"[chaos] kill -9 worker {victim} "
                          f"(pid {first_pid}) after {step} updates",
                          flush=True)
                if live and rng.random() < 0.35:
                    obj = live.pop(rng.randrange(len(live)))
                    payload = {"op": "delete", "oid": obj.oid, "x": obj.x,
                               "y": obj.y, "req": f"chaos-subs-{step}"}
                    op = "delete"
                else:
                    # Bias half the inserts toward subscription windows
                    # so answers actually churn.
                    if live is not None and step % 2 == 0:
                        sx, sy, _n, _k = specs[step % len(specs)]
                        x = sx + rng.uniform(-20.0, 20.0)
                        y = sy + rng.uniform(-15.0, 15.0)
                    else:
                        x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
                    obj = PointObject(OID_BASE + step, x, y)
                    payload = {"op": "insert", "oid": obj.oid, "x": x,
                               "y": y, "req": f"chaos-subs-{step}"}
                    op = "insert"
                ack = _update_with_retry(upd, payload)
                if op == "insert":
                    live.append(obj)
                twin.apply(op, obj)
                version = ack["version"]
                for stream, spec in zip(streams, specs):
                    history[stream.sub_id][version] = twin.answer(spec)

            # Drain: frames keep arriving while the re-gather queue
            # settles; stop after a quiet second.
            spurious = 0
            while True:
                frame = streams[0].poll(timeout_s=1.0)
                if frame is None:
                    break
                sid = frame["sub"]
                if frame["revision"] != revisions[sid] + 1:
                    spurious += 1
                    failures.append(
                        f"non-consecutive revision for {sid}: "
                        f"{revisions[sid]} -> {frame['revision']}")
                revisions[sid] = frame["revision"]
                pushed[sid] = frame["result"]
                expected = history[sid].get(frame["version"])
                if expected is None or frame["result"] != expected:
                    spurious += 1
                    failures.append(
                        f"spurious frame for {sid} at version "
                        f"{frame['version']}")

            # Missed check: every standing query converged on the
            # twin's final answer (== a fresh query at final version).
            missed = 0
            for stream, spec in zip(streams, specs):
                final = twin.answer(spec)
                if pushed[stream.sub_id] != final:
                    missed += 1
                    failures.append(f"{stream.sub_id} never converged")
                x, y, n, k = spec
                served = (upd.nwc(x, y, L, W, n) if k is None
                          else upd.knwc(x, y, L, W, n, k, 1))
                if served["result"] != final:
                    failures.append(f"fresh query diverged for "
                                    f"{stream.sub_id}")

            # The supervisor restarted the victim on the same port.
            wait_until_healthy(*addresses[victim], timeout_s=60)
            second_pid = _read_pid(state_dirs[victim])
            if second_pid == first_pid:
                failures.append("victim worker was never restarted")
            health = upd.health()
            if health.get("subscriptions") != args.subs:
                failures.append("fleet lost subscriptions")
            notifications = sum(revisions[s.sub_id] - 1 for s in streams)
            if notifications == 0:
                failures.append("burst produced no notifications at all")

            outcome.update({
                "subscriptions": args.subs,
                "kills_done": kills_done,
                "victim_shard": victim,
                "victim_pids": [first_pid, second_pid],
                "notifications": notifications,
                "spurious": spurious,
                "missed": missed,
                "final_version": health.get("version"),
            })
        finally:
            for client in clients:
                client.close()
            if coordinator is not None:
                coordinator.stop()
            for supervisor in supervisors:
                supervisor.send_signal(signal.SIGTERM)
            for supervisor in supervisors:
                try:
                    supervisor.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    supervisor.kill()
                    supervisor.wait()

    outcome["failures"] = failures
    print(json.dumps(outcome, indent=2, sort_keys=True))
    if failures:
        print(f"CHAOS FAIL: {failures}", file=sys.stderr)
        return 1
    print(f"CHAOS OK: kill -9 survived; {outcome['notifications']} "
          "notifications, 0 missed, 0 spurious, all standing queries "
          "bit-identical to the twin")
    return 0


if __name__ == "__main__":
    sys.exit(main())
