#!/usr/bin/env python
"""Kill-9 chaos run against a supervised durable server.

Boots ``repro serve --supervised`` on a fixed port with a WAL state
directory, then drives a verified load-generator burst while a killer
thread repeatedly ``SIGKILL``-s the server child (aimed via the
supervisor's pid file).  The run passes only if the crashes are
*invisible* to correctness:

* zero verification mismatches — every answer worker 0 checked matched
  its twin (:mod:`repro.check`), across all restarts;
* zero request errors — the retrying clients absorbed every connection
  loss, and request-id dedupe kept the retried updates exactly-once;
* final state equality — a snapshot of the server's tree after the
  burst holds exactly the twin's objects (the seed dataset plus every
  acknowledged update, nothing more, nothing less).

    PYTHONPATH=src python scripts/chaos_serve.py [--kills 3] [--size 250]

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
import threading

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.check import Twin
from repro.cli import serve_engine
from repro.datasets import uniform
from repro.index import load_tree
from repro.serve import (
    BackoffPolicy,
    RetryPolicy,
    ServeClient,
    wait_until_healthy,
)
from repro.serve.loadgen import LoadgenConfig, LoadMix, run_loadgen


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _read_pid(pid_file: str) -> int | None:
    try:
        with open(pid_file, "r", encoding="utf-8") as handle:
            return int(handle.read().strip())
    except (OSError, ValueError):
        return None


class Killer(threading.Thread):
    """SIGKILL the supervised server child at seeded random intervals."""

    def __init__(self, pid_file: str, kills: int, rng: random.Random,
                 supervisor_pid: int) -> None:
        super().__init__(name="chaos-killer", daemon=True)
        self.pid_file = pid_file
        self.kills_wanted = kills
        self.kills_done = 0
        self.rng = rng
        self.supervisor_pid = supervisor_pid
        self.stop = threading.Event()

    def run(self) -> None:
        while self.kills_done < self.kills_wanted and not self.stop.is_set():
            self.stop.wait(self.rng.uniform(0.3, 0.8))
            if self.stop.is_set():
                return
            pid = _read_pid(self.pid_file)
            # Never shoot the supervisor itself, only the server child.
            if pid is None or pid == self.supervisor_pid:
                continue
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                continue  # lost the race with a restart; try again
            self.kills_done += 1
            print(f"[chaos] kill -9 {pid} ({self.kills_done}/"
                  f"{self.kills_wanted})", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kills", type=int, default=3,
                        help="how many times to SIGKILL the server")
    parser.add_argument("--size", type=int, default=250,
                        help="seed dataset cardinality")
    parser.add_argument("--workers", type=int, default=3)
    parser.add_argument("--requests-per-worker", type=int, default=150)
    parser.add_argument("--checkpoint-every", type=int, default=25,
                        help="auto-checkpoint cadence, so kills also land "
                             "mid-checkpoint/compaction")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    port = _free_port()
    repo = os.path.join(os.path.dirname(__file__), "..")
    outcome: dict[str, object] = {"kills_wanted": args.kills, "port": port}
    serve_args = ["--dataset", "uniform", "--size", str(args.size)]

    with tempfile.TemporaryDirectory(prefix="chaos-serve-") as workdir:
        state_dir = os.path.join(workdir, "state")
        pid_file = os.path.join(state_dir, "server.pid")
        env = os.environ.copy()
        env["PYTHONPATH"] = (os.path.join(repo, "src") + os.pathsep
                             + env.get("PYTHONPATH", ""))
        supervisor = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *serve_args,
             "--port", str(port), "--state-dir", state_dir,
             "--checkpoint-every", str(args.checkpoint_every),
             "--supervised"],
            env=env,
        )
        killer = Killer(pid_file, args.kills, rng, supervisor.pid)
        try:
            wait_until_healthy("127.0.0.1", port, timeout_s=60)
            engine = serve_engine(serve_args)
            killer.start()
            report = run_loadgen(
                LoadgenConfig(
                    port=port, workers=args.workers,
                    requests_per_worker=args.requests_per_worker,
                    seed=args.seed, query_pool=16,
                    mix=LoadMix(nwc=0.55, knwc=0.10, insert=0.25,
                                delete=0.10),
                    connect_timeout_s=60.0,
                    retry=RetryPolicy(
                        max_attempts=20,
                        backoff=BackoffPolicy(initial_s=0.05, max_s=1.0)),
                ),
                uniform(args.size),
                verify_engine=engine,
            )
            killer.stop.set()
            killer.join(timeout=10)

            # The last kill may still be mid-recovery: wait it out.
            wait_until_healthy("127.0.0.1", port, timeout_s=60)
            snapshot_path = os.path.join(workdir, "final.pages")
            with ServeClient(port=port, retry=RetryPolicy(
                    max_attempts=20)) as client:
                snap = client.snapshot(snapshot_path)
                health = client.health()
            objects_equal = Twin(engine).check_objects(
                load_tree(snapshot_path).iter_objects())

            outcome.update({
                "kills_done": killer.kills_done,
                "requests": report.requests,
                "qps": round(report.qps, 1),
                "retries": report.retries,
                "reconnects": report.reconnects,
                "errors": report.errors,
                "error_codes": report.error_codes,
                "verified": report.verified,
                "mismatches": report.mismatches,
                "updates_applied": report.updates_applied,
                "snapshot_version": snap["version"],
                "final_version": health["version"],
                "recovery": health["durability"]["recovery"],
                "objects_equal": objects_equal,
            })
            failures = []
            if killer.kills_done < args.kills:
                failures.append("killer fell short")
            if report.mismatches:
                failures.append("verification mismatches")
            if report.errors:
                failures.append("request errors escaped the retry layer")
            if not objects_equal:
                failures.append("final tree diverged from the acked twin")
            outcome["failures"] = failures
        finally:
            killer.stop.set()
            supervisor.send_signal(signal.SIGTERM)
            try:
                supervisor_rc = supervisor.wait(timeout=60)
            except subprocess.TimeoutExpired:
                supervisor.kill()
                supervisor_rc = supervisor.wait()
        outcome["supervisor_rc"] = supervisor_rc
        if supervisor_rc != 0:
            outcome.setdefault("failures", []).append(
                f"supervisor exited {supervisor_rc}")

    print(json.dumps(outcome, indent=2, sort_keys=True))
    if outcome.get("failures"):
        print(f"CHAOS FAIL: {outcome['failures']}", file=sys.stderr)
        return 1
    print(f"CHAOS OK: {killer.kills_done} kill -9s, "
          f"{outcome['requests']} requests, {outcome['retries']} retries, "
          "0 errors, 0 mismatches, final state bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
