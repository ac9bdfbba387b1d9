"""Shared plumbing of the benchmark: where the program lives, how its
processes are started and killed, and how a plan of operations is driven
against it and timed.

The benchmark touches the program only through what users have: the
``repro`` package's public classes, the ``python -m repro`` CLIs as
subprocesses, and :class:`~repro.serve.client.ServeClient` over TCP.
Nothing here imports from ``src`` by relative path — ``src`` is put on
``sys.path`` (and on the children's ``PYTHONPATH``) from the location of
this file, so the benchmark always measures the checkout it sits in.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / ".work"

if not (SRC / "repro" / "__init__.py").is_file():
    # A checkout that holds only the benchmark has nothing to measure.
    sys.stderr.write(f"bench: no program to measure: {SRC}/repro is missing\n")
    raise SystemExit(2)
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core import KNWCQuery, NWCQuery  # noqa: E402
from repro.serve.client import (  # noqa: E402
    ServeClient,
    ServeClientError,
    wait_until_healthy,
)

HOST = "127.0.0.1"
#: The paper's CA cardinality (Table 2); every workload serves it.
DATASET_SIZE = 62_556
#: Group size, kNWC result count and overlap bound of every query (the
#: paper's Section 5 defaults for n; k and m as the serve CLI defaults).
N, K, M = 8, 4, 1
#: Socket timeout of one request; also bounds how far a connection can
#: overshoot the per-workload deadline.
REQUEST_TIMEOUT_S = 15.0


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of raw samples (``q`` in [0, 1])."""
    if not samples:
        return math.nan
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def median(samples: list[float]) -> float:
    return percentile(samples, 0.5)


def mean(samples: list[float]) -> float:
    return sum(samples) / len(samples) if samples else math.nan


def ms(seconds: float) -> float:
    return seconds * 1e3


def us(seconds: float) -> float:
    return seconds * 1e6


# ----------------------------------------------------------------------
# Scratch space and program processes
# ----------------------------------------------------------------------
@contextlib.contextmanager
def workdir():
    """A fresh scratch directory inside the checkout, removed on exit:
    servers get their port files and shard files here, so the run never
    writes outside its checkout."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only succeeds once the last run is gone
        except OSError:
            pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(*args: str, timeout_s: float = 60.0) -> None:
    """Run one ``python -m repro`` command to completion."""
    subprocess.run([sys.executable, "-m", "repro", *args], check=True,
                   env=child_env(), cwd=ROOT, timeout=timeout_s,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _group_pids(pgid: int) -> list[int]:
    """Live processes of one process group, read from ``/proc``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state ppid pgrp ...
        fields = stat[stat.rindex(b")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != b"Z":
            pids.append(int(entry))
    return pids


class Program:
    """One ``python -m repro <serve|shard-serve>`` process tree.

    Started in its own session so the whole tree (a coordinator spawns
    its workers) can be signalled as one group and cannot outlive the
    run; the bound port comes back through ``--port-file``.
    """

    def __init__(self, workdir: Path, *args: str, shards: int | None = None,
                 boot_timeout_s: float = 60.0) -> None:
        self.port_file = workdir / f"port-{time.monotonic_ns()}"
        self.shards = shards
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args, "--port", "0",
             "--port-file", str(self.port_file)],
            env=child_env(), cwd=ROOT, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            self.port = self._await_port(boot_timeout_s)
            wait_until_healthy(HOST, self.port, timeout_s=boot_timeout_s,
                               interval_s=0.01, shards=shards)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - self.started

    def _await_port(self, timeout_s: float) -> int:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.port_file.exists():
                return int(self.port_file.read_text())
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} before "
                    "publishing its port")
            time.sleep(0.005)
        raise TimeoutError("server did not publish its port in time")

    def client(self) -> ServeClient:
        return ServeClient(HOST, self.port, timeout_s=REQUEST_TIMEOUT_S)

    def peak_rss_mb(self) -> float:
        """Summed peak resident set (``VmHWM``) of every live process of
        the program's group."""
        total_kb = 0
        for pid in _group_pids(self.proc.pid):
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> None:
        """TERM the group, wait, KILL what is left, and wait until every
        member has ended."""
        pgid = self.proc.pid
        for sig, grace_s in ((signal.SIGTERM, 5.0), (signal.SIGKILL, 5.0)):
            try:
                os.killpg(pgid, sig)
            except ProcessLookupError:
                break
            deadline = time.monotonic() + grace_s
            while time.monotonic() < deadline:
                self.proc.poll()  # reap the direct child
                if not _group_pids(pgid):
                    break
                time.sleep(0.01)
            if not _group_pids(pgid):
                break
        self.proc.wait()


def boot(target: str, workdir: Path) -> tuple[float, Program]:
    """Start a program from nothing and time it: process spawn until
    ``health`` answers for ``serve``; for ``fleet``, ``repro partition``
    first, then ``repro shard-serve`` until both workers serve.
    Everything else is left at the CLI's defaults.  Returns
    ``(seconds, program)``."""
    tag = f"{time.monotonic_ns()}"
    data = ("--dataset", "ca", "--size", str(DATASET_SIZE))
    t0 = time.perf_counter()
    if target == "fleet":
        shards = workdir / f"shards-{tag}"
        run_cli("partition", *data, "--shards", "2", "--halo", "100",
                "--out-dir", str(shards))
        program = Program(workdir, "shard-serve", "--dir", str(shards),
                          shards=2)
    else:
        program = Program(workdir, "serve", *data)
    return time.perf_counter() - t0, program


# ----------------------------------------------------------------------
# Driving a plan
# ----------------------------------------------------------------------
@dataclass(slots=True)
class OpRecord:
    """One attempted operation, as the client saw it."""

    op: tuple
    sent: float          # perf_counter at send
    latency_s: float
    ok: bool
    version: int | None = None
    cached: bool = False
    node_accesses: int | None = None
    result: Any = None   # answer payload, kept only for sampled reads
    error: str | None = None
    #: Send of this op to send of the connection's next one (latency plus
    #: the client's own work between requests); the latency for the last.
    cycle_s: float = 0.0


@dataclass(slots=True)
class Notify:
    """One pushed ``notify`` frame and when it arrived."""

    sub: int             # index into the plan's subscriptions
    version: int
    received: float
    result: Any


@dataclass(slots=True)
class RunLog:
    """Everything one timed phase produced."""

    wall_s: float = 0.0
    records: list[OpRecord] = field(default_factory=list)
    #: Seconds each subscribe took (stream connection), in plan order.
    subscribe_s: list[float] = field(default_factory=list)
    #: The ack answer of each subscription (``None`` if it failed).
    sub_acks: list[Any] = field(default_factory=list)
    notifies: list[Notify] = field(default_factory=list)
    timed_out: bool = False


#: Every ``SAMPLE_EVERY``-th read of a connection keeps its answer for
#: verification.
SAMPLE_EVERY = 10


def _set_cycles(records: list[OpRecord]) -> None:
    """Fill ``cycle_s`` of one closed loop's records, in issue order."""
    for record, following in zip(records, records[1:]):
        sent_both = record.sent and following.sent
        record.cycle_s = following.sent - record.sent if sent_both \
            else record.latency_s
    if records:
        records[-1].cycle_s = records[-1].latency_s


def _issue(client: ServeClient, op: tuple, window: float,
           trace: dict | None) -> dict:
    kind = op[0]
    if kind == "nwc":
        return client.nwc(op[1], op[2], window, window, N, trace=trace)
    if kind == "knwc":
        return client.knwc(op[1], op[2], window, window, N, K, M, trace=trace)
    if kind == "insert":
        return client.insert(op[1], op[2], op[3])
    if kind == "delete":
        return client.delete(op[1], op[2], op[3])
    raise ValueError(f"unknown op {op!r}")


class _Subscriber(threading.Thread):
    """The streaming connection: registers the plan's subscriptions one
    by one (timed), then timestamps every pushed frame until stopped."""

    def __init__(self, port: int, subs: list, window: float, log: RunLog,
                 start: threading.Barrier, deadline: float) -> None:
        super().__init__(name="bench-subscriber", daemon=True)
        self.port, self.subs, self.window = port, subs, window
        self.log, self.start_barrier, self.deadline = log, start, deadline
        self.registered = threading.Event()
        self.stop_requested = threading.Event()
        self.failure: BaseException | None = None

    def run(self) -> None:
        try:
            with ServeClient(HOST, self.port,
                             timeout_s=REQUEST_TIMEOUT_S) as client:
                self.start_barrier.wait()
                stream = None
                ids: dict[str, int] = {}
                for i, (x, y) in enumerate(self.subs):
                    if time.monotonic() > self.deadline:
                        self.log.timed_out = True
                        self.log.sub_acks.append(None)
                        continue
                    t0 = time.perf_counter()
                    try:
                        stream = client.subscribe(x, y, self.window,
                                                  self.window, N)
                    except (ServeClientError, OSError):
                        self.log.sub_acks.append(None)
                        continue
                    self.log.subscribe_s.append(time.perf_counter() - t0)
                    self.log.sub_acks.append(stream.ack["result"])
                    ids[stream.sub_id] = i
                self.registered.set()
                quiet_since = None
                while stream is not None:
                    frame = stream.poll(timeout_s=0.05)
                    now = time.perf_counter()
                    if frame is not None:
                        quiet_since = None
                        self.log.notifies.append(Notify(
                            ids[frame["sub"]], frame["version"], now,
                            frame["result"]))
                    elif self.stop_requested.is_set():
                        # Leave only after the stream has been silent
                        # for a moment: frames of the last update may
                        # still be in flight when the updater finishes.
                        quiet_since = quiet_since or now
                        if now - quiet_since > 0.3:
                            break
        except BaseException as exc:  # surfaced by run_served
            self.failure = exc
        finally:
            self.registered.set()


class _Connection(threading.Thread):
    """One closed-loop client: warm-up (untimed), barrier, timed ops."""

    def __init__(self, index: int, port: int, warm: list, ops: list,
                 window: float, log: RunLog, start: threading.Barrier,
                 deadline: float, subscriber: _Subscriber | None,
                 warm_up: threading.Lock, trace_wire=None) -> None:
        super().__init__(name=f"bench-conn-{index}", daemon=True)
        self.index, self.port, self.warm, self.ops = index, port, warm, ops
        self.window, self.log, self.start_barrier = window, log, start
        self.deadline, self.subscriber = deadline, subscriber
        self.warm_up, self.trace_wire = warm_up, trace_wire
        self.records: list[OpRecord] = []
        self.warm_records: list[OpRecord] = []
        self.failure: BaseException | None = None
        #: Objects removed by ``unseat`` ops, re-inserted by ``reseat``.
        self._unseated: dict[int, tuple] = {}

    def _resolve(self, op: tuple) -> tuple | None:
        """Turn a churn op into the concrete update it stands for: the
        first member of subscription ``i``'s registered answer is
        deleted (``unseat``) and later put back (``reseat``)."""
        if op[0] == "unseat":
            ack = self.log.sub_acks[op[1]] if op[1] < len(self.log.sub_acks) \
                else None
            if not ack or not ack.get("found"):
                return None
            oid, x, y = ack["group"]["objects"][0]
            self._unseated[op[1]] = (oid, x, y)
            return ("delete", oid, x, y)
        if op[0] == "reseat":
            member = self._unseated.pop(op[1], None)
            return None if member is None else ("insert", *member)
        return op

    def _one(self, client: ServeClient, index: int, op: tuple,
             sink: list[OpRecord]) -> None:
        concrete = self._resolve(op)
        if concrete is None:
            sink.append(OpRecord(op, 0.0, 0.0, False, error="unresolvable"))
            return
        trace = self.trace_wire() if self.trace_wire is not None \
            and concrete[0] in ("nwc", "knwc") else None
        sent = time.perf_counter()
        try:
            response = _issue(client, concrete, self.window, trace)
        except (ServeClientError, OSError) as exc:
            sink.append(OpRecord(concrete, sent, time.perf_counter() - sent,
                                 False, error=type(exc).__name__))
            return
        latency = time.perf_counter() - sent
        record = OpRecord(concrete, sent, latency, True,
                          version=response.get("version"),
                          cached=bool(response.get("cached")))
        stats = response.get("stats")
        if stats is not None:
            record.node_accesses = stats.get("node_accesses")
        if concrete[0] in ("nwc", "knwc"):
            if index % SAMPLE_EVERY == 0:
                record.result = response.get("result")
            if trace is not None:
                record.result = response  # traced replays keep everything
        elif concrete[0] == "delete" and not response.get("deleted"):
            record.ok, record.error = False, "delete found nothing"
        sink.append(record)

    def run(self) -> None:
        try:
            with ServeClient(HOST, self.port,
                             timeout_s=REQUEST_TIMEOUT_S) as client:
                # One connection warms up at a time: the server's node
                # access counter is shared between concurrent readers,
                # and the warm-up answers are where a hot workload's
                # node accesses come from.
                with self.warm_up:
                    for i, op in enumerate(self.warm):
                        self._one(client, i, op, self.warm_records)
                self.start_barrier.wait()
                if self.subscriber is not None:
                    self.subscriber.registered.wait()
                for i, op in enumerate(self.ops):
                    if time.monotonic() > self.deadline:
                        self.log.timed_out = True
                        self.records.append(OpRecord(
                            op, 0.0, 0.0, False, error="workload deadline"))
                        continue
                    self._one(client, i, op, self.records)
                _set_cycles(self.records)
        except BaseException as exc:  # surfaced by run_served
            self.failure = exc
            try:
                self.start_barrier.abort()
            except threading.BrokenBarrierError:
                pass


def run_served(plan, port: int, window: float, timeout_s: float,
               trace_wire=None) -> tuple[RunLog, list[OpRecord]]:
    """Drive ``plan`` against the server on ``port`` from this process.

    One thread per connection (at most two — the load generator must not
    out-thread the two cores it shares with the program), each a closed
    loop: send, wait for the answer, send the next.  Returns the timed
    log and the warm-up records.  After ``timeout_s`` the remaining ops
    are recorded as failed instead of sent.
    """
    log = RunLog()
    deadline = time.monotonic() + timeout_s
    parties = len(plan.conns) + (1 if plan.subs else 0) + 1
    start = threading.Barrier(parties)
    subscriber = None
    if plan.subs:
        subscriber = _Subscriber(port, plan.subs, window, log, start, deadline)
    warm_up = threading.Lock()
    conns = [
        _Connection(i, port, plan.warm[i] if plan.warm else [], ops, window,
                    log, start, deadline, subscriber, warm_up, trace_wire)
        for i, ops in enumerate(plan.conns)
    ]
    threads: list[threading.Thread] = list(conns)
    if subscriber is not None:
        threads.append(subscriber)
    # The generator's own garbage collector must not pause the client
    # threads mid-request: this process holds the dataset and, by the
    # end, one record per op, and a full collection walks all of it.
    gc.collect()
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        try:
            start.wait(timeout=timeout_s)  # every warm-up is done
        except threading.BrokenBarrierError:
            pass
        began = time.perf_counter()
        for conn in conns:
            conn.join()
        if subscriber is not None:
            subscriber.stop_requested.set()
            subscriber.join()
        log.wall_s = time.perf_counter() - began
    finally:
        gc.enable()
    for thread in threads:
        if thread.failure is not None:
            raise thread.failure
    log.records = [r for conn in conns for r in conn.records]
    return log, [r for conn in conns for r in conn.warm_records]


def run_engine(plan, engine, window: float, timeout_s: float) -> RunLog:
    """Run a plan's single op list as library calls on ``engine``."""
    log = RunLog()
    deadline = time.monotonic() + timeout_s
    gc.collect()  # the discarded set-up repeats are not the engine's garbage
    began = time.perf_counter()
    for op in plan.conns[0]:
        if time.monotonic() > deadline:
            log.timed_out = True
            log.records.append(OpRecord(op, 0.0, 0.0, False,
                                        error="workload deadline"))
            continue
        sent = time.perf_counter()
        result = answer(engine, op, window)
        latency = time.perf_counter() - sent
        log.records.append(OpRecord(
            op, sent, latency, True,
            node_accesses=result.node_accesses, result=result))
    log.wall_s = time.perf_counter() - began
    _set_cycles(log.records)
    return log


def answer(engine, op: tuple, window: float):
    """The engine's answer to one read op."""
    if op[0] == "nwc":
        return engine.nwc(NWCQuery(op[1], op[2], window, window, N))
    if op[0] == "knwc":
        return engine.knwc(KNWCQuery.make(op[1], op[2], window, window,
                                          N, K, M))
    raise ValueError(f"not a read op: {op!r}")


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
