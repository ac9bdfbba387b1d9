"""Durable server state: checkpoint + WAL directory, recovery, dedupe.

One directory holds everything a server needs to survive ``kill -9``:

* ``wal.log`` — the :class:`~repro.storage.wal.WriteAheadLog` of every
  acknowledged update since the last checkpoint;
* ``checkpoint-<seq>.pages`` — an atomic :func:`~repro.index.save_tree`
  page file of the tree as of WAL sequence ``<seq>``;
* ``CURRENT`` — a small JSON pointer naming the authoritative
  checkpoint, its ``(seq, version)`` anchor and the recent request-id
  dedupe map.  It is replaced atomically (tmp + fsync + rename), so at
  every instant it names one *complete* checkpoint.

Checkpointing follows the LevelDB ``CURRENT``-pointer discipline, which
makes every crash window safe:

1. save the tree to ``checkpoint-<seq>.pages`` (atomic on its own);
2. atomically replace ``CURRENT`` to point at it;
3. compact the WAL down to records ``> seq`` and prune old checkpoints.

A crash after (1) leaves ``CURRENT`` on the old checkpoint and the full
WAL — recovery replays everything, the orphan file is garbage-collected
later.  A crash after (2) leaves stale records ``<= seq`` in the WAL —
replay skips them by sequence number.  A crash inside (3) leaves either
the old or the new WAL file, both consistent with ``CURRENT``.

:func:`recover` is the boot path: load the ``CURRENT`` checkpoint (or
start from the seed dataset when there is none), replay the WAL tail,
rebuild the dedupe map, and hand the server an engine whose answers are
bit-identical to one that applied exactly the logged updates in order.
"""

from __future__ import annotations

import json
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable

from ..core import NWCEngine
from ..index import load_tree
from ..storage.wal import (
    FSYNC_POLICIES,
    WalError,
    WriteAheadLog,
    replay_wal,
)
from ..sub import (Subscription, SubscriptionIndex, reconcile,
                   subscription_from_record)
from ..sub.runtime import evaluate_subscription

__all__ = [
    "DurabilityConfig",
    "DurableState",
    "RecoveryReport",
    "ServerState",
    "recover",
]

#: Default cap on remembered request ids (LRU-evicted beyond this).
DEFAULT_DEDUPE_ENTRIES = 10_000


@dataclass(frozen=True, slots=True)
class DurabilityConfig:
    """Durability tunables of one server.

    Attributes:
        state_dir: Directory holding WAL, checkpoints and ``CURRENT``.
        fsync: WAL fsync policy (``always`` | ``interval`` | ``never``).
        fsync_interval_s: Max fsync staleness under ``interval``.
        checkpoint_every: Auto-checkpoint after this many WAL records
            (0 disables auto-checkpointing; the ``checkpoint`` op always
            works).
        dedupe_entries: Request-id memory for idempotent retries.
    """

    state_dir: str
    fsync: str = "interval"
    fsync_interval_s: float = 0.05
    checkpoint_every: int = 0
    dedupe_entries: int = DEFAULT_DEDUPE_ENTRIES

    def __post_init__(self) -> None:
        if self.fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {self.fsync!r}")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        if self.dedupe_entries < 0:
            raise ValueError("dedupe_entries must be non-negative")


@dataclass(frozen=True, slots=True)
class _Current:
    """Decoded ``CURRENT`` pointer."""

    checkpoint: str
    seq: int
    version: int
    dedupe: dict[str, dict[str, Any]]
    subs: list[dict[str, Any]]


class ServerState:
    """Paths and pointer I/O of one durable state directory."""

    WAL_NAME = "wal.log"
    CURRENT_NAME = "CURRENT"

    def __init__(self, state_dir: str | os.PathLike[str]) -> None:
        self.dir = os.fspath(state_dir)
        os.makedirs(self.dir, exist_ok=True)

    @property
    def wal_path(self) -> str:
        return os.path.join(self.dir, self.WAL_NAME)

    @property
    def current_path(self) -> str:
        return os.path.join(self.dir, self.CURRENT_NAME)

    def checkpoint_path(self, seq: int) -> str:
        return os.path.join(self.dir, f"checkpoint-{seq:012d}.pages")

    # -- CURRENT pointer -----------------------------------------------
    def read_current(self) -> _Current | None:
        """The authoritative checkpoint pointer, or None before the
        first checkpoint."""
        try:
            with open(self.current_path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError) as exc:
            raise WalError(f"{self.current_path}: unreadable checkpoint "
                           f"pointer: {exc}") from exc
        try:
            current = _Current(
                checkpoint=str(raw["checkpoint"]), seq=int(raw["seq"]),
                version=int(raw["version"]),
                dedupe=dict(raw.get("dedupe", {})),
                subs=list(raw.get("subs", [])),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise WalError(f"{self.current_path}: malformed checkpoint "
                           f"pointer: {exc}") from exc
        path = os.path.join(self.dir, current.checkpoint)
        if not os.path.exists(path):
            raise WalError(f"{self.current_path} names missing checkpoint "
                           f"{current.checkpoint}")
        return current

    def write_current(self, checkpoint: str, seq: int, version: int,
                      dedupe: "OrderedDict[str, dict[str, Any]]",
                      subs: list[dict[str, Any]] | None = None) -> None:
        """Atomically repoint ``CURRENT`` (tmp + fsync + rename).

        ``subs`` is the live-subscription state captured at ``seq``
        (:meth:`repro.sub.SubscriptionIndex.to_state`) — recovery
        restores it before replaying the WAL tail, so standing queries
        and their revisions survive checkpoint compaction.
        """
        tmp = f"{self.current_path}.tmp.{os.getpid()}"
        payload = {"checkpoint": checkpoint, "seq": seq, "version": version,
                   "dedupe": dict(dedupe), "subs": list(subs or ())}
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, separators=(",", ":"),
                          sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.current_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        _fsync_dir(self.dir)

    def prune_checkpoints(self, keep: str) -> int:
        """Best-effort removal of superseded checkpoint files."""
        removed = 0
        for name in os.listdir(self.dir):
            if (name.startswith("checkpoint-") and name.endswith(".pages")
                    and name != keep):
                try:
                    os.unlink(os.path.join(self.dir, name))
                    removed += 1
                except OSError:
                    pass
        return removed


def _fsync_dir(directory: str) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@dataclass(slots=True)
class RecoveryReport:
    """What one boot-time recovery did."""

    checkpoint_seq: int = 0
    checkpoint_version: int = 0
    replayed: int = 0
    skipped: int = 0
    truncated_bytes: int = 0
    version: int = 0
    last_seq: int = 0
    wall_s: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "checkpoint_seq": self.checkpoint_seq,
            "checkpoint_version": self.checkpoint_version,
            "replayed": self.replayed,
            "skipped": self.skipped,
            "truncated_bytes": self.truncated_bytes,
            "version": self.version,
            "last_seq": self.last_seq,
            "wall_s": round(self.wall_s, 4),
        }


@dataclass(slots=True)
class DurableState:
    """Everything the server holds for durability at runtime."""

    config: DurabilityConfig
    state: ServerState
    wal: WriteAheadLog
    dedupe: "OrderedDict[str, dict[str, Any]]"
    recovery: RecoveryReport
    records_since_checkpoint: int = 0
    subs: SubscriptionIndex = field(default_factory=SubscriptionIndex)

    def close(self) -> None:
        self.wal.close()


def apply_record(engine: NWCEngine, version: int, record: dict[str, Any],
                 subs: SubscriptionIndex
                 ) -> tuple[int, dict[str, Any], list[Subscription], int,
                            float]:
    """Apply one logged record to ``engine`` at dataset ``version``.

    The one step that turns a record into server state: a live server
    runs it for each update it serves, right after logging the record,
    and recovery runs it for each record it replays — so the ack a
    client received and the one replay files in the dedupe map are
    built by the same code.

    ``subscribe`` / ``unsubscribe`` records restore standing queries,
    and every applied update runs :func:`~repro.sub.reconcile` over
    ``subs`` — the re-evaluations are deterministic, so revisions
    *continue* across a crash instead of forking.

    Returns ``(new_version, ack, changed, reevals, reeval_s)``: the
    subscriptions whose answer changed (the live server pushes their
    ``notify`` frames), the re-evaluations run and their wall time.
    Recovery ignores the last three.
    """
    from ..geometry import PointObject

    op = record.get("op")
    if op == "subscribe":
        sub = subscription_from_record(record)
        sub.result, sub.insert_radius, sub.delete_radius = \
            evaluate_subscription(engine, sub)
        sub.revision, sub.version = 1, version
        subs.add(sub)
        return version, {"ok": True, "op": op, "sub": sub.sub_id,
                         "kind": sub.kind, "version": version,
                         "revision": 1, "result": sub.result}, [], 0, 0.0
    if op == "unsubscribe":
        sub_id = str(record["sub"])
        removed = subs.remove(sub_id)
        return version, {"ok": True, "op": op, "sub": sub_id,
                         "removed": removed is not None,
                         "version": version}, [], 0, 0.0
    if op not in ("insert", "delete"):
        raise WalError(f"WAL record with unknown op {op!r}")
    obj = PointObject(int(record["oid"]), float(record["x"]),
                      float(record["y"]))
    if op == "insert":
        engine.insert(obj)
        applied, ack = True, {"ok": True, "op": op}
    else:
        applied = engine.delete(obj)
        ack = {"ok": True, "op": op, "deleted": applied}
    changed: list[Subscription] = []
    reevals, reeval_s = 0, 0.0
    if applied:
        version += 1
        if len(subs):
            # Rebuild what the update invalidated first, so the timing
            # covers the re-evaluations alone.
            engine._refresh_structures()
            start = time.perf_counter()
            changed, reevals = reconcile(subs, engine, op, obj.x, obj.y,
                                         engine.tree.size, version)
            reeval_s = time.perf_counter() - start
    ack["version"] = version
    ack["size"] = engine.tree.size
    return version, ack, changed, reevals, reeval_s


#: The shield sentinels shard workers used to hold for a coordinator
#: (checkpoint entries of this kind, WAL records of these ops).  Fleet
#: subscriptions now live in the coordinator's own index, so recovery
#: drops what state written by older workers still carries.
_RETIRED_SUB_KIND = "shield"
_RETIRED_OPS = ("sub_track", "sub_untrack")


def recover(
    config: DurabilityConfig,
    make_engine: Callable[[object | None], NWCEngine],
    metrics=None,
) -> tuple[NWCEngine, DurableState]:
    """Boot-time recovery: checkpoint + WAL tail → live engine.

    Args:
        config: Durability settings (names the state directory).
        make_engine: Factory building the server's engine.  Called with
            the checkpoint's loaded :class:`~repro.index.RStarTree`, or
            with ``None`` when no checkpoint exists yet (first boot) —
            then it must build the engine over the seed dataset.
        metrics: Optional registry; the WAL and recovery gauges hang off
            it.

    Returns:
        ``(engine, durable_state)`` ready to hand to the server.

    Raises:
        WalError: Unrecoverable log damage (body corruption, missing
            checkpoint file, anchors that disagree).
        StorageError: A checkpoint page file that fails its checks.
    """
    started = time.perf_counter()
    state = ServerState(config.state_dir)
    current = state.read_current()
    report = RecoveryReport()
    if current is not None:
        tree = load_tree(os.path.join(state.dir, current.checkpoint))
        engine = make_engine(tree)
        report.checkpoint_seq = current.seq
        report.checkpoint_version = current.version
        version = current.version
        base_seq = current.seq
        dedupe: OrderedDict[str, dict[str, Any]] = OrderedDict(current.dedupe)
        subs = SubscriptionIndex.from_state(
            [state for state in current.subs
             if state.get("kind") != _RETIRED_SUB_KIND])
    else:
        engine = make_engine(None)
        version = 0
        base_seq = 0
        dedupe = OrderedDict()
        subs = SubscriptionIndex()

    if os.path.exists(state.wal_path):
        replay = replay_wal(state.wal_path)
        if replay.header.base_seq > base_seq:
            raise WalError(
                f"{state.wal_path}: log is anchored at seq "
                f"{replay.header.base_seq} but the checkpoint covers only "
                f"{base_seq} — records are missing")
        report.truncated_bytes = replay.truncated_bytes
        for seq, record in replay.records:
            if seq <= base_seq or record.get("op") in _RETIRED_OPS:
                report.skipped += 1
                continue
            version, response, *_ = apply_record(engine, version, record,
                                                 subs)
            request_id = record.get("req")
            if isinstance(request_id, str):
                dedupe[request_id] = response
            report.replayed += 1
    if report.replayed:
        engine._refresh_structures()
    # Opening the log replays it once more internally, truncating the
    # torn tail for good and positioning the append cursor.
    wal = WriteAheadLog(
        state.wal_path, fsync=config.fsync,
        fsync_interval_s=config.fsync_interval_s,
        base_seq=base_seq, base_version=version, metrics=metrics,
    )
    while len(dedupe) > config.dedupe_entries:
        dedupe.popitem(last=False)
    report.version = version
    report.last_seq = wal.last_seq
    report.wall_s = time.perf_counter() - started
    if metrics is not None:
        metrics.gauge("serve_recovery_replayed",
                      "WAL records replayed at last boot").set(report.replayed)
        metrics.gauge("serve_recovery_truncated_bytes",
                      "Torn WAL tail bytes dropped at last boot").set(
                          report.truncated_bytes)
        metrics.gauge("serve_recovery_seconds",
                      "Wall time of last boot recovery").set(
                          round(report.wall_s, 6))
    durable = DurableState(config=config, state=state, wal=wal,
                           dedupe=dedupe, recovery=report,
                           records_since_checkpoint=wal.record_count,
                           subs=subs)
    return engine, durable
