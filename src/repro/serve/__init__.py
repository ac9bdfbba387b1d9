"""Concurrent query serving: TCP server, result cache, client, loadgen.

The subsystem is dependency-free (stdlib ``asyncio`` + ``socket``) and
wraps one :class:`~repro.core.engine.NWCEngine` behind a single-writer /
many-reader scheduler, an update-aware semantic result cache, and
admission control.  Durability rides on top: a write-ahead log with
checkpoint/compaction (:mod:`repro.serve.durability` over
:mod:`repro.storage.wal`), boot-time recovery, a crash-restarting
process supervisor (:mod:`repro.serve.supervisor`) and idempotent
client retries.  See ``DESIGN.md`` ("Serving architecture" and
"Durability & recovery") for the concurrency model, the
cache-invalidation correctness argument and the crash-window analysis.
"""

from .backoff import BackoffPolicy
from .cache import CacheStats, ResultCache
from .client import (
    ConnectionLostError,
    DeadlineError,
    DrainingError,
    OverloadedError,
    RemoteError,
    RetryPolicy,
    ServeClient,
    ServeClientError,
    ShardUnavailableError,
    SubscriptionStream,
    wait_until_healthy,
)
from .durability import (
    DurabilityConfig,
    DurableState,
    RecoveryReport,
    ServerState,
    recover,
)
from .loadgen import LoadMix, LoadReport, LoadgenConfig, run_loadgen
from .server import (LineProtocolServer, QueryServer, ServeConfig,
                     ServerThread, ServingThread)
from .supervisor import Supervisor, SupervisorConfig

__all__ = [
    "BackoffPolicy",
    "CacheStats",
    "ConnectionLostError",
    "DeadlineError",
    "DrainingError",
    "DurabilityConfig",
    "DurableState",
    "LineProtocolServer",
    "LoadMix",
    "LoadReport",
    "LoadgenConfig",
    "OverloadedError",
    "QueryServer",
    "RecoveryReport",
    "RemoteError",
    "ResultCache",
    "RetryPolicy",
    "ServeClient",
    "ServeClientError",
    "ServeConfig",
    "ServingThread",
    "ShardUnavailableError",
    "SubscriptionStream",
    "ServerState",
    "ServerThread",
    "Supervisor",
    "SupervisorConfig",
    "recover",
    "run_loadgen",
    "wait_until_healthy",
]
