"""Sharded scatter-gather serving: partition, shard workers, coordinator.

The subsystem splits a dataset into density-balanced vertical bands
(:mod:`repro.shard.partition`), runs one columnar engine per band in its
own worker process (:mod:`repro.shard.worker`) and answers the ordinary
serve protocol from a coordinator that pages through every shard's
candidate stream (:mod:`repro.shard.coordinator`), merging
bit-identically to the single-engine oracle
(:mod:`repro.shard.merge` carries the correctness arguments).
"""

from .coordinator import (CoordinatorConfig, ShardCallError,
                          ShardCoordinator, ShardLink, coordinator_thread)
from .merge import KNWCPager, merge_nwc, shard_lower_bound
from .partition import (MANIFEST_NAME, ShardInfo, ShardManifest, choose_cuts,
                        partition_dataset, shard_filename)
from .worker import ShardServer, build_shard_server, make_shard_engine

__all__ = [
    "MANIFEST_NAME",
    "CoordinatorConfig",
    "KNWCPager",
    "ShardCallError",
    "ShardCoordinator",
    "ShardInfo",
    "ShardLink",
    "ShardManifest",
    "ShardServer",
    "build_shard_server",
    "choose_cuts",
    "coordinator_thread",
    "make_shard_engine",
    "merge_nwc",
    "partition_dataset",
    "shard_filename",
    "shard_lower_bound",
]
