"""Per-shard worker: one columnar engine behind the serve protocol.

A :class:`ShardServer` is a :class:`~repro.serve.server.QueryServer`
over one shard's slice of the dataset, extended with the one scatter
op a coordinator fans out, ``knwc_pool``: one page of
:meth:`~repro.core.engine.NWCEngine.knwc_candidates`, the shard's
candidate stream in rank order restricted to its anchor band — the
next ``limit`` groups ranked strictly after the ``after`` cursor and
below the optional ``ceiling``, each at its first window with its order
key, and whether nothing (below the ceiling) follows them.  A request
with ``k`` pages the kNWC stream; one without is NWC's own one-group
page (the plain ``NWCQuery``, the paper's pruning).  Pages are
stateless: each is a fresh search, so pages of many queries run
concurrently.

The scatter op bypasses the per-worker result cache (its answers depend
on the coordinator-supplied cursor and ceiling); the coordinator owns
the semantic cache instead.  Everything else — the plain query ops,
update ops with WAL-before-apply durability, request-id dedupe,
checkpointing, drain — is inherited unchanged, so one shard worker is
operationally identical to a single-engine server (the supervisor
restarts it with its WAL intact).  Fleet subscriptions are not among
that state: the coordinator indexes them itself from the updates it
routes, so a worker's WAL and checkpoints hold only its slice of the
dataset.

At boot the worker reads its shard page file once, into the mutable
R*-tree that absorbs updates, and takes the columnar
:class:`~repro.index.FlatRTree` snapshot from that tree.  The snapshot
carries the tree's node map, so updates splice it (see
``FlatRTree.splice``) from the first one on.
"""

from __future__ import annotations

from typing import Any

from ..core import NWCEngine
from ..core.schemes import Scheme
from ..index import FlatRTree, load_tree
from ..serve import protocol
from ..serve.durability import DurabilityConfig, recover
from ..serve.server import QueryServer, ServeConfig
from .partition import ShardManifest

__all__ = ["ShardServer", "build_shard_server", "make_shard_engine"]


def make_shard_engine(
    manifest: ShardManifest,
    directory: str,
    index: int,
    tree=None,
    scheme: Scheme = Scheme.NWC_STAR,
    execution: str = "columnar",
) -> NWCEngine:
    """Build shard ``index``'s engine.

    With ``tree=None`` the shard page file is the source of truth: the
    mutable R*-tree is loaded from it and the columnar snapshot is
    converted from that tree at boot, like every snapshot, so
    fresh-built and loaded shards answer bit-identically.  A recovered
    checkpoint ``tree``
    (see :func:`~repro.serve.durability.recover`) gets its snapshot
    built in memory on first use.

    The DEP grid is built over the *dataset* extent, so empty and
    sparse shards get a valid (all-zero) grid instead of a failed
    root-MBR probe.  No registry or tracer rides on the engine, whose
    reads run concurrently: its server records and traces per request.
    """
    if tree is None:
        tree = load_tree(manifest.shard_path(directory, index))
        flat = None
        if execution == "columnar" and tree.size:
            flat = FlatRTree.from_tree(tree)
        return NWCEngine(tree, scheme=scheme, extent=manifest.extent,
                         execution=execution, flat=flat)
    return NWCEngine(tree, scheme=scheme, extent=manifest.extent,
                     execution=execution)


class ShardServer(QueryServer):
    """A query server bound to one shard of a :class:`ShardManifest`."""

    _OPS = QueryServer._OPS + ("knwc_pool",)
    _LATENCY_OPS = QueryServer._LATENCY_OPS + ("knwc_pool",)

    def __init__(self, engine: NWCEngine, manifest: ShardManifest,
                 shard_index: int, config: ServeConfig | None = None,
                 metrics=None, durable=None) -> None:
        super().__init__(engine, config=config, metrics=metrics,
                         durable=durable)
        self.manifest = manifest
        self.shard_index = shard_index
        self.anchor_region = manifest.anchor_region(shard_index)
        lo, hi = manifest.owned_interval(shard_index)
        self._owned_lo, self._owned_hi = lo, hi
        # Logical (owned) size: halo copies excluded.  Counted over the
        # recovered tree, so it is exact after WAL replay too.
        self.owned_size = sum(
            1 for obj in engine.tree.iter_objects() if self._owns(obj.x)
        )

    def _owns(self, x: float) -> bool:
        return self._owned_lo <= x < self._owned_hi

    # ------------------------------------------------------------------
    # The scatter op
    # ------------------------------------------------------------------
    async def _op_knwc_pool(self, payload: dict[str, Any]) -> dict[str, Any]:
        if payload.get("k") is None:
            query, kind = protocol.parse_nwc(payload), "nwc"
        else:
            query, kind = protocol.parse_knwc(payload)[0], "knwc"
        limit, after, ceiling = protocol.parse_page(payload)
        ctx = self._trace_context(payload)

        async def body():
            pool, traced = await self._run_engine(
                lambda: self.engine.knwc_candidates(
                    query, limit, after=after,
                    anchor_region=self.anchor_region, ceiling=ceiling),
                ctx, kind)
            return {
                "ok": True, "op": "knwc_pool", "version": self.version,
                "shard": self.shard_index,
                "pool": {
                    "groups": [protocol._serialize_group(g)
                               for g in pool.groups],
                    "orders": [list(order) for order in pool.orders],
                    "exhausted": pool.exhausted,
                    "reason": pool.reason,
                },
                "stats": {"node_accesses": pool.stats["node_accesses"]},
                **traced,
            }

        return await self._read_op(payload, "knwc_pool", body, ctx)

    # ------------------------------------------------------------------
    # Inherited ops, shard-aware
    # ------------------------------------------------------------------
    async def _op_health(self, payload: dict[str, Any]) -> dict[str, Any]:
        response = await super()._op_health(payload)
        lo, hi = self._owned_lo, self._owned_hi
        response["shard"] = {
            "index": self.shard_index,
            "owned_size": self.owned_size,
            # JSON cannot carry infinities; edge shards report null.
            "owned": [None if lo == float("-inf") else lo,
                      None if hi == float("inf") else hi],
        }
        return response

    def _apply_insert(self, obj) -> None:
        super()._apply_insert(obj)
        if self._owns(obj.x):
            self.owned_size += 1

    def _apply_delete(self, obj) -> bool:
        deleted = super()._apply_delete(obj)
        if deleted and self._owns(obj.x):
            self.owned_size -= 1
        return deleted

    _HANDLERS = {
        **QueryServer._HANDLERS,
        "knwc_pool": _op_knwc_pool,
        "health": _op_health,
    }


def build_shard_server(
    manifest: ShardManifest,
    directory: str,
    index: int,
    config: ServeConfig | None = None,
    state_dir: str | None = None,
    durability: DurabilityConfig | None = None,
    scheme: Scheme = Scheme.NWC_STAR,
    execution: str = "columnar",
    metrics=None,
) -> ShardServer:
    """Construct a (possibly durable) worker for shard ``index``.

    With a ``state_dir`` the worker recovers checkpoint + WAL tail
    exactly like a single-engine durable server — each shard owns an
    independent WAL, so one shard's crash replays only its own updates.
    """
    if index < 0 or index >= manifest.shard_count:
        raise ValueError(
            f"shard index {index} out of range 0..{manifest.shard_count - 1}")
    durable = None
    if state_dir is not None:
        cfg = durability or DurabilityConfig(state_dir=state_dir)
        engine, durable = recover(
            cfg,
            lambda tree: make_shard_engine(
                manifest, directory, index, tree=tree, scheme=scheme,
                execution=execution,
            ),
            metrics=metrics,
        )
    else:
        engine = make_shard_engine(manifest, directory, index, scheme=scheme,
                                   execution=execution)
    return ShardServer(engine, manifest, index, config=config,
                       metrics=metrics, durable=durable)
