"""The benchmark's workloads: what runs, and why each one exists.

Every workload is a *plan*: per-connection lists of operations over the
CA-like dataset at the paper's cardinality.  A plan is a pure function
of ``(workload, seed, seconds)`` — the program only ever sees the
generated operations.

**What the seed controls.**  Query cost on this data is heavy-tailed
(node accesses per NWC span 250..16,000 at ``l = w = 100``), so ten
independent random location samples of a size that fits the time cap
disagree by 10-30 % on p50/p90 before the machine adds any noise of its
own.  A benchmark that noisy cannot tell a 10 % regression from a lucky
draw.  The locations are therefore *anchored*: a fixed pool of
data-biased anchor positions is part of the workload definition (like
the dataset), and the seed (a) moves every anchor by up to ``JITTER``
units in x and y and (b) draws which pooled location each hot request
repeats.  The order of operations is the same for every seed.  No two
seeds
share a query point, so nothing carries over between runs, but the
*distribution* of query difficulty is the same for every seed (measured:
between-seed spread of mean node accesses < 1 %).

Operation counts scale linearly with the nominal seconds of a pass
(``--seconds`` / ``run.PASSES``) from per-second rates calibrated on the
2-core reference box; a run executes a fixed count, not a fixed
duration, so every count repeats exactly for equal seeds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from harness import DATASET_SIZE  # (importing harness puts src/ on sys.path)

from repro.datasets import ca_like
from repro.workloads import data_biased_query_points

#: Seeds the anchor pool; part of the workload definition, not of a run.
ANCHOR_SEED = 20160315
ANCHOR_POOL = 2048
#: Per-seed displacement of every anchor, in data units (the extent is
#: 10,000 wide): a user standing a few steps from where another stood.
JITTER = 2.0
#: Object ids of generated inserts start far above any dataset oid.
OID_BASE = 10_000_000

Op = tuple


@dataclass(slots=True)
class Plan:
    """The operations of one pass (a run repeats the pass on a freshly
    started program several times, see ``run.PASSES``).

    ``warm[i]`` is issued by connection ``i`` before the clock starts;
    ``subs`` are standing-query locations a dedicated streaming
    connection registers first (timed); ``conns[i]`` is connection
    ``i``'s timed closed loop.  Ops are plain tuples:
    ``("nwc"|"knwc", x, y)``, ``("insert"|"delete", oid, x, y)`` and
    ``("unseat"|"reseat", sub_index)`` — delete / re-insert the first
    member of that subscription's registered answer.
    """

    conns: list[list[Op]]
    warm: list[list[Op]] = field(default_factory=list)
    subs: list[tuple[float, float]] = field(default_factory=list)

    def digest(self) -> str:
        """Identity of the op sequence: equal for equal seeds."""
        blob = json.dumps([self.warm, self.subs, self.conns],
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@lru_cache(maxsize=1)
def dataset():
    return ca_like(DATASET_SIZE)


@lru_cache(maxsize=1)
def anchors() -> list[tuple[float, float]]:
    return data_biased_query_points(dataset(), ANCHOR_POOL,
                                    seed=ANCHOR_SEED, jitter=200.0)


class _Source:
    """Hands out jittered anchors; consecutive takes never overlap."""

    def __init__(self, seed: int, salt: int) -> None:
        # Any integer is a valid --seed; numpy wants it non-negative.
        self.rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, salt])
        self._next = 0
        extent = dataset().extent
        self._lo = (extent.x1, extent.y1)
        self._hi = (extent.x2, extent.y2)

    def take(self, count: int) -> list[tuple[float, float]]:
        pool = anchors()
        if self._next + count > len(pool):
            raise ValueError("anchor pool exhausted; raise ANCHOR_POOL")
        picked = pool[self._next:self._next + count]
        self._next += count
        offsets = self.rng.uniform(-JITTER, JITTER, size=(count, 2))
        out = []
        for (x, y), (dx, dy) in zip(picked, offsets.tolist()):
            out.append((min(max(x + dx, self._lo[0]), self._hi[0]),
                        min(max(y + dy, self._lo[1]), self._hi[1])))
        return out


def _interleave(counts: dict[str, int]) -> list[str]:
    """Spread op kinds evenly over a sequence with exactly ``counts`` of
    each (always emit the kind furthest behind its share), so the mix is
    the same in every prefix and for every seed."""
    total = sum(counts.values())
    issued = dict.fromkeys(counts, 0)
    out = []
    for i in range(1, total + 1):
        kind = max(counts, key=lambda k: counts[k] * i / total - issued[k])
        issued[kind] += 1
        out.append(kind)
    return out


def _first_query(src: "_Source") -> list[Op]:
    """The untimed first request of a pass: it pays for the lazy flat
    snapshot a freshly started server builds on its first query, which
    is set-up, not a request's latency."""
    return [("nwc", *src.take(1)[0])]


def _count(rate_per_s: float, seconds: float, floor: int = 1) -> int:
    return max(floor, round(rate_per_s * seconds))


def _mixed_ops(kinds: list[str], src: "_Source") -> list[Op]:
    """Fill a sequence of op kinds from ``src``.  Each kind draws from
    its own anchors (so the same anchors play the same role under every
    seed): NWC and kNWC reads
    at their locations, inserts placing new objects, deletes removing
    the oldest object this connection inserted and has not deleted yet."""
    nwc = iter(src.take(kinds.count("nwc")))
    knwc = iter(src.take(kinds.count("knwc")))
    spots = iter(src.take(kinds.count("insert")))
    live: list[Op] = []
    next_oid = OID_BASE
    ops: list[Op] = []
    for kind in kinds:
        if kind == "nwc":
            ops.append((kind, *next(nwc)))
        elif kind == "knwc":
            ops.append((kind, *next(knwc)))
        elif kind == "insert":
            x, y = next(spots)
            ops.append(("insert", next_oid, x, y))
            live.append((next_oid, x, y))
            next_oid += 1
        else:
            ops.append(("delete", *live.pop(0)))
    return ops


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------
def _engine_paper(seed: int, seconds: float) -> Plan:
    src = _Source(seed, 1)
    kinds = _interleave({"nwc": _count(5.8, seconds, 4),
                         "knwc": _count(0.25, seconds)})
    return Plan(conns=[_mixed_ops(kinds, src)])


def _serve_cold(seed: int, seconds: float) -> Plan:
    src = _Source(seed, 2)
    total = _count(30.0, seconds, 20)
    kinds = _interleave({"nwc": total - total // 20, "knwc": total // 20})
    return Plan(conns=[_mixed_ops(kinds, src)], warm=[_first_query(src)])


#: Locations the hot connection cycles over — far below the server's
#: 1024-entry cache.
HOT_POOL = 32


def _serve_hot(seed: int, seconds: float) -> Plan:
    # One connection, not two: a cache hit costs the server and the
    # generator about the same, so a second loop keeps both cores of the
    # reference box busy at once — and two busy virtual cores of a shared
    # host run anywhere between full and 0.4x speed depending on where
    # the host has put them (measured).  One closed loop alternates
    # between the two processes and needs one core's worth.
    src = _Source(seed, 3)
    pool = src.take(HOT_POOL)
    draws = src.rng.integers(0, HOT_POOL, _count(4000.0, seconds, 50))
    return Plan(conns=[[("nwc", *pool[i]) for i in draws.tolist()]],
                warm=[[("nwc", x, y) for x, y in pool]])


def _subs_churn(seed: int, seconds: float) -> Plan:
    src = _Source(seed, 5)
    subs = src.take(_count(10.0, seconds, 8))
    cycles = _count(1.45, seconds, 2)
    # Each cycle unseats a member of one subscription's answer, reads,
    # puts it back, reads: every update provably changes an answer.
    reads = iter(src.take(cycles * 6))
    stride = max(1, len(subs) // cycles)
    ops: list[Op] = []
    for c in range(cycles):
        target = (c * stride) % len(subs)
        for kind in ("unseat", "reseat"):
            ops.append((kind, target))
            ops.extend(("nwc", *next(reads)) for _ in range(3))
    return Plan(conns=[ops], warm=[_first_query(src)], subs=subs)


def _fleet_nwc(seed: int, seconds: float) -> Plan:
    src = _Source(seed, 6)
    total = _count(18.0, seconds, 50)
    fiftieth = total // 50
    kinds = _interleave({"nwc": total - 15 * fiftieth, "insert": 9 * fiftieth,
                         "delete": 6 * fiftieth})
    return Plan(conns=[_mixed_ops(kinds, src)], warm=[_first_query(src)])


@dataclass(frozen=True, slots=True)
class Workload:
    """One named workload.

    ``target`` says how the program is reached: ``engine`` (library
    calls in this process), ``serve`` (``repro serve`` subprocess over
    TCP) or ``fleet`` (``repro partition`` + ``repro shard-serve``).
    """

    name: str
    target: str
    window: float
    build: Callable[[int, float], Plan]
    why: str


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "engine_paper", "engine", 8.0, _engine_paper,
        "In-process NWCEngine at the paper's defaults (CA 62,556, l=w=8, "
        "n=8): sparse windows, so frontier walk and SRR/DIP/DEP pruning do "
        "the work and enumeration almost none."),
    Workload(
        "serve_cold", "serve", 100.0, _serve_cold,
        "repro serve, one closed loop, every location distinct (95% NWC, 5% "
        "kNWC): 0% cache hits, the engine under the request pipeline."),
    Workload(
        "serve_hot", "serve", 100.0, _serve_hot,
        "Same server, requests drawn from a warmed 32-location pool: ~100% "
        "cache hits, so protocol, cache, asyncio and TCP do all the work and "
        "the engine none."),
    Workload(
        "subs_churn", "serve", 100.0, _subs_churn,
        "One stream registers standing NWC queries; the loop deletes and "
        "re-inserts members of their answers between reads: registration "
        "and the update->reconcile->push path."),
    Workload(
        "fleet_nwc", "fleet", 100.0, _fleet_nwc,
        "2-shard fleet (partition + shard-serve), one closed loop, 70% NWC/"
        "18% insert/12% delete: the served queries plus one hop - scatter, "
        "pruning, merge, halo-replicated updates."),
)}
