"""Answer verification, run after the timed passes, over all of them.

*Engine workloads* compare a fixed three-query sample of the first pass
— results **and** node accesses — with the scalar oracle
(``execution="python"``), and every answer of a later pass with the
first pass's.

*Served and fleet workloads* replay the updating connection's
acknowledged updates on a twin engine in this process, built the way
``repro serve`` builds its own, and compare every sampled read answer —
and every pushed ``notify`` frame — byte for byte with what the twin
serializes at the dataset ``version`` the frame carries.  Because every
update is issued by one closed-loop connection, version ``v`` is exactly
"the first ``v`` acknowledged updates applied", whatever the other
connection was doing at the time.
"""

from __future__ import annotations

import harness
from harness import OpRecord, RunLog

from repro.core import NWCEngine, Scheme
from repro.geometry import PointObject
from repro.grid.density import DensityGrid
from repro.index import RStarTree
from repro.serve import protocol


def build_twin(dataset) -> NWCEngine:
    """The engine ``repro serve`` builds at its defaults (NWC*, columnar,
    DEP grid of cell 25 over the dataset extent).  A fleet answers NWC
    bit-identically to this same engine."""
    tree = RStarTree.bulk_load(dataset.points)
    grid = DensityGrid.build(dataset.points, dataset.extent, 25.0)
    return NWCEngine(tree, Scheme.NWC_STAR, grid=grid, extent=dataset.extent)


def _apply(twin: NWCEngine, op: tuple) -> None:
    obj = PointObject(op[1], op[2], op[3])
    if op[0] == "insert":
        twin.insert(obj)
    else:
        twin.delete(obj)


def _payload(result, kind: str) -> bytes:
    serialize = protocol.serialize_nwc if kind == "nwc" \
        else protocol.serialize_knwc
    return protocol.encode_line(serialize(result))


def verify_engine(passes: list[list[OpRecord]], tree,
                  window: float) -> tuple[int, int]:
    """``(checked, mismatches)``: the first, middle and last NWC answers
    of the first pass against the scalar oracle on the same tree, and
    every answer of the later passes against the first pass's."""
    reads = [r for r in passes[0] if r.ok and r.op[0] == "nwc"]
    if not reads:
        return 0, 0
    oracle = NWCEngine(tree, Scheme.NWC_STAR, execution="python")
    sample = {0, len(reads) // 2, len(reads) - 1}
    checked, mismatches = len(sample), 0
    for i in sorted(sample):
        record = reads[i]
        expected = harness.answer(oracle, record.op, window)
        same = (_payload(record.result, "nwc") == _payload(expected, "nwc")
                and record.node_accesses == expected.node_accesses)
        mismatches += not same
    for same_op in zip(*passes):
        answered = [r for r in same_op if r.ok]
        first = answered[0] if answered else None
        for record in answered[1:]:
            checked += 1
            mismatches += not (
                _payload(record.result, record.op[0])
                == _payload(first.result, first.op[0])
                and record.node_accesses == first.node_accesses)
    return checked, mismatches


def _updates(log: RunLog) -> list[OpRecord]:
    return sorted(
        (r for r in log.records if r.ok and r.op[0] in ("insert", "delete")),
        key=lambda r: r.version)


def verify_served(plan, passes: list[tuple[RunLog, list[OpRecord]]], dataset,
                  window: float) -> tuple[int, int]:
    """``(checked, mismatches)`` of sampled reads, subscription acks and
    notify frames of every pass against a twin replay.  Passes that
    acknowledged the same updates (all of them, unless something failed)
    share one twin and one walk through the versions."""
    by_updates: dict[tuple, list] = {}
    for log, warm in passes:
        key = tuple(r.op for r in _updates(log))
        by_updates.setdefault(key, []).append((log, warm))
    checked = mismatches = 0
    for updates, group in by_updates.items():
        c, m = _verify_group(plan, updates, group, dataset, window)
        checked += c
        mismatches += m
    return checked, mismatches


def _verify_group(plan, updates: tuple, group: list, dataset,
                  window: float) -> tuple[int, int]:
    # checks: (version, kind, x, y, served payload)
    checks: list[tuple[int, str, float, float, object]] = []
    for log, warm in group:
        for record in list(warm) + log.records:
            if record.ok and record.result is not None \
                    and record.op[0] in ("nwc", "knwc"):
                checks.append((record.version, record.op[0], record.op[1],
                               record.op[2], record.result))
        for i, ack in enumerate(log.sub_acks):
            if ack is not None and i % harness.SAMPLE_EVERY == 0:
                checks.append((0, "nwc", *plan.subs[i], ack))
        for frame in log.notifies:
            checks.append((frame.version, "nwc", *plan.subs[frame.sub],
                           frame.result))
    if not checks:
        return 0, 0
    twin = build_twin(dataset)
    checks.sort(key=lambda c: c[0])
    checked = len(checks)
    mismatches = 0
    applied = 0
    expected_at: dict[tuple, bytes] = {}  # passes and hot pools repeat
    for version, kind, x, y, served in checks:
        while applied < version and applied < len(updates):
            _apply(twin, updates[applied])
            applied += 1
        if applied != version:
            mismatches += 1  # an answer at a version no ack explains
            continue
        key = (version, kind, x, y)
        if key not in expected_at:
            expected_at[key] = _payload(
                harness.answer(twin, (kind, x, y), window), kind)
        mismatches += protocol.encode_line(served) != expected_at[key]
    # A final-state check catches *missing* notifications: after the
    # last update, each sampled subscription's latest pushed (or
    # registered) answer must equal a fresh query.
    while applied < len(updates):
        _apply(twin, updates[applied])
        applied += 1
    for log, _warm in group:
        latest = dict(enumerate(log.sub_acks))
        for frame in log.notifies:
            latest[frame.sub] = frame.result
        for i in range(0, len(log.sub_acks), harness.SAMPLE_EVERY):
            if latest[i] is None:
                continue
            key = (len(updates), "nwc", *plan.subs[i])
            if key not in expected_at:
                expected_at[key] = _payload(
                    harness.answer(twin, ("nwc", *plan.subs[i]), window),
                    "nwc")
            mismatches += protocol.encode_line(latest[i]) != expected_at[key]
            checked += 1
    return checked, mismatches
