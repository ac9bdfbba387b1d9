"""Re-entrancy of the engine: a query owns its counters, anchor band and
offer-order origin, and reads the snapshot it searches once.

Clock-free forced interleavings: thread A parks on a ``threading.Event``
inside a wrapped snapshot method, thread B runs a whole query, then A
resumes.  Every answer — group, order keys, ``exhausted`` and the full I/O
counter dict — must equal the sequential run's.  The event waits carry
a timeout only as a hang guard.
"""

from __future__ import annotations

import math
import threading

import repro.core.engine as engine_module
from repro.core import KNWCQuery, NWCEngine, NWCQuery, Scheme
from repro.index import FlatRTree, RStarTree
from tests.conftest import make_clustered_points

POINTS = make_clustered_points(3000, clusters=6, spread=60.0, seed=41)
QUERY_A = NWCQuery(420.0, 380.0, 40.0, 40.0, 8)
QUERY_B = NWCQuery(610.0, 640.0, 50.0, 30.0, 6)
WEST = (-math.inf, -math.inf, 500.0, math.inf)
EAST = (500.0, -math.inf, math.inf, math.inf)
HANG_GUARD_S = 60.0


def _engine() -> NWCEngine:
    return NWCEngine(RStarTree.bulk_load(POINTS, max_entries=16),
                     Scheme.NWC_STAR)


class _Gate:
    """Parks the first call ``thread`` makes through :meth:`wrap` until
    :meth:`release`; other calls pass straight through."""

    def __init__(self) -> None:
        self.thread: threading.Thread | None = None
        self.reached = threading.Event()
        self._released = threading.Event()

    def wrap(self, fn):
        def gated(*args, **kwargs):
            if (threading.current_thread() is self.thread
                    and not self.reached.is_set()):
                self.reached.set()
                assert self._released.wait(HANG_GUARD_S)
            return fn(*args, **kwargs)
        return gated

    def wait(self) -> None:
        assert self.reached.wait(HANG_GUARD_S), "the gate was never reached"

    def release(self) -> None:
        self._released.set()


class _Call(threading.Thread):
    """``fn()`` on its own thread; :meth:`result` re-raises its error."""

    def __init__(self, fn, *gates: _Gate) -> None:
        super().__init__(daemon=True)
        self._fn = fn
        self._outcome: dict = {}
        for gate in gates:
            gate.thread = self

    def run(self) -> None:
        try:
            self._outcome["value"] = self._fn()
        except BaseException as exc:  # surfaced by result()
            self._outcome["error"] = exc

    def result(self):
        self.join(HANG_GUARD_S)
        assert not self.is_alive(), "the call never finished"
        if "error" in self._outcome:
            raise self._outcome["error"]
        return self._outcome["value"]


def _interleaved(monkeypatch, first, second):
    """``first()`` parks at its first window walk while ``second()``
    runs to completion; then ``first()`` finishes.  Returns both."""
    gate = _Gate()
    monkeypatch.setattr(FlatRTree, "window_query_batch",
                        gate.wrap(FlatRTree.window_query_batch))
    call = _Call(first, gate)
    call.start()
    gate.wait()
    try:
        other = second()
    finally:
        gate.release()
    return call.result(), other


def test_two_nwc_calls_keep_their_own_counters(monkeypatch):
    engine = _engine()
    expected = engine.nwc(QUERY_A), engine.nwc(QUERY_B)
    got = _interleaved(monkeypatch, lambda: engine.nwc(QUERY_A),
                       lambda: engine.nwc(QUERY_B))
    assert got == expected
    assert got[0].found and got[0].stats["node_accesses"] > 0


def test_two_ordered_calls_keep_their_own_anchor_bands(monkeypatch):
    engine = _engine()

    def west():
        return engine.knwc_candidates(QUERY_A, 1, anchor_region=WEST)

    def east():
        return engine.knwc_candidates(QUERY_A, 1, ceiling=math.inf,
                                      anchor_region=EAST)

    expected = west(), east()
    got = _interleaved(monkeypatch, west, east)
    assert got == expected
    page, _ = got
    assert page.groups and page.orders


def test_two_candidate_pools_keep_their_own_state(monkeypatch):
    engine = _engine()
    query = KNWCQuery.make(QUERY_A.qx, QUERY_A.qy, QUERY_A.length,
                           QUERY_A.width, 6, 3, 2)

    def run(band):
        pool = engine.knwc_candidates(query, 8, anchor_region=band)
        return ([g.oids for g in pool.groups],
                [g.distance for g in pool.groups],
                pool.orders, pool.exhausted, pool.stats)

    expected = run(WEST), run(EAST)
    got = _interleaved(monkeypatch, lambda: run(WEST), lambda: run(EAST))
    assert got == expected
    assert got[0][0] and got[0][4]["node_accesses"] > 0


def test_first_queries_racing_the_lazy_snapshot_build(monkeypatch):
    """A builds the snapshot while B builds, publishes and starts
    searching its own; A then publishes over B's mid-search.  B must
    keep searching the pair it read at its start."""
    expected = _engine().nwc(QUERY_A)
    engine = _engine()
    a_converting, a_indexing, b_walking = _Gate(), _Gate(), _Gate()
    from_tree = FlatRTree.from_tree
    monkeypatch.setattr(
        FlatRTree, "from_tree",
        staticmethod(a_converting.wrap(from_tree)))
    monkeypatch.setattr(engine_module, "FlatIWP",
                        a_indexing.wrap(engine_module.FlatIWP))
    monkeypatch.setattr(FlatRTree, "window_query_batch",
                        b_walking.wrap(FlatRTree.window_query_batch))
    a = _Call(lambda: engine.nwc(QUERY_A), a_converting, a_indexing)
    b = _Call(lambda: engine.nwc(QUERY_A), b_walking)
    a.start()
    a_converting.wait()
    b.start()
    b_walking.wait()
    a_converting.release()
    a_indexing.wait()
    b_walking.release()
    try:
        assert b.result() == expected
    finally:
        a_indexing.release()
    assert a.result() == expected

