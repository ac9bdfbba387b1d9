"""One answer order: every result ranks by ``(distance, order key,
sorted oids)``.

The pruned schemes, the unpruned baseline and the two index-free
references (brute force, slab sweep) return the same kNWC groups, each
at the same window, and NWC's group is the first group of the kNWC
candidate stream.  Distance ties are where these used to part: the
CA anchors below are ones where they did.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core import (
    DistanceMeasure,
    ExactGroupBuffer,
    KNWCQuery,
    NWCEngine,
    NWCQuery,
    Scheme,
    knwc_bruteforce,
    knwc_sweep,
)
from repro.core import engine as engine_module
from repro.datasets import ca_like
from repro.index import RStarTree
from repro.serve import protocol
from repro.workloads import data_biased_query_points
from tests.conftest import make_clustered_points

POINT_MEASURES = (DistanceMeasure.MAX, DistanceMeasure.MIN,
                  DistanceMeasure.AVG)
PRUNED = (Scheme.NWC_PLUS, Scheme.NWC_STAR)


def _knwc(result):
    """A kNWC answer as served: groups, members and windows, bit exact."""
    return protocol.serialize_knwc(result)


def _assert_same_groups(got, want):
    """Members and windows bit for bit.  A reference's distances are the
    same sums in another order (``math.hypot`` against the engine's
    ``sqrt`` of squares), equal to an ulp."""
    assert ([(g.objects, g.window) for g in got.groups]
            == [(g.objects, g.window) for g in want.groups])
    assert [g.distance for g in got.groups] == pytest.approx(
        [g.distance for g in want.groups], rel=1e-12, abs=1e-12)


@pytest.fixture(scope="module")
def ca():
    """CA at the paper's cardinality and the seed-11 data-biased anchors
    (some of them: those where the old tie rules disagreed, and others)."""
    dataset = ca_like(62_556)
    tree = RStarTree.bulk_load(dataset.points)
    anchors = data_biased_query_points(dataset, 40, seed=11)
    engines = {scheme: NWCEngine(tree, scheme)
               for scheme in (Scheme.NWC, *PRUNED)}
    return engines, [anchors[i] for i in (0, 4, 8, 11, 21)]


@pytest.mark.parametrize("execution", ["python", "columnar"])
def test_pruned_knwc_equals_baseline_and_bruteforce(execution):
    rng = random.Random(2026)
    checked = 0
    for seed in range(3):
        points = make_clustered_points(60, clusters=2, span=200.0,
                                       spread=10.0, seed=seed)
        tree = RStarTree.bulk_load(points, max_entries=8)
        baseline = NWCEngine(tree, Scheme.NWC)
        pruned = [NWCEngine(tree, scheme, execution=execution)
                  for scheme in PRUNED]
        for _ in range(3):
            x, y = rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)
            for measure in POINT_MEASURES:
                query = KNWCQuery.make(x, y, 15.0, 12.0, rng.randint(2, 3),
                                       3, rng.choice((0, 1)), measure)
                want = baseline.knwc(query)
                _assert_same_groups(want, knwc_bruteforce(points, query))
                for engine in pruned:
                    assert _knwc(engine.knwc(query)) == _knwc(want)
                checked += bool(want.groups)
    assert checked > 0


@pytest.mark.parametrize("measure", [DistanceMeasure.MAX, DistanceMeasure.MIN],
                         ids=lambda m: m.value)
def test_ca_pruned_knwc_equals_baseline(ca, measure):
    engines, anchors = ca
    for x, y in anchors:
        query = KNWCQuery.make(x, y, 8.0, 8.0, 8, 4, 1, measure)
        want = _knwc(engines[Scheme.NWC].knwc(query))
        for scheme in PRUNED:
            assert _knwc(engines[scheme].knwc(query)) == want, (scheme, x, y)


@pytest.mark.parametrize("measure", POINT_MEASURES, ids=lambda m: m.value)
def test_knwc_first_group_is_the_nwc_group(ca, measure):
    engines, anchors = ca
    for x, y in anchors:
        nwc = engines[Scheme.NWC_STAR].nwc(NWCQuery(x, y, 8.0, 8.0, 8, measure))
        assert nwc.found
        want = protocol.serialize_nwc(nwc)["group"]
        for scheme, engine in engines.items():
            first = engine.knwc(KNWCQuery.make(x, y, 8.0, 8.0, 8, 1, 1, measure))
            assert _knwc(first)["groups"] == [want], (scheme, x, y)
            assert engine.nwc(NWCQuery(x, y, 8.0, 8.0, 8, measure)).group \
                == nwc.group


def test_sweep_crop_equals_bruteforce():
    """The slab sweep's partners stay inside ``SR_p``: on this CA crop
    the sweep used to emit 50 groups to the brute force's 44, windows
    that do not hold their generator among them."""
    points = [p for p in ca_like(62_556).points
              if 3380 <= p.x <= 3480 and 4020 <= p.y <= 4130]
    assert len(points) == 393
    query = KNWCQuery.make(2907.466946110124, 3969.7184040336665, 8, 8,
                           n=8, k=4, m=1)
    want = knwc_bruteforce(points, query)
    assert len(want.groups) == 4
    _assert_same_groups(knwc_sweep(points, query), want)


class _CountingBuffer(ExactGroupBuffer):
    """An :class:`ExactGroupBuffer` that notes whether its ``bound()``
    ever rose between two reads — a newcomer displaced kept groups."""

    instances: list["_CountingBuffer"] = []

    def __init__(self, k: int, m: int) -> None:
        super().__init__(k, m)
        self.rose = False
        self._last = math.inf
        _CountingBuffer.instances.append(self)

    def bound(self) -> float:
        bound = super().bound()
        self.rose |= bound > self._last
        self._last = bound
        return bound


def test_a_rising_bound_loses_no_group(monkeypatch):
    """Pruned kNWC equals the unpruned baseline, group and window, on
    seeded clustered data where the k-th bound rises mid-search."""
    monkeypatch.setattr(engine_module, "make_policy",
                        lambda kind, k, m: _CountingBuffer(k, m))
    _CountingBuffer.instances = []
    cases = rose = 0
    for seed in (7, 9, 10):
        rng = random.Random(seed)
        points = make_clustered_points(150, clusters=3, span=300.0,
                                       spread=12.0, seed=seed)
        tree = RStarTree.bulk_load(points, max_entries=8)
        baseline = NWCEngine(tree, Scheme.NWC)
        pruned = [NWCEngine(tree, scheme, execution=execution)
                  for scheme in PRUNED for execution in ("python", "columnar")]
        for _ in range(4):
            x, y = rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)
            for measure in POINT_MEASURES:
                query = KNWCQuery.make(x, y, 15.0, 15.0, rng.randint(2, 4),
                                       4, rng.choice((0, 1)), measure)
                want = _knwc(baseline.knwc(query))
                for engine in pruned:
                    del _CountingBuffer.instances[:]
                    assert _knwc(engine.knwc(query)) == want
                    cases += 1
                    rose += _CountingBuffer.instances[0].rose
    assert cases == 144
    assert rose > 0
