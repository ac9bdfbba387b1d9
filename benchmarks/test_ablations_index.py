"""Index-substrate ablation: how much does the R-tree variant move the
paper's numbers?

The paper fixes one substrate (an R*-tree, fanout 50).  This bench runs
the same NWC workload over four tree constructions — STR bulk load
(our experiment default), Hilbert-curve bulk load, dynamic R* inserts,
and dynamic Guttman quadratic/linear splits — and records the I/O of
the NWC* scheme on each.  The claim being defended: the paper's
findings are substrate-robust (same winner, same order of magnitude).
"""

import os

import pytest

from benchmarks.conftest import RESULTS_DIR
from repro.core import NWCEngine, NWCQuery, Scheme
from repro.datasets import ca_like
from repro.index import RStarTree, hilbert_bulk_load, make_tree, validate_tree
from repro.storage import StatsAggregator
from repro.workloads import data_biased_query_points

SCALE = float(os.environ.get("REPRO_SCALE", "0.05"))
CARD = min(max(1, int(62_556 * SCALE)), 8000)  # dynamic builds are O(N log N) python


def _build(kind: str, points):
    if kind == "str":
        return RStarTree.bulk_load(points)
    if kind == "hilbert":
        return hilbert_bulk_load(points)
    tree = make_tree(kind)  # "rstar" | "quadratic" | "linear"
    tree.extend(points)
    return tree


@pytest.mark.parametrize("kind", ["str", "hilbert", "rstar", "quadratic", "linear"])
def test_tree_variant_nwc_io(benchmark, kind):
    dataset = ca_like(CARD)
    tree = _build(kind, dataset.points)
    validate_tree(tree)
    engine = NWCEngine(tree, Scheme.NWC_STAR)
    queries = [
        NWCQuery(qx, qy, 120, 120, 8)
        for qx, qy in data_biased_query_points(dataset, 3, seed=13)
    ]

    def run():
        agg = StatsAggregator()
        for query in queries:
            agg.add(engine.nwc(query).stats)
        return agg.mean()

    mean_io = benchmark.pedantic(run, rounds=1, iterations=1)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "ablation_index.txt"), "a") as handle:
        handle.write(f"{kind:>10}: NWC* mean node accesses = {mean_io:.1f} "
                     f"(height {tree.height}, {tree.node_count()} nodes)\n")
    assert mean_io > 0
    # Substrate robustness: a packed STR tree on the same data must be
    # within one order of magnitude of this variant.
    reference_tree = RStarTree.bulk_load(dataset.points)
    reference = NWCEngine(reference_tree, Scheme.NWC_STAR)
    ref_agg = StatsAggregator()
    for query in queries:
        ref_agg.add(reference.nwc(query).stats)
    assert mean_io <= 10 * max(ref_agg.mean(), 1.0)
