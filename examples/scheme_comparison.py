"""Compare the I/O cost of all seven Table-3 schemes on one workload.

Reproduces, in miniature, the core message of the paper's evaluation:
the four optimizations are complementary — SRR/DIP shine on clustered
data, DEP/IWP cover the cases SRR/DIP cannot prune — and NWC* (all
four) wins everywhere.

Run with:  python examples/scheme_comparison.py
"""

from repro import ALL_SCHEMES, NWCEngine, NWCQuery, RStarTree
from repro.datasets import ca_like, gaussian
from repro.storage import StatsAggregator
from repro.workloads import data_biased_query_points


def evaluate(dataset, n_queries: int = 5) -> None:
    print(f"\n=== {dataset.name} ({dataset.cardinality} objects) ===")
    tree = RStarTree.bulk_load(dataset.points)
    queries = [
        NWCQuery(qx, qy, length=120, width=120, n=8)
        for qx, qy in data_biased_query_points(dataset, n_queries, seed=7)
    ]
    baseline = None
    print(f"{'scheme':>8} {'avg node accesses':>18} {'reduction':>10}")
    for scheme in ALL_SCHEMES:
        engine = NWCEngine(tree, scheme)
        agg = StatsAggregator()
        for query in queries:
            agg.add(engine.nwc(query).stats)
        mean_io = agg.mean()
        if baseline is None:
            baseline = mean_io
        reduction = 100.0 * (baseline - mean_io) / baseline if baseline else 0.0
        print(f"{scheme.value:>8} {mean_io:>18.1f} {reduction:>9.1f}%")


def main() -> None:
    evaluate(ca_like(15_000))          # moderately clustered
    evaluate(gaussian(15_000))         # near-uniform core


if __name__ == "__main__":
    main()
