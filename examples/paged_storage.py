"""Database substrate tour: paged persistence and the cost model.

Persists an R*-tree into a 4096-byte-page file (the paper's page size),
reloads it counting physical page reads, and compares a measured query
against the Section 4 analytic model.

Run with:  python examples/paged_storage.py
"""

import os
import tempfile

from repro import NWCEngine, NWCQuery, RStarTree, Scheme
from repro.analysis import NWCCostModel, TreeProfile
from repro.datasets import uniform
from repro.index import load_tree, save_tree
from repro.storage import IOStats


def main() -> None:
    dataset = uniform(20_000, seed=42)
    tree = RStarTree.bulk_load(dataset.points)
    print(f"in-memory tree: {tree.node_count()} nodes, height {tree.height}")

    # --- persist to 4 KB pages -------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "uniform.tree")
        pages = save_tree(tree, path)
        size_kb = os.path.getsize(path) / 1024
        print(f"saved: {pages} pages, {size_kb:.0f} KB on disk")

        stats = IOStats()
        reloaded = load_tree(path, stats=stats)
        print(f"loaded: {stats.page_reads} physical page reads, "
              f"{reloaded.size} objects")

    # --- analytic model vs a measured query ------------------------
    profile = TreeProfile.from_tree(tree)
    query = NWCQuery(5000, 5000, length=400, width=400, n=8)
    engine = NWCEngine(tree, Scheme.NWC_PLUS)
    measured = engine.nwc(query).node_accesses
    model = NWCCostModel(
        lam=dataset.density, length=query.length, width=query.width,
        n=query.n, max_level=14,
    )
    predicted = model.expected_io(profile.window_cost, profile.knn_cost)
    print(f"\nSection 4 model: predicted ~{predicted:.0f} node accesses, "
          f"measured {measured} (same order of magnitude; see EXPERIMENTS.md)")


if __name__ == "__main__":
    main()
