"""Figure 9: effect of the density-grid cell size on scheme DEP.

Paper claims reproduced here:
* CA and Gaussian: I/O increases with the grid (cell) size — finer
  grids give tighter upper bounds and better pruning.
* NY: nearly constant — extreme clustering defeats the grid regardless
  of granularity (relative growth far smaller than CA/Gaussian).
"""

from benchmarks.conftest import BENCH_QUERIES, mean_by, record
from repro.eval import EXPERIMENTS


def test_fig9_grid_size(run_once):
    result = run_once(EXPERIMENTS["fig9"], queries=BENCH_QUERIES)
    record(result, x_column="grid_size")

    def growth(dataset: str) -> float:
        coarse = mean_by(result, dataset=dataset, grid_size=400.0)
        fine = mean_by(result, dataset=dataset, grid_size=25.0)
        return coarse / max(fine, 1.0)

    ca = growth("CA-like")
    gauss = growth("Gaussian(std=2000)")
    ny = growth("NY-like")
    # Finer grid helps CA-like and Gaussian substantially...
    assert ca > 1.5
    assert gauss > 1.5
    # ...while the highly clustered NY-like dataset barely benefits.
    assert ny < min(ca, gauss)
