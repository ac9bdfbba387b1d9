"""Figure 11: effect of the number of searched objects n.

Paper claims reproduced here:
* Baseline NWC is (nearly) flat in n — it visits every object anyway.
* NWC* wins across the board.
* On the highly clustered NY-like dataset the pruning schemes keep
  beating the baseline even at n = 128.
"""

from benchmarks.conftest import BENCH_QUERIES, mean_by, record
from repro.eval import EXPERIMENTS
from repro.workloads import N_VALUES


def test_fig11_num_objects(run_once):
    result = run_once(EXPERIMENTS["fig11"], queries=BENCH_QUERIES)
    record(result, x_column="n")

    for dataset in ("CA-like", "NY-like", "Gaussian(std=2000)"):
        nwc = [mean_by(result, dataset=dataset, n=n, scheme="NWC") for n in N_VALUES]
        # Baseline varies little with n (every object visited regardless).
        assert max(nwc) <= 1.25 * min(nwc)
        # NWC* never loses to the baseline.
        for n in N_VALUES:
            star = mean_by(result, dataset=dataset, n=n, scheme="NWC*")
            assert star <= nwc[0] * 1.1

    # NY-like: still large reductions at n = 128 (paper Section 5.3).
    ny_nwc = mean_by(result, dataset="NY-like", n=128, scheme="NWC")
    ny_star = mean_by(result, dataset="NY-like", n=128, scheme="NWC*")
    assert ny_star < 0.5 * ny_nwc
