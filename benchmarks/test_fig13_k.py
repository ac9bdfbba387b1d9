"""Figure 13: kNWC — effect of k (kNWC+ vs kNWC*).

Paper claims reproduced here:
* I/O of both schemes grows (roughly monotonically) with k.
* kNWC* outperforms (or at least matches) kNWC+ thanks to DEP + IWP.
"""

from benchmarks.conftest import BENCH_QUERIES, mean_by, record
from repro.eval import EXPERIMENTS
from repro.workloads import K_VALUES


def test_fig13_k(run_once):
    result = run_once(EXPERIMENTS["fig13"], queries=BENCH_QUERIES)
    record(result, x_column="k")

    for dataset in ("CA-like", "NY-like"):
        plus = [mean_by(result, dataset=dataset, k=k, scheme="kNWC+") for k in K_VALUES]
        star = [mean_by(result, dataset=dataset, k=k, scheme="kNWC*") for k in K_VALUES]
        # Cost grows with k overall.
        assert plus[-1] >= plus[0]
        assert star[-1] >= star[0]
        # kNWC* is at least competitive at every k and wins on average.
        assert sum(star) <= sum(plus) * 1.05
