"""Figure 14: kNWC — effect of the allowed overlap m (kNWC+ vs kNWC*).

Paper claims reproduced here:
* Larger m makes it easier to assemble the k groups, so I/O tends to
  fall (or at least not grow) with m.
* kNWC* outperforms (or at least matches) kNWC+.
"""

from benchmarks.conftest import BENCH_QUERIES, mean_by, record
from repro.eval import EXPERIMENTS
from repro.workloads import M_VALUES


def test_fig14_m(run_once):
    result = run_once(EXPERIMENTS["fig14"], queries=BENCH_QUERIES)
    record(result, x_column="m")

    for dataset in ("CA-like", "NY-like"):
        plus = [mean_by(result, dataset=dataset, m=m, scheme="kNWC+") for m in M_VALUES]
        star = [mean_by(result, dataset=dataset, m=m, scheme="kNWC*") for m in M_VALUES]
        # Relaxing the overlap constraint never makes the search harder.
        assert plus[-1] <= plus[0] * 1.25
        assert star[-1] <= star[0] * 1.25
        # kNWC* wins on average.
        assert sum(star) <= sum(plus) * 1.05
