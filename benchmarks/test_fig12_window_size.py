"""Figure 12: effect of the window size.

Paper claims reproduced here:
* Baseline NWC gets more expensive as the window grows (larger search
  regions, more objects per window query).
* SRR/DIP (and hence NWC+) improve relative to NWC as the window grows
  — locally best qualified windows become easy to find.
* NWC* is the best scheme at every window size.
"""

from benchmarks.conftest import BENCH_QUERIES, mean_by, record
from repro.eval import EXPERIMENTS
from repro.workloads import WINDOW_SIZES


def test_fig12_window_size(run_once):
    result = run_once(EXPERIMENTS["fig12"], queries=BENCH_QUERIES)
    record(result, x_column="window")

    for dataset in ("CA-like", "NY-like", "Gaussian(std=2000)"):
        small = mean_by(result, dataset=dataset, window=8.0, scheme="NWC")
        large = mean_by(result, dataset=dataset, window=128.0, scheme="NWC")
        assert large > small  # baseline grows with the window

        for window in WINDOW_SIZES:
            nwc = mean_by(result, dataset=dataset, window=window, scheme="NWC")
            star = mean_by(result, dataset=dataset, window=window, scheme="NWC*")
            assert star <= nwc * 1.1

    # On the clustered datasets NWC+ keeps a high reduction rate at
    # every window size (the paper reports 99.5%-99.9% on NY and
    # 93.7%-99.8% on CA for windows >= 16).
    for dataset in ("CA-like", "NY-like"):
        for window in WINDOW_SIZES:
            nwc = mean_by(result, dataset=dataset, window=window, scheme="NWC")
            plus = mean_by(result, dataset=dataset, window=window, scheme="NWC+")
            assert plus <= 0.5 * nwc  # at least a 50% cut everywhere

    # Gaussian, window 8: too sparse for any qualified window, so SRR
    # and DIP degenerate to the baseline (paper, Fig 12c).
    gauss_nwc = mean_by(result, dataset="Gaussian(std=2000)", window=8.0, scheme="NWC")
    for scheme in ("SRR", "DIP", "NWC+"):
        degenerate = mean_by(result, dataset="Gaussian(std=2000)", window=8.0,
                             scheme=scheme)
        assert degenerate >= 0.9 * gauss_nwc
