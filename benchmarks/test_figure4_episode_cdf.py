"""Figure 4: CDF of per-1-hour-episode failure rates; knee -> threshold f.

Paper: a distinct knee separates normal (low) rates from the abnormal
tail; the paper picks f=5% (and f=10% as a conservative variant).
"""

import numpy as np

from repro.core import episodes, report


def test_figure4_cdf_and_knee(benchmark, bench_dataset, bench_perm, emit):
    def compute():
        client_m = episodes.client_rate_matrix(
            bench_dataset, excluded_pairs=bench_perm.mask
        )
        server_m = episodes.server_rate_matrix(
            bench_dataset, excluded_pairs=bench_perm.mask
        )
        return (
            episodes.detect_knee(client_m),
            episodes.detect_knee(server_m),
            client_m,
            server_m,
        )

    client_knee, server_knee, client_m, server_m = benchmark.pedantic(
        compute, rounds=3, iterations=1
    )
    emit(report.figure4(bench_dataset, bench_perm.mask))

    # The knees land in the single-digit-percent region around the paper's
    # f = 5%.
    assert 0.01 <= client_knee <= 0.12
    assert 0.01 <= server_knee <= 0.12

    # The CDF itself has the paper's shape: the bulk of episodes are
    # low-rate, with a long abnormal tail.
    for matrix in (client_m, server_m):
        rates = matrix.flatten_valid()
        assert np.median(rates) < 0.03
        assert np.percentile(rates, 99.5) > 0.05
