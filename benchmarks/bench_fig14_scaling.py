"""Fig. 14 — OpenBLAS-8x6 under 1/2/4/8 threads.

Shape requirements: monotone scaling at large sizes; near-ideal speedup
for 2 and 4 threads (threads own whole modules); the 8-thread curve ramps
with size like the paper's.
"""

from conftest import bench_exhibit


def test_fig14_scaling(benchmark, report_dir):
    data = bench_exhibit(benchmark, report_dir, "fig14_scaling")

    big = {t: max(r.gflops for r in results) for t, results in data.items()}
    assert big[1] < big[2] < big[4] < big[8]
    # 2 and 4 threads scale near-ideally at the plateau.
    assert big[2] / big[1] > 1.9
    assert big[4] / big[1] > 3.7
    assert big[8] / big[1] > 7.0
