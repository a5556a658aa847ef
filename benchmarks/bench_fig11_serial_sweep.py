"""Fig. 11 — performance vs matrix size, four implementations, one thread.

Shape requirements: 8x6 dominates across the sweep (it beats ATLAS at
every size, as the paper states), and every curve ramps up to a plateau.
"""

from conftest import bench_exhibit


def test_fig11_serial_sweep(benchmark, report_dir):
    data = bench_exhibit(benchmark, report_dir, "fig11_serial_sweep")

    ours = data["OpenBLAS-8x6"]
    atlas = data["ATLAS-5x5"]
    for r86, r55 in zip(ours, atlas):
        assert r86.gflops > r55.gflops, r86.m
    # Plateau: the last point is within 2% of the sweep's peak.
    gf = [r.gflops for r in ours]
    assert gf[-1] > 0.98 * max(gf)
