"""Fig. 15 — number of L1-dcache-loads vs matrix size.

Shape requirements: 8x6 issues the fewest loads at every size (its
(mr+nr)/(2*mr*nr) loads-per-flop is the smallest), 4x4 the most; counts
grow cubically; the magnitude at the top of the sweep is ~10^10, as in
the paper's y-axis.
"""

from conftest import bench_exhibit


def test_fig15_l1_loads(benchmark, report_dir):
    data = bench_exhibit(benchmark, report_dir, "fig15_l1_loads")

    for threads in (1, 8):
        l86 = data[f"OpenBLAS-8x6 ({threads}T)"]
        l84 = data[f"OpenBLAS-8x4 ({threads}T)"]
        l44 = data[f"OpenBLAS-4x4 ({threads}T)"]
        for a, b, c in zip(l86, l84, l44):
            assert a < b < c
    # Magnitude check at the largest size (paper: a few x 10^10).
    assert 1e10 < data["OpenBLAS-8x6 (1T)"][-1] < 1e11
