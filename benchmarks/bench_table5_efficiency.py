"""Table V — peak/average efficiency of the four DGEMM implementations.

Shape requirements: OpenBLAS-8x6 wins every metric; serial efficiencies
within ~2 points of the paper; the paper's serial ordering
8x6 > 8x4 > ATLAS-5x5 > 4x4 holds.
"""

from conftest import bench_exhibit


def test_table5_efficiency(benchmark, report_dir):
    rows = bench_exhibit(benchmark, report_dir, "table5_efficiency")

    by = {(r.kernel, r.threads): r for r in rows}
    for threads in (1, 8):
        effs = [by[(k, threads)].peak for k in (
            "OpenBLAS-8x6", "OpenBLAS-8x4", "ATLAS-5x5", "OpenBLAS-4x4")]
        assert effs[0] == max(effs)
    # Serial ordering identical to the paper's.
    serial = [by[(k, 1)].peak for k in (
        "OpenBLAS-8x6", "OpenBLAS-8x4", "ATLAS-5x5", "OpenBLAS-4x4")]
    assert serial == sorted(serial, reverse=True)
    # Serial peaks within 2 points.
    for k in ("OpenBLAS-8x6", "OpenBLAS-8x4", "ATLAS-5x5", "OpenBLAS-4x4"):
        assert abs(by[(k, 1)].peak - by[(k, 1)].paper_peak) < 0.02
