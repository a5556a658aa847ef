"""Table I — software register rotation for the 8x6 kernel.

Regenerates the paper's rotation table from the solver and verifies the
published digits, then reports both the paper's cycle (distance 7) and the
exhaustive optimum (distance 11).
"""

from conftest import bench_exhibit


def test_table1_rotation(benchmark, report_dir):
    table = bench_exhibit(benchmark, report_dir, "table1_rotation")
    assert table["A0"] == [0, 2, 4, 7, 6, 1, 3, 5]
