"""Table IV — efficiency under varying LDR:FMLA ratios.

The calibrated model must land within 2 points of every published ratio;
the structural scoreboard bound is reported alongside.
"""

import math

from conftest import bench_exhibit


def test_table4_microbench(benchmark, report_dir):
    rows = bench_exhibit(benchmark, report_dir, "table4_microbench")
    for r in rows:
        if not math.isnan(r.paper_efficiency):
            assert abs(r.model_efficiency - r.paper_efficiency) < 0.02
