"""Table VII — L1 cache load-miss rates from the event-accurate cache sim.

Shape requirements: all rates in the paper's 3-6% band; 4x4 worst; and
the paper's closing observation holds — 8x6 does *not* have the lowest
miss rate (8x4 does) yet is the best performer because it issues the
fewest loads.
"""

from conftest import bench_exhibit


def test_table7_miss_rates(benchmark, report_dir):
    rows = bench_exhibit(benchmark, report_dir, "table7_miss_rates")

    rates = {(k, t): mr for k, t, mr, _ in rows}
    for (k, t), r in rates.items():
        assert 0.02 < r < 0.08, (k, t)
    for t in (1, 8):
        assert rates[("8x4", t)] < rates[("8x6", t)]
        assert rates[("4x4", t)] > rates[("8x6", t)]
