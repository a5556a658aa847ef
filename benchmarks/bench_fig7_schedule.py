"""Figs. 6/7 — register allocation and instruction scheduling distances.

The paper reports optimal distance 7 for rotation (eq. (12)) and 9 for the
load schedule (eq. (13)); the exhaustive solver improves both.
"""

from conftest import bench_exhibit


def test_fig7_schedule(benchmark, report_dir):
    rep = bench_exhibit(benchmark, report_dir, "fig7_schedule")
    assert rep.rotation_distance_paper == 7
    assert rep.schedule_distance_paper >= 9
    assert rep.rotation_distance_solved >= rep.rotation_distance_paper
