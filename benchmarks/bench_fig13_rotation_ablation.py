"""Fig. 13 — effectiveness of software-implemented register rotation.

Shape requirements: the rotated 8x6 beats the unrotated one at every size
in both serial and parallel settings, by a few percent.
"""

from conftest import bench_exhibit


def test_fig13_rotation_ablation(benchmark, report_dir):
    data = bench_exhibit(benchmark, report_dir, "fig13_rotation_ablation")

    for setting, curves in data.items():
        rot = curves["OpenBLAS-8x6"]
        no = curves["OpenBLAS-8x6w/oRR"]
        for a, b in zip(rot, no):
            assert a.gflops > b.gflops, (setting, a.m)
        gain = max(r.gflops for r in rot) / max(r.gflops for r in no)
        assert 1.01 < gain < 1.12, setting
