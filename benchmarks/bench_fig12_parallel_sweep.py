"""Fig. 12 — performance vs matrix size, four implementations, 8 threads.

Shape requirements: 8x6 is the best performer across the sweep and beats
ATLAS at every size; absolute Gflops approach the paper's ~32.7 plateau.
"""

from conftest import bench_exhibit


def test_fig12_parallel_sweep(benchmark, report_dir):
    data = bench_exhibit(benchmark, report_dir, "fig12_parallel_sweep")

    ours = data["OpenBLAS-8x6"]
    for name, results in data.items():
        if name == "OpenBLAS-8x6":
            continue
        assert max(r.gflops for r in ours) > max(r.gflops for r in results)
    # "Nearly all the input sizes" (paper): at the smallest sizes
    # thread-count divisibility can favor a different mc; from 1024 up
    # the 8x6 kernel must win outright.
    for r86, r55 in zip(ours, data["ATLAS-5x5"]):
        if r86.m >= 1024:
            assert r86.gflops > r55.gflops
    # Peak in the right ballpark (paper: 32.7 Gflops).
    assert 30.0 < max(r.gflops for r in ours) < 35.0
