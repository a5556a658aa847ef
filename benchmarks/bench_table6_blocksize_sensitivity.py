"""Table VI — OpenBLAS-8x6 under different kc x mc x nc block sizes.

Shape requirements: the associativity-aware sizes win in both settings,
and reusing the serial mc = 56 with 8 threads costs several points (the
two threads sharing an L2 overflow it).
"""

from conftest import bench_exhibit


def test_table6_blocksize_sensitivity(benchmark, report_dir):
    rows = bench_exhibit(benchmark, report_dir, "table6_blocksize_sensitivity")

    by = {(s, cfg): p for s, cfg, p, _ in rows}
    # Serial: our choice beats the Goto half-cache-style 320x96x1536.
    assert by[("serial", "512x56x1920")] >= by[("serial", "320x96x1536")]
    # Parallel: derived mc=24 beats serial mc=56 reused at 8 threads.
    assert (
        by[("8 threads", "512x24x1792")] - by[("8 threads", "512x56x1920")]
        > 0.03
    )
    assert (
        by[("8 threads", "512x24x1920")] > by[("8 threads", "512x56x1792")]
    )
