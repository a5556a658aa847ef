"""Table III — analytically derived block sizes for 8x6 / 8x4 / 4x4.

The engine must reproduce every published entry exactly.
"""

from conftest import bench_exhibit

PAPER = {
    "8x6": ("8x6x512x56x1920", "8x6x512x24x1792"),
    "8x4": ("8x4x768x32x1280", "8x4x768x16x1192"),
    "4x4": ("4x4x768x32x1280", "4x4x768x16x1192"),
}


def test_table3_blocksizes(benchmark, report_dir):
    rows = bench_exhibit(benchmark, report_dir, "table3_blocksizes")
    for kernel, serial, parallel in rows:
        assert (serial, parallel) == PAPER[kernel], kernel
