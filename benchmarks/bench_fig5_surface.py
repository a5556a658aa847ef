"""Fig. 5 — compute-to-memory ratio surface over (mr, nrf).

Regenerates the surface and checks the annotated peak: gamma = 6.857 at
mr = 8, nrf = 6.
"""

import pytest
from conftest import bench_exhibit


def test_fig5_surface(benchmark, report_dir):
    points = bench_exhibit(benchmark, report_dir, "fig5_surface")
    gamma = {(mr, nrf): g for mr, nrf, g in points}
    peak = max(gamma.values())
    assert peak == pytest.approx(6.857, abs=1e-3)
    assert gamma[(8, 6)] == pytest.approx(peak)
