"""Unit tests for the layer gamma ratios (eqs. (8), (14), (16))."""

import pytest

from repro.errors import BlockingError
from repro.model import (
    RatioBreakdown,
    gebp_ratio,
    gess_ratio,
    register_kernel_ratio,
)


class TestRatios:
    """The paper's own gamma values are the ground truth here."""

    def test_register_kernel_gamma_8x6(self):
        # Paper Sec. V-B: gamma = 6.86 for the 8x6 kernel.
        assert register_kernel_ratio(8, 6) == pytest.approx(48 / 7)

    def test_register_kernel_gamma_8x4(self):
        assert register_kernel_ratio(8, 4) == pytest.approx(16 / 3)

    def test_register_kernel_gamma_4x4(self):
        assert register_kernel_ratio(4, 4) == pytest.approx(4.0)

    def test_register_kernel_gamma_5x5(self):
        # ATLAS kernel: gamma = 5 (paper Sec. V-B).
        assert register_kernel_ratio(5, 5) == pytest.approx(5.0)

    def test_symmetry(self):
        assert register_kernel_ratio(8, 6) == register_kernel_ratio(6, 8)

    def test_square_maximizes_for_fixed_sum(self):
        """The paper: 'the cost ... amortized most effectively when
        mr ~ nr'. For a fixed mr+nr, the square tile wins."""
        assert register_kernel_ratio(7, 7) > register_kernel_ratio(8, 6)
        assert register_kernel_ratio(8, 6) > register_kernel_ratio(10, 4)

    def test_gess_ratio_less_than_register(self):
        # Adding L2->L1 and C traffic can only reduce gamma.
        assert gess_ratio(8, 6, 512) < register_kernel_ratio(8, 6)

    def test_gess_ratio_improves_with_kc(self):
        assert gess_ratio(8, 6, 512) > gess_ratio(8, 6, 128)

    def test_gebp_ratio_less_than_gess(self):
        assert gebp_ratio(8, 6, 512, 56) < gess_ratio(8, 6, 512)

    def test_gebp_ratio_improves_with_mc(self):
        assert gebp_ratio(8, 6, 512, 56) > gebp_ratio(8, 6, 512, 8)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(BlockingError):
            register_kernel_ratio(0, 6)
        with pytest.raises(BlockingError):
            gess_ratio(8, 6, 0)
        with pytest.raises(BlockingError):
            gebp_ratio(8, 6, 512, -1)

    def test_breakdown(self):
        b = RatioBreakdown.for_blocking(8, 6, 512, 56)
        assert b.register_kernel > b.gess > b.gebp
        assert b.register_kernel == pytest.approx(48 / 7)
