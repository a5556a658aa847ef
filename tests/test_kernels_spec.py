"""Unit tests for kernel specs (instruction budgets, gammas, schedules)."""

import pytest

from repro.errors import BlockingError
from repro.kernels import (
    KERNEL_4X4,
    KERNEL_5X5_ATLAS,
    KERNEL_8X4,
    KERNEL_8X6,
    KERNEL_8X6_NO_ROTATION,
    PAPER_KERNELS,
    KernelSpec,
)
from tests.helpers import flops_per_fmla, lane_efficiency


class TestKernel8x6:
    """All the Sec. IV-A facts about the 8x6 kernel."""

    def test_register_budget(self):
        k = KERNEL_8X6
        assert k.c_regs == 24          # v8..v31
        assert k.a_regs_per_copy == 4  # 8 doubles
        assert k.b_regs_per_copy == 3  # 6 doubles
        assert k.ab_regs_per_copy == 7
        assert k.rotation_pool == 8    # v0..v7
        assert k.fits_register_file(32)

    def test_instruction_budget(self):
        k = KERNEL_8X6
        assert k.fmla_per_iter == 24
        assert k.ldr_per_iter == 7
        assert k.ldr_fmla_ratio == (7, 24)
        assert k.flops_per_iter == 96
        assert flops_per_fmla(k) == 4.0
        assert lane_efficiency(k) == 1.0

    def test_arithmetic_fraction(self):
        # Paper Sec. V-A: 77.4% for 8x6.
        assert KERNEL_8X6.arithmetic_fraction == pytest.approx(0.774, abs=1e-3)

    def test_gamma(self):
        assert KERNEL_8X6.gamma == pytest.approx(6.857, abs=1e-3)

    def test_read_schedule_shape(self):
        reads = KERNEL_8X6.read_schedule()
        assert len(reads) == 48  # 2 reads per FMLA
        # First FMLA reads A0 and B0; last reads A3 and B2.
        assert reads[0] == ("A", 0)
        assert reads[1] == ("B", 0)
        assert reads[-2] == ("A", 3)
        assert reads[-1] == ("B", 2)

    def test_slot_names(self):
        assert KERNEL_8X6.slot_names() == [
            "A0", "A1", "A2", "A3", "B0", "B1", "B2",
        ]


class TestOtherKernels:
    def test_8x4(self):
        k = KERNEL_8X4
        assert k.fmla_per_iter == 16
        assert k.ldr_per_iter == 6
        assert k.ldr_fmla_ratio == (3, 8)  # 6:16 reduced
        assert k.arithmetic_fraction == pytest.approx(0.727, abs=1e-3)
        assert k.gamma == pytest.approx(16 / 3)

    def test_4x4(self):
        k = KERNEL_4X4
        assert k.fmla_per_iter == 8
        assert k.ldr_per_iter == 4
        assert k.ldr_fmla_ratio == (1, 2)
        assert k.arithmetic_fraction == pytest.approx(0.667, abs=1e-3)
        assert k.gamma == pytest.approx(4.0)

    def test_5x5_atlas_is_k_vectorized(self):
        """The ATLAS tile is odd: by-element FMLAs would waste lanes, so
        it is modeled as a rank-2 (k-vectorized) kernel — full lanes, but
        25 pinned C registers and no room to preload a whole group."""
        k = KERNEL_5X5_ATLAS
        assert k.k_iters_per_group == 2
        assert k.fmla_per_group == 25
        assert k.ldr_per_group == 10
        assert k.flops_per_group == 100
        assert flops_per_fmla(k) == 4.0
        assert lane_efficiency(k) == 1.0
        assert k.gamma == pytest.approx(5.0)
        assert k.c_regs_for_style == 25
        assert k.preload_window_limited

    def test_5x5_by_element_wastes_lanes(self):
        """A by-element 5x5 (the display twin) pays the lane waste."""
        from repro.kernels import KernelSpec

        k = KernelSpec(5, 5)
        assert k.a_regs_per_copy == 3   # ceil(5/2)
        assert k.c_regs == 15
        assert k.fmla_per_iter == 15
        assert flops_per_fmla(k) == pytest.approx(50 / 15)
        assert lane_efficiency(k) == pytest.approx(5 / 6)

    def test_even_kernels_full_lanes(self):
        for k in (KERNEL_8X6, KERNEL_8X4, KERNEL_4X4):
            assert lane_efficiency(k) == 1.0
            assert k.k_iters_per_group == 1
            assert not k.preload_window_limited
            assert k.fmla_per_group == k.fmla_per_iter

    def test_arithmetic_fraction_ordering(self):
        """Paper Sec. V-A: 66.7% (4x4) < 72.7% (8x4) < 77.4% (8x6)."""
        assert (
            KERNEL_4X4.arithmetic_fraction
            < KERNEL_8X4.arithmetic_fraction
            < KERNEL_8X6.arithmetic_fraction
        )

    def test_gamma_ordering_matches_table_v(self):
        """gamma ordering must predict the Table V efficiency ordering."""
        gammas = {k.name: k.gamma for k in PAPER_KERNELS}
        assert gammas["8x6"] > gammas["8x4"] > gammas["5x5-atlas"] > gammas["4x4"]

    def test_no_rotation_variant(self):
        assert KERNEL_8X6_NO_ROTATION.rotated is False
        assert KERNEL_8X6_NO_ROTATION.fmla_per_iter == 24

    def test_default_name(self):
        assert KernelSpec(8, 6).name == "8x6"

    def test_invalid(self):
        with pytest.raises(BlockingError):
            KernelSpec(0, 4)

    def test_oversized_tile_rejected_by_fit(self):
        assert not KernelSpec(16, 16).fits_register_file(32)
