"""Property-based tests: the block-size engine over random architectures.

The central invariant: whatever the cache geometry, the derived blocking
must satisfy the residency design — B sliver L1-resident, A block(s)
L2-resident, B panel L3-resident — as judged by the independent
residency analyzer.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from repro.arch import (
    CacheParams,
    ChipParams,
    CoreParams,
    DramParams,
)
from repro.blocking import solve_cache_blocking
from repro.errors import BlockingError
from repro.model import gebp_ratio, gess_ratio, register_kernel_ratio
from repro.sim import analyze_residency
from tests.helpers import efficiency_from_gamma

KB = 1024


@st.composite
def chips(draw):
    """Random but plausible three-level chips."""
    l1_size = draw(st.sampled_from([16, 32, 64, 128])) * KB
    l1_ways = draw(st.sampled_from([2, 4, 8]))
    l2_size = draw(st.sampled_from([128, 256, 512, 1024])) * KB
    l2_ways = draw(st.sampled_from([8, 16]))
    l3_size = draw(st.sampled_from([2, 4, 8, 16])) * KB * KB
    l3_ways = draw(st.sampled_from([16, 32]))
    cores = draw(st.sampled_from([2, 4, 8, 16]))
    per_module = draw(st.sampled_from([1, 2]))
    assume(cores % per_module == 0)
    return ChipParams(
        name="random",
        cores=cores,
        cores_per_module=per_module,
        core=CoreParams(),
        l1d=CacheParams(name="L1D", size_bytes=l1_size, line_bytes=64,
                        ways=l1_ways, latency_cycles=4),
        l2=CacheParams(name="L2", size_bytes=l2_size, line_bytes=64,
                       ways=l2_ways, latency_cycles=12,
                       shared_by=per_module),
        l3=CacheParams(name="L3", size_bytes=l3_size, line_bytes=64,
                       ways=l3_ways, latency_cycles=40, shared_by=cores),
        dram=DramParams(),
    )


class TestBlockingOverArchitectures:
    @given(chips(), st.sampled_from([(8, 6), (8, 4), (4, 4)]),
           st.integers(1, 16))
    @settings(max_examples=60)
    def test_derived_blocking_is_resident(self, chip, tile, threads):
        assume(threads <= chip.cores)
        mr, nr = tile
        try:
            blk = solve_cache_blocking(chip, mr, nr, threads=threads)
        except BlockingError:
            return  # genuinely infeasible geometry: acceptable outcome
        res = analyze_residency(chip, blk, threads=threads)
        assert res.b_sliver_level == 1
        assert res.a_block_level == 2
        assert res.b_panel_level == 3

    @given(chips(), st.sampled_from([(8, 6), (8, 4), (4, 4)]))
    @settings(max_examples=40)
    def test_block_sizes_are_usable(self, chip, tile):
        mr, nr = tile
        try:
            blk = solve_cache_blocking(chip, mr, nr)
        except BlockingError:
            return
        assert blk.kc >= 1
        assert blk.mc >= mr
        assert blk.nc >= 1
        assert blk.mc % mr == 0 or blk.mc % 8 == 0

    @given(chips())
    @settings(max_examples=40)
    def test_more_threads_never_grow_mc(self, chip):
        """Sharing an L2 can only shrink the per-thread A block; the
        private L1 leaves kc unchanged. (nc may go either way: smaller A
        blocks can leave *more* L3 room for the B panel.)"""
        try:
            serial = solve_cache_blocking(chip, 8, 6, threads=1)
            parallel = solve_cache_blocking(
                chip, 8, 6, threads=chip.cores
            )
        except BlockingError:
            return
        assert parallel.mc <= serial.mc
        assert parallel.kc == serial.kc  # L1 is private: kc unchanged


class TestModelProperties:
    @given(st.integers(1, 64), st.integers(1, 64))
    @settings(max_examples=60)
    def test_register_gamma_bounds(self, mr, nr):
        g = register_kernel_ratio(mr, nr)
        assert 0 < g <= min(mr, nr) * 2
        # Symmetry.
        assert g == pytest.approx(register_kernel_ratio(nr, mr))

    @given(st.integers(1, 32), st.integers(1, 32), st.integers(1, 2048),
           st.integers(1, 512))
    @settings(max_examples=60)
    def test_layer_ratios_monotone_chain(self, mr, nr, kc, mc):
        """Each deeper layer's gamma is bounded by the shallower one."""
        assert (
            gebp_ratio(mr, nr, kc, mc)
            <= gess_ratio(mr, nr, kc)
            <= register_kernel_ratio(mr, nr)
        )

    @given(st.integers(1, 32), st.integers(1, 32), st.integers(1, 2048))
    @settings(max_examples=60)
    def test_gess_monotone_in_kc(self, mr, nr, kc):
        assert gess_ratio(mr, nr, kc + 1) >= gess_ratio(mr, nr, kc)

    @given(st.floats(0.1, 100.0), st.floats(0.1, 100.0))
    @settings(max_examples=60)
    def test_interference_efficiency_monotone_in_gamma(self, g1, g2):
        from repro.pipeline import LoadInterferenceModel

        model = LoadInterferenceModel()
        lo, hi = sorted((g1, g2))
        assert efficiency_from_gamma(model, lo) <= (
            efficiency_from_gamma(model, hi) + 1e-12
        )
