"""Unit tests for architecture parameter dataclasses and the X-Gene preset."""

import dataclasses

import pytest

from repro.arch import (
    BIG_LITTLE,
    KB,
    MB,
    XGENE,
    CacheParams,
    ChipParams,
    CoreParams,
    DramParams,
    ReplacementPolicy,
)
from repro.errors import ArchitectureError
from tests.helpers import lines_for, num_lines, single_core


class TestCacheParams:
    def test_xgene_l1_geometry(self):
        l1 = XGENE.l1d
        assert l1.size_bytes == 32 * KB
        assert l1.ways == 4
        assert l1.line_bytes == 64
        assert l1.num_sets == 128
        assert num_lines(l1) == 512
        assert l1.way_bytes == 8 * KB

    def test_xgene_l2_geometry(self):
        l2 = XGENE.l2
        assert l2.size_bytes == 256 * KB
        assert l2.ways == 16
        assert l2.num_sets == 256
        assert l2.shared_by == 2

    def test_xgene_l3_geometry(self):
        l3 = XGENE.l3
        assert l3.size_bytes == 8 * MB
        assert l3.ways == 16
        assert l3.shared_by == 8

    def test_lines_for_rounds_up(self):
        l1 = XGENE.l1d
        assert lines_for(l1, 0) == 0
        assert lines_for(l1, 1) == 1
        assert lines_for(l1, 64) == 1
        assert lines_for(l1, 65) == 2

    def test_lines_for_rejects_negative(self):
        with pytest.raises(ArchitectureError):
            lines_for(XGENE.l1d, -1)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ArchitectureError):
            CacheParams(name="bad", size_bytes=1000, line_bytes=64, ways=4,
                        latency_cycles=1)

    def test_negative_latency_rejected(self):
        with pytest.raises(ArchitectureError):
            CacheParams(name="bad", size_bytes=32 * KB, line_bytes=64, ways=4,
                        latency_cycles=-1)


class TestCoreParams:
    def test_xgene_peak_flops_per_core(self):
        # 2.4 GHz x 1 FMA pipe x 2 lanes x 2 flops = 4.8 Gflops (paper Sec II-A)
        assert XGENE.core.peak_flops == pytest.approx(4.8e9)

    def test_doubles_per_register(self):
        assert XGENE.core.doubles_per_register == 2

    def test_invalid_issue_width(self):
        with pytest.raises(ArchitectureError):
            CoreParams(issue_width=0)

    def test_invalid_register_width(self):
        with pytest.raises(ArchitectureError):
            CoreParams(fp_register_bytes=10)


class TestChipParams:
    def test_xgene_chip_peak(self):
        # 8 cores x 4.8 = 38.4 Gflops (the denominator of all efficiencies)
        assert XGENE.peak_flops == pytest.approx(38.4e9)

    def test_peak_flops_for_threads(self):
        assert XGENE.peak_flops_for(1) == pytest.approx(4.8e9)
        assert XGENE.peak_flops_for(8) == pytest.approx(38.4e9)

    def test_peak_flops_for_bad_thread_count(self):
        with pytest.raises(ArchitectureError):
            XGENE.peak_flops_for(0)
        with pytest.raises(ArchitectureError):
            XGENE.peak_flops_for(9)

    def test_modules(self):
        assert XGENE.modules == 4

    def test_cache_levels_order(self):
        names = [c.name for c in XGENE.cache_levels]
        assert names == ["L1D", "L2", "L3"]

    def test_sharing_validation(self):
        with pytest.raises(ArchitectureError):
            ChipParams(
                name="bad",
                cores=8,
                cores_per_module=2,
                core=XGENE.core,
                l1d=XGENE.l1d,
                l2=CacheParams(name="L2", size_bytes=256 * KB, line_bytes=64,
                               ways=16, latency_cycles=12, shared_by=4),
                l3=XGENE.l3,
            )

    def test_cores_must_divide_into_modules(self):
        with pytest.raises(ArchitectureError):
            ChipParams(
                name="bad", cores=7, cores_per_module=2, core=XGENE.core,
                l1d=XGENE.l1d, l2=XGENE.l2, l3=XGENE.l3,
            )


class TestSingleCore:
    def test_single_core_view(self):
        chip = single_core(XGENE)
        assert chip.cores == 1
        assert chip.modules == 1
        assert chip.l2.shared_by == 1
        assert chip.l3.shared_by == 1
        # Cache sizes are preserved: the lone thread owns the full hierarchy.
        assert chip.l2.size_bytes == XGENE.l2.size_bytes
        assert chip.l3.size_bytes == XGENE.l3.size_bytes

    def test_single_core_without_l3(self):
        base = single_core(XGENE)
        no_l3 = ChipParams(
            name="two-level", cores=1, cores_per_module=1, core=base.core,
            l1d=base.l1d, l2=base.l2, l3=None,
        )
        assert single_core(no_l3).l3 is None
        assert len(no_l3.cache_levels) == 2


class TestWithReplacement:
    def test_every_level_and_cluster_takes_the_policy(self):
        plru = ReplacementPolicy.PLRU
        chip = BIG_LITTLE.with_replacement(plru)
        assert chip.name == f"{BIG_LITTLE.name}-plru"
        assert {c.replacement for c in chip.cache_levels} == {plru}
        assert {c.l1d.replacement for c in chip.clusters} == {plru}
        assert {c.l2.replacement for c in chip.clusters} == {plru}
        assert dataclasses.replace(
            chip.l2, replacement=BIG_LITTLE.l2.replacement
        ) == BIG_LITTLE.l2

    def test_l3_override(self):
        chip = XGENE.with_replacement(
            ReplacementPolicy.RANDOM, l3=ReplacementPolicy.LRU
        )
        assert chip.l1d.replacement is ReplacementPolicy.RANDOM
        assert chip.l2.replacement is ReplacementPolicy.RANDOM
        assert chip.l3.replacement is ReplacementPolicy.LRU


class TestDramParams:
    def test_defaults(self):
        d = DramParams()
        assert d.bridges == 2

    def test_invalid(self):
        with pytest.raises(ArchitectureError):
            DramParams(latency_cycles=0)
        with pytest.raises(ArchitectureError):
            DramParams(bridges=0)
