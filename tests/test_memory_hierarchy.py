"""Unit tests for the multi-core memory hierarchy and TLB."""

import pytest

from repro.arch import XGENE, TlbParams
from repro.errors import SimulationError
from repro.memory import KIND_STORE, MemoryHierarchy, Tlb, run_trace_levels
from tests.helpers import contains_line, single_core


class TestTopology:
    def test_counts(self):
        h = MemoryHierarchy(XGENE)
        assert len(h.l1) == 8
        assert len(h.l2) == 4
        assert h.l3 is not None

    def test_module_mapping(self):
        h = MemoryHierarchy(XGENE)
        assert h.module_of(0) == 0
        assert h.module_of(1) == 0
        assert h.module_of(2) == 1
        assert h.module_of(7) == 3

    def test_core_out_of_range(self):
        h = MemoryHierarchy(XGENE)
        with pytest.raises(SimulationError):
            h.access_line(8, 0)

    def test_levels_for_core(self):
        h = MemoryHierarchy(XGENE)
        path = h.levels_for(3)
        assert path[0] is h.l1[3]
        assert path[1] is h.l2[1]
        assert path[2] is h.l3


class TestAccessWalk:
    def test_cold_access_reaches_dram(self):
        h = MemoryHierarchy(XGENE)
        res = h.access_line(0, 100)
        assert res.level_hit == 4  # past L1, L2, L3
        assert res.latency_cycles == XGENE.dram.latency_cycles
        assert h.dram_accesses == 1

    def test_second_access_hits_l1(self):
        h = MemoryHierarchy(XGENE)
        h.access_line(0, 100)
        res = h.access_line(0, 100)
        assert res.level_hit == 1
        assert res.latency_cycles == XGENE.l1d.latency_cycles

    def test_allocation_fills_all_levels(self):
        h = MemoryHierarchy(XGENE)
        h.access_line(0, 100)
        assert contains_line(h.l1[0], 100)
        assert contains_line(h.l2[0], 100)
        assert contains_line(h.l3, 100)

    def test_sharing_within_module(self):
        h = MemoryHierarchy(XGENE)
        h.access_line(0, 100)    # core 0 warms module 0's L2
        res = h.access_line(1, 100)  # core 1 shares that L2
        assert res.level_hit == 2

    def test_sharing_across_modules_via_l3(self):
        h = MemoryHierarchy(XGENE)
        h.access_line(0, 100)
        res = h.access_line(2, 100)  # different module: miss L1+L2, hit L3
        assert res.level_hit == 3

    def test_access_bytes_line_split(self):
        h = MemoryHierarchy(XGENE)
        results = h.access_bytes(0, 60, 8)  # crosses the 64B boundary
        assert len(results) == 2

    def test_access_bytes_empty(self):
        h = MemoryHierarchy(XGENE)
        assert h.access_bytes(0, 0, 0) == []

    def test_store_traffic_counted(self):
        h = MemoryHierarchy(XGENE)
        h.access_line(0, 5, KIND_STORE)
        assert h.l1_stats(0).stores == 1


class TestPrefetch:
    def test_prefetch_l1_makes_demand_hit(self):
        h = MemoryHierarchy(XGENE)
        h.prefetch_line(0, 42, target_level=1)
        res = h.access_line(0, 42)
        assert res.level_hit == 1
        # Prefetch traffic does not count as demand loads.
        assert h.l1_stats(0).loads == 1
        assert h.l1_stats(0).prefetches == 1

    def test_prefetch_l2_skips_l1(self):
        h = MemoryHierarchy(XGENE)
        h.prefetch_line(0, 42, target_level=2)
        assert not contains_line(h.l1[0], 42)
        res = h.access_line(0, 42)
        assert res.level_hit == 2

    def test_prefetch_bad_level(self):
        h = MemoryHierarchy(XGENE)
        with pytest.raises(SimulationError):
            h.prefetch_line(0, 42, target_level=9)

    def test_prefetch_idempotent(self):
        h = MemoryHierarchy(XGENE)
        h.prefetch_line(0, 42, target_level=1)
        h.prefetch_line(0, 42, target_level=1)
        assert h.l1_stats(0).prefetches == 2
        assert h.l1_stats(0).prefetch_misses == 1


class TestStatsAndReset:
    def test_merged_l1_stats(self):
        h = MemoryHierarchy(XGENE)
        h.access_line(0, 1)
        h.access_line(3, 2)
        assert h.l1_stats().loads == 2

    def test_reset_stats(self):
        h = MemoryHierarchy(XGENE)
        h.access_line(0, 1)
        h.reset_stats()
        assert h.l1_stats().accesses == 0
        assert h.dram_accesses == 0

    def test_l2_l3_stats_access(self):
        h = MemoryHierarchy(XGENE)
        h.access_line(0, 1)
        assert h.l2_stats(0).loads == 1
        assert h.l2_stats().loads == 1
        assert h.l3_stats().loads == 1

    def test_no_l3_chip(self):
        chip = single_core(XGENE)
        import dataclasses
        chip2 = dataclasses.replace(chip, l3=None)
        h = MemoryHierarchy(chip2)
        res = h.access_line(0, 0)
        assert res.level_hit == 3  # DRAM directly after L2
        assert h.l3_stats().accesses == 0


class TestTlb:
    def test_tlb_hit_miss(self):
        t = Tlb(TlbParams(entries=2, page_bytes=4096))
        assert t.access_page(0) is False
        assert t.access_page(0) is True
        t.access_page(1)
        t.access_page(2)  # evicts page 0 (LRU, capacity 2)
        assert t.access_page(0) is False
        assert t.stats.accesses == 5

    def test_tlb_line_to_page(self):
        t = Tlb(TlbParams(entries=8, page_bytes=4096))
        t.access_line(0, 64)
        assert t.access_line(63, 64) is True   # same 4K page
        assert t.access_line(64, 64) is False  # next page

    def test_hierarchy_with_tlb(self):
        h = MemoryHierarchy(XGENE, with_tlb=True)
        res1 = h.access_line(0, 0)
        assert res1.tlb_miss is True
        res2 = h.access_line(0, 0)
        assert res2.tlb_miss is False
        # TLB miss penalty charged on top of the level latency.
        assert res1.latency_cycles == (
            XGENE.dram.latency_cycles + XGENE.tlb.miss_penalty_cycles
        )


class TestRunBatchLevels:
    """Per-access level/latency replay vs the scalar engine oracle."""

    def _trace(self, seed=0, n=400):
        import numpy as np

        from repro.memory import BatchTrace
        from repro.memory.cache import CODE_LOAD, CODE_PREFETCH, CODE_STORE

        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(n):
            r = rng.random()
            addr = int(rng.integers(0, 1 << 16))
            if r < 0.15:
                rows.append((addr, 1, CODE_PREFETCH,
                             int(rng.integers(1, 4))))
            elif r < 0.3:
                rows.append((addr, 8, CODE_STORE, 1))
            else:
                # Widths up to 96 bytes cross line boundaries.
                rows.append((addr, int(rng.integers(1, 96)), CODE_LOAD, 1))
        return BatchTrace.from_rows(rows)

    def _compare(self, with_tlb):
        import numpy as np

        trace = self._trace()
        h_fast = MemoryHierarchy(XGENE, with_tlb=with_tlb)
        h_ref = MemoryHierarchy(XGENE, with_tlb=with_tlb)
        lv_fast, lat_fast = h_fast.run_batch_levels(0, trace)
        lv_ref, lat_ref = run_trace_levels(h_ref, 0, trace)
        assert np.array_equal(lv_fast, lv_ref)
        assert np.array_equal(lat_fast, lat_ref)
        assert h_fast.l1_stats(0) == h_ref.l1_stats(0)
        assert h_fast.l2_stats(0) == h_ref.l2_stats(0)
        assert h_fast.l3_stats() == h_ref.l3_stats()
        assert h_fast.dram_accesses == h_ref.dram_accesses

    def test_matches_scalar_engine(self):
        self._compare(with_tlb=False)

    def test_matches_scalar_engine_with_tlb(self):
        self._compare(with_tlb=True)

    def test_prefetch_level_out_of_range(self):
        from repro.memory import BatchTrace
        from repro.memory.cache import CODE_PREFETCH

        h = MemoryHierarchy(XGENE)
        trace = BatchTrace.from_rows([(0, 1, CODE_PREFETCH, 9)])
        with pytest.raises(SimulationError):
            h.run_batch_levels(0, trace)


class TestClusterCaches:
    """Each core's L1D and each module's L2 come from its own cluster."""

    def _chips(self):
        import random

        from repro.arch import PRESETS
        from repro.verify.machines import build_chip, random_asym_machine

        rng = random.Random(4)
        return list(PRESETS.values()) + [
            build_chip(random_asym_machine(rng)) for _ in range(12)
        ]

    def test_every_core_gets_its_clusters_caches(self):
        for chip in self._chips():
            h = MemoryHierarchy(chip)
            clusters = chip.core_clusters
            assert len(h.l2) == chip.modules
            for core, k in enumerate(chip.thread_clusters(chip.cores)):
                assert h.l1[core].params == clusters[k].l1d, (chip, core)
                l2 = h.l2[h.module_of(core)]
                assert l2.params == clusters[k].l2, (chip, core)
            # Modules never straddle clusters or mix cores of two.
            owners = {}
            for core, k in enumerate(chip.thread_clusters(chip.cores)):
                owners.setdefault(h.module_of(core), set()).add(k)
            assert all(len(ks) == 1 for ks in owners.values())

    @pytest.mark.parametrize("core", [0, 2, 5])
    def test_little_core_walk_charges_its_cluster_latency(self, core):
        import numpy as np

        from repro.arch import BIG_LITTLE
        from repro.memory import BatchTrace
        from repro.memory.cache import CODE_LOAD

        cluster = BIG_LITTLE.core_clusters[
            BIG_LITTLE.thread_clusters(BIG_LITTLE.cores)[core]
        ]
        # Touch 64 lines twice: the second pass hits the L1D.
        rows = [(64 * (i % 64), 8, CODE_LOAD, 1) for i in range(128)]
        trace = BatchTrace.from_rows(rows)
        h_fast = MemoryHierarchy(BIG_LITTLE)
        h_ref = MemoryHierarchy(BIG_LITTLE)
        lv_fast, lat_fast = h_fast.run_batch_levels(core, trace)
        lv_ref, lat_ref = run_trace_levels(h_ref, core, trace)
        assert np.array_equal(lv_fast, lv_ref)
        assert np.array_equal(lat_fast, lat_ref)
        assert (lv_fast[64:] == 1).all()
        assert (lat_fast[64:] == cluster.l1d.latency_cycles).all()
        module = h_fast.module_of(core)
        h_fast.access_line(core, 1 << 20)
        other = next(c for c in range(BIG_LITTLE.cores)
                     if h_fast.module_of(c) == module and c != core)
        res = h_fast.access_line(other, 1 << 20)  # the shared L2 serves
        assert res.level_hit == 2
        assert res.latency_cycles == cluster.l2.latency_cycles
