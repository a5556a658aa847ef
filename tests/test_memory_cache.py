"""Unit tests for the set-associative cache simulator."""

import random

import pytest

from repro.arch import CacheParams, ReplacementPolicy
from repro.errors import SimulationError
from repro.memory import KIND_LOAD, KIND_PREFETCH, KIND_STORE, Cache
from repro.memory.cache import _Draws
from tests.helpers import contains_line


def small_cache(ways=2, sets=4, line=64, policy=ReplacementPolicy.LRU):
    return Cache(CacheParams(
        name="T", size_bytes=ways * sets * line, line_bytes=line, ways=ways,
        latency_cycles=1, replacement=policy,
    ))


class TestBasicBehaviour:
    def test_cold_miss_then_hit(self):
        c = small_cache()
        assert c.access_line(0) is False
        assert c.access_line(0) is True
        assert c.stats.loads == 2
        assert c.stats.load_misses == 1

    def test_distinct_sets_do_not_conflict(self):
        c = small_cache(ways=1, sets=4)
        # Lines 0..3 map to sets 0..3.
        for line in range(4):
            assert c.access_line(line) is False
        for line in range(4):
            assert c.access_line(line) is True

    def test_set_mapping(self):
        c = small_cache(ways=2, sets=4)
        c.access_line(5)  # line 5 of 4 sets maps to set 1
        assert [c.set_contents(s) for s in range(4)] == [[], [5], [], []]
        assert c.line_of(0) == 0
        assert c.line_of(63) == 0
        assert c.line_of(64) == 1

    def test_eviction_on_overflow(self):
        c = small_cache(ways=2, sets=1)
        c.access_line(0)
        c.access_line(1)
        c.access_line(2)  # evicts line 0 (LRU)
        assert c.stats.evictions == 1
        assert c.access_line(0) is False  # it was evicted

    def test_lru_order(self):
        c = small_cache(ways=2, sets=1)
        c.access_line(0)
        c.access_line(1)
        c.access_line(0)  # 1 is now LRU
        c.access_line(2)  # evicts 1
        assert c.access_line(0) is True
        assert c.access_line(1) is False

    def test_store_allocates_and_marks_dirty(self):
        c = small_cache(ways=1, sets=1)
        c.access_line(0, KIND_STORE)
        assert c.stats.stores == 1 and c.stats.store_misses == 1
        c.access_line(1, KIND_LOAD)  # evicts dirty line 0
        assert c.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        c = small_cache(ways=1, sets=1)
        c.access_line(0, KIND_LOAD)
        c.access_line(1, KIND_LOAD)
        assert c.stats.evictions == 1
        assert c.stats.writebacks == 0

    def test_prefetch_counts_separately(self):
        c = small_cache()
        c.access_line(0, KIND_PREFETCH)
        assert c.stats.prefetches == 1
        assert c.stats.loads == 0
        # Later demand load hits.
        assert c.access_line(0, KIND_LOAD) is True

    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            small_cache().access_line(0, "read")

    def test_access_bytes_spanning_lines(self):
        c = small_cache()
        misses = c.access_bytes(32, 64)  # bytes 32..95 span lines 0 and 1
        assert misses == 2
        assert c.stats.loads == 2

    def test_access_bytes_zero(self):
        c = small_cache()
        assert c.access_bytes(0, 0) == 0

    def test_reset_stats(self):
        c = small_cache()
        c.access_line(0)
        c.reset_stats()
        assert c.stats.accesses == 0

    def test_contains_line_is_pure(self):
        c = small_cache()
        c.access_line(7)
        before = c.stats.accesses
        assert contains_line(c, 7)
        assert not contains_line(c, 8)
        assert c.stats.accesses == before


class TestCapacityWorkingSets:
    def test_working_set_within_capacity_all_hits(self):
        c = small_cache(ways=4, sets=8)  # 32 lines capacity
        lines = list(range(32))
        for ln in lines:
            c.access_line(ln)
        for ln in lines:
            assert c.access_line(ln) is True

    def test_working_set_exceeding_capacity_thrashes_lru(self):
        c = small_cache(ways=2, sets=2)  # 4 lines capacity
        lines = list(range(8))  # 2x capacity, cyclic
        for _ in range(3):
            for ln in lines:
                c.access_line(ln)
        # Cyclic access over 2x capacity under LRU: every access misses.
        assert c.stats.hits == 0

    def test_way_conflict(self):
        """More lines in one set than ways conflict even if cache is big."""
        c = small_cache(ways=2, sets=8)
        conflicting = [0, 8, 16]  # all map to set 0
        for _ in range(3):
            for ln in conflicting:
                c.access_line(ln)
        assert c.stats.hits == 0


class TestReplacementPolicies:
    @pytest.mark.parametrize("policy", [ReplacementPolicy.RANDOM,
                                        ReplacementPolicy.PLRU])
    def test_policies_hit_on_repeat(self, policy):
        c = small_cache(policy=policy)
        assert c.access_line(3) is False
        assert c.access_line(3) is True

    @pytest.mark.parametrize("policy", [ReplacementPolicy.RANDOM,
                                        ReplacementPolicy.PLRU])
    def test_policies_evict_on_overflow(self, policy):
        c = small_cache(ways=2, sets=1, policy=policy)
        c.access_line(0)
        c.access_line(1)
        c.access_line(2)
        assert c.stats.evictions == 1
        assert c.resident_lines() == 2

    def test_plru_roughly_preserves_recency(self):
        c = small_cache(ways=4, sets=1, policy=ReplacementPolicy.PLRU)
        for ln in range(4):
            c.access_line(ln)
        c.access_line(3)  # make 3 most recently used
        c.access_line(4)  # evict someone
        assert contains_line(c, 3)  # PLRU never evicts the MRU line

    @pytest.mark.parametrize("ways", [1, 2, 3, 4, 5, 8, 12, 16, 1000])
    def test_bulk_victim_draws_match_randrange(self, ways):
        # The batch draws a seeded RANDOM cache's victims in bulk; values
        # and the generator's state after them match one call per value.
        rng, ref = random.Random(ways), random.Random(ways)
        draws = _Draws(rng, ways)
        taken = [draws.take(n).tolist() for n in (0, 1, 7, 300, 2)]
        draws.close()
        expected = [[ref.randrange(ways) for _ in range(n)]
                    for n in (0, 1, 7, 300, 2)]
        assert taken == expected
        assert rng.getstate() == ref.getstate()

    def test_victim_rng_must_be_a_plain_random(self):
        class Subclass(random.Random):
            pass

        params = small_cache(policy=ReplacementPolicy.RANDOM).params
        with pytest.raises(TypeError):
            Cache(params, rng=Subclass(3))

    def test_stats_merge(self):
        a, b = small_cache(), small_cache()
        a.access_line(0)
        b.access_line(0)
        b.access_line(0)
        merged = a.stats.merged_with(b.stats)
        assert merged.loads == 3
        assert merged.load_misses == 2

    def test_miss_rate_properties(self):
        c = small_cache()
        assert c.stats.miss_rate == 0.0
        c.access_line(0)
        c.access_line(0)
        assert c.stats.load_miss_rate == pytest.approx(0.5)


class TestWritePolicy:
    def test_write_through_never_writes_back(self):
        import dataclasses

        from repro.arch import WritePolicy

        params = dataclasses.replace(
            CacheParams(name="WT", size_bytes=2 * 1 * 64, line_bytes=64,
                        ways=1, latency_cycles=1),
            write_policy=WritePolicy.WRITE_THROUGH,
        )
        c = Cache(params)
        c.access_line(0, KIND_STORE)
        c.access_line(2, KIND_STORE)  # evicts line 0 (set 0, 1 way)
        assert c.stats.evictions == 1
        assert c.stats.writebacks == 0

    def test_write_back_default_writes_back(self):
        c = small_cache(ways=1, sets=1)
        c.access_line(0, KIND_STORE)
        c.access_line(1, KIND_STORE)
        assert c.stats.writebacks == 1

    def test_hierarchy_propagates_write_through_stores(self):
        import dataclasses

        from repro.arch import XGENE, WritePolicy
        from repro.memory import MemoryHierarchy

        l1_wt = dataclasses.replace(
            XGENE.l1d, write_policy=WritePolicy.WRITE_THROUGH
        )
        chip = dataclasses.replace(XGENE, l1d=l1_wt)
        h = MemoryHierarchy(chip)
        h.access_line(0, 100)              # warm all levels
        h.access_line(0, 100, KIND_STORE)  # L1 hit, propagates to L2
        assert h.l2_stats(0).stores == 1

    def test_write_back_does_not_propagate(self):
        from repro.arch import XGENE
        from repro.memory import MemoryHierarchy

        h = MemoryHierarchy(XGENE)
        h.access_line(0, 100)
        h.access_line(0, 100, KIND_STORE)
        assert h.l2_stats(0).stores == 0
