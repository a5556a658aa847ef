"""Property-based tests (hypothesis) for the cache simulator."""

import dataclasses

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.arch import CacheParams, ReplacementPolicy
from repro.arch.presets import MOBILE_SOC, XGENE
from repro.memory import Access, Cache, MemoryHierarchy, run_trace
from tests.helpers import contains_line, trace_of

SMALL_GEOMS = st.sampled_from(
    [
        (2, 2, 64),
        (4, 8, 64),
        (1, 4, 64),
        (8, 2, 32),
        (4, 16, 128),
    ]
)

ACCESSES = st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                    max_size=300)


def make_cache(ways, sets, line, policy=ReplacementPolicy.LRU):
    return Cache(CacheParams(
        name="P", size_bytes=ways * sets * line, line_bytes=line, ways=ways,
        latency_cycles=1, replacement=policy,
    ))


class TestCacheInvariants:
    @given(SMALL_GEOMS, ACCESSES)
    @settings(max_examples=60)
    def test_occupancy_never_exceeds_capacity(self, geom, lines):
        ways, sets, line = geom
        c = make_cache(ways, sets, line)
        for ln in lines:
            c.access_line(ln)
        assert c.resident_lines() <= ways * sets

    @given(SMALL_GEOMS, ACCESSES)
    @settings(max_examples=60)
    def test_hits_plus_misses_equals_accesses(self, geom, lines):
        ways, sets, line = geom
        c = make_cache(ways, sets, line)
        for ln in lines:
            c.access_line(ln)
        assert c.stats.hits + c.stats.misses == c.stats.accesses == len(lines)

    @given(SMALL_GEOMS, ACCESSES)
    @settings(max_examples=60)
    def test_immediate_rereference_always_hits(self, geom, lines):
        ways, sets, line = geom
        c = make_cache(ways, sets, line)
        for ln in lines:
            c.access_line(ln)
            assert c.access_line(ln) is True

    @given(SMALL_GEOMS, ACCESSES)
    @settings(max_examples=60)
    def test_accessed_line_is_resident(self, geom, lines):
        ways, sets, line = geom
        c = make_cache(ways, sets, line)
        for ln in lines:
            c.access_line(ln)
            assert contains_line(c, ln)

    @given(SMALL_GEOMS, ACCESSES)
    @settings(max_examples=60)
    def test_working_set_within_ways_never_misses_twice(self, geom, lines):
        """LRU: if all lines map to distinct slots within capacity per set,
        each line misses at most once (its cold miss)."""
        ways, sets, line = geom
        c = make_cache(ways, sets, line)
        # Restrict to a working set that fits: at most `ways` distinct
        # lines per set.
        per_set = {}
        filtered = []
        for ln in lines:
            s = ln % sets
            bucket = per_set.setdefault(s, set())
            if ln in bucket or len(bucket) < ways:
                bucket.add(ln)
                filtered.append(ln)
        for ln in filtered:
            c.access_line(ln)
        assert c.stats.misses == sum(len(b) for b in per_set.values())

    @given(SMALL_GEOMS, ACCESSES,
           st.sampled_from([ReplacementPolicy.LRU, ReplacementPolicy.PLRU,
                            ReplacementPolicy.RANDOM]))
    @settings(max_examples=60)
    def test_all_policies_respect_capacity(self, geom, lines, policy):
        ways, sets, line = geom
        c = make_cache(ways, sets, line, policy)
        for ln in lines:
            c.access_line(ln)
        assert c.resident_lines() <= ways * sets
        assert c.stats.accesses == len(lines)

    @given(SMALL_GEOMS, st.lists(
        st.tuples(st.integers(0, 127), st.booleans()),
        min_size=1, max_size=200))
    @settings(max_examples=40)
    def test_writeback_only_for_dirty(self, geom, ops):
        """Writebacks never exceed the number of store-touched lines."""
        ways, sets, line = geom
        c = make_cache(ways, sets, line)
        stores = 0
        for ln, is_store in ops:
            c.access_line(ln, "store" if is_store else "load")
            stores += is_store
        assert c.stats.writebacks <= stores


def _shrunk_chip(policy, base=XGENE):
    """A tiny-cache chip so short random traces still cause evictions."""
    repl = {
        "l1d": dataclasses.replace(
            base.l1d, size_bytes=1024, ways=2, replacement=policy
        ),
        "l2": dataclasses.replace(
            base.l2, size_bytes=2048, ways=4, replacement=policy
        ),
    }
    if base.l3:
        repl["l3"] = dataclasses.replace(
            base.l3, size_bytes=4096, ways=4, replacement=policy
        )
    return dataclasses.replace(base, **repl)


POLICIES = st.sampled_from(list(ReplacementPolicy))

RANDOM_ACCESSES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=(1 << 14) - 1),  # address
        st.integers(min_value=0, max_value=150),            # nbytes
        st.sampled_from(["load", "store", "prefetch"]),
        st.integers(min_value=1, max_value=2),              # prefetch level
    ),
    min_size=1,
    max_size=250,
)


class TestBatchedScalarEquivalence:
    """The vectorized engine must be bit-identical to the scalar oracle
    on arbitrary traces — every CacheStats field at every level, the
    DRAM counter, the TLB counters and the returned TraceCost."""

    def _compare(self, chip, rows, core, with_tlb=False, seed=17):
        n_levels = 3 if chip.l3 else 2
        trace = trace_of(
            Access(addr, nb, kind, min(level, n_levels))
            for addr, nb, kind, level in rows
        )
        h_s = MemoryHierarchy(chip, with_tlb=with_tlb, seed=seed)
        h_b = MemoryHierarchy(chip, with_tlb=with_tlb, seed=seed)
        cost_s = run_trace(h_s, core, trace)
        cost_b = h_b.run_batch(core, trace)
        assert cost_s == cost_b
        for c_s, c_b in zip(h_s.l1, h_b.l1):
            assert c_s.stats == c_b.stats
        for c_s, c_b in zip(h_s.l2, h_b.l2):
            assert c_s.stats == c_b.stats
        assert h_s.l3_stats() == h_b.l3_stats()
        assert h_s.dram_accesses == h_b.dram_accesses
        if with_tlb:
            assert h_s.tlbs[core].stats == h_b.tlbs[core].stats

    @given(RANDOM_ACCESSES, POLICIES,
           st.integers(min_value=0, max_value=XGENE.cores - 1))
    @settings(max_examples=40)
    def test_hierarchy_equivalence_all_policies(self, rows, policy, core):
        self._compare(_shrunk_chip(policy), rows, core)

    @given(RANDOM_ACCESSES,
           st.integers(min_value=0, max_value=MOBILE_SOC.cores - 1))
    @settings(max_examples=25)
    def test_hierarchy_equivalence_no_l3_with_tlb(self, rows, core):
        chip = _shrunk_chip(ReplacementPolicy.LRU, base=MOBILE_SOC)
        chip = dataclasses.replace(chip, tlb=XGENE.tlb)
        self._compare(chip, rows, core, with_tlb=True)

    @given(st.lists(
        st.tuples(st.integers(0, 255), st.booleans()),
        min_size=1, max_size=300,
    ))
    @settings(max_examples=40)
    def test_single_cache_batched_matches_scalar(self, ops):
        """The batched LRU agrees with the scalar cache on hit pattern,
        stats and final contents."""
        import numpy as np

        c_s = make_cache(2, 4, 64)
        c_b = make_cache(2, 4, 64)
        scalar_hits = [
            c_s.access_line(ln, "store" if s else "load") for ln, s in ops
        ]
        lines = np.array([ln for ln, _ in ops], dtype=np.int64)
        kinds = np.array([1 if s else 0 for _, s in ops], dtype=np.int8)
        hits = c_b.access_lines_batched(lines, kinds)
        assert list(hits) == scalar_hits
        assert c_s.stats == c_b.stats
        for ln in set(lines.tolist()):
            assert contains_line(c_s, ln) == contains_line(c_b, ln)
