"""Warm-state carry: copies of warmed hierarchies and the incremental sweep.

The warm-state memo's contract is that carrying a warmed hierarchy
across adjacent sweep points is *unobservable* in the results: every
counter must be bit-identical to a cold start on a fresh hierarchy that
re-replays the warm-up stream from scratch. These tests pin that
contract across replacement policies (LRU, RANDOM, PLRU), write-through
machines, both replay engines, and the deep copies it is built on (a
replay on a copy leaves the stored hierarchy untouched) — plus the
compiled-coverage ratchet: every registered kernel variant must stay
compilable.
"""

import copy
import dataclasses
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import XGENE
from repro.arch.params import ReplacementPolicy, WritePolicy
from repro.blocking.cache_blocking import CacheBlocking
from repro.kernels import compilability, get_variant
from repro.kernels.variants import VARIANTS
from repro.memory.batch import BatchTrace
from repro.memory.cache import CODE_LOAD, CODE_PREFETCH, CODE_STORE
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.trace import run_trace
from repro.sim.gebp_cachesim import simulate_gebp_cache
from repro.sim.timed_executor import run_timed_micro_tile
from repro.verify.machines import build_chip, random_machine
from repro.workloads.base import clear_warm_memo


class TestCompiledCoverage:
    def test_every_variant_compiles(self):
        """The ratchet: the fraction of registered variants the compiled
        engine accepts must never regress. It reached 1.0 with the
        odd-tile lane padding and the k-vectorized extension (it was 4/6
        before); any new variant must either compile or raise this
        test's attention explicitly."""
        reasons = {
            name: compilability(get_variant(name)) for name in VARIANTS
        }
        compilable = [n for n, r in reasons.items() if r is None]
        assert len(compilable) / len(reasons) == 1.0, reasons


def _random_trace(rng: random.Random, chip, n_levels: int) -> BatchTrace:
    line = chip.l1d.line_bytes
    rows = []
    for _ in range(rng.randrange(20, 300)):
        kind = rng.choices(
            (CODE_LOAD, CODE_STORE, CODE_PREFETCH), weights=(5, 4, 1)
        )[0]
        addr = rng.randrange(64) * line + rng.randrange(line)
        level = rng.randint(1, n_levels) if kind == CODE_PREFETCH else 0
        rows.append((addr, rng.choice((8, 16, 64)), kind, level))
    return BatchTrace.from_rows(rows)


def _hierarchy_fingerprint(h: MemoryHierarchy):
    return (
        {n: dataclasses.astuple(c.stats) for n, c in h.all_caches().items()},
        h.dram_accesses,
        [None if t is None else dataclasses.astuple(t.stats)
         for t in h.tlbs],
    )


def _replay(h, core, trace, scalar):
    if scalar:
        run_trace(h, core, trace)
    else:
        h.run_batch(core, trace)


class TestSnapshotRestore:
    @settings(max_examples=25)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_restore_then_replay_is_bit_identical(self, seed):
        """Copy, replay, then replay again on the copy: the second replay
        must reproduce the first on every machine the fuzzer can draw —
        all replacement policies, write-through levels, TLBs, both
        engines."""
        rng = random.Random(seed)
        doc = random_machine(rng, budget="smoke")
        for lvl in ("l1", "l2", "l3"):
            if doc.get(lvl) and rng.random() < 0.4:
                doc[lvl] = dict(doc[lvl], write_policy="write-through")
        chip = build_chip(doc)
        h = MemoryHierarchy(
            chip, with_tlb=doc["with_tlb"], seed=rng.randrange(1000)
        )
        core = rng.randrange(chip.cores)
        n_levels = len(h.levels_for(core))
        warm = _random_trace(rng, chip, n_levels)
        main = _random_trace(rng, chip, n_levels)
        scalar = rng.random() < 0.5

        _replay(h, core, warm, scalar)
        saved = copy.deepcopy(h)
        assert _hierarchy_fingerprint(saved) == _hierarchy_fingerprint(h)
        _replay(h, core, main, scalar)
        _replay(saved, core, main, scalar)
        assert _hierarchy_fingerprint(saved) == _hierarchy_fingerprint(h)

    def test_snapshot_survives_representation_migration(self):
        """A copy taken after scalar accesses replays like its original
        after a batched replay has moved the original on."""
        h = MemoryHierarchy(XGENE)
        for line in range(10):
            h.access_line(0, line)  # scalar accesses
        saved = copy.deepcopy(h)
        trace = BatchTrace.from_rows(
            [(i * 64, 8, CODE_LOAD, 0) for i in range(40)]
        )
        h.run_batch(0, trace)  # batched replay on the original
        saved.run_batch(0, trace)
        assert _hierarchy_fingerprint(saved) == _hierarchy_fingerprint(h)


_XGENE_RANDOM = XGENE.with_replacement(ReplacementPolicy.RANDOM)


def _replay_lines(h: MemoryHierarchy, lines):
    """The level serving each access: which lines survived shows which
    victims the RANDOM policy drew."""
    return [h.access_line(0, line).level_hit for line in lines]


class TestRandomSnapshotState:
    """A RANDOM cache's victim state is one RNG plus per-set draw
    counters: seeded caches read that RNG's stream in program order,
    unseeded ones index a shared ``Random(0)`` victim sequence per set.
    A cache holds its RNG state once, never once per set."""

    def test_seeded_snapshot_holds_one_rng_state_per_cache(self):
        h = MemoryHierarchy(_XGENE_RANDOM, seed=3)
        _replay_lines(h, range(0, 4096, 3))
        for name, cache in h.all_caches().items():
            cache_snap = cache.snapshot()
            assert isinstance(cache_snap["rng"], tuple), name
            # Victims come straight from the shared stream: none buffered.
            assert cache_snap["victims"] == [], name
            assert cache_snap["state"].shape == (cache.params.num_sets, 1)

    def test_unseeded_snapshot_keeps_one_state_per_set(self):
        h = MemoryHierarchy(_XGENE_RANDOM)
        _replay_lines(h, range(0, 65_536, 5))
        l1 = h.l1[0].snapshot()
        sets = XGENE.l1d.num_sets
        # One draw counter per set into one buffered victim sequence.
        assert l1["state"].shape == (sets, 1)
        assert l1["state"].max() > 0
        assert len(l1["victims"]) == l1["state"].max()
        assert isinstance(l1["rng"], tuple)

    def test_unseeded_snapshot_is_no_larger_than_lru(self):
        """Regression: per-set ``Random(0)`` generators made the warmed
        hierarchy of serve-cold's RANDOM X-Gene shape ~4x the LRU one
        pickled."""
        random_chip = XGENE.with_replacement(
            ReplacementPolicy.RANDOM, l3=ReplacementPolicy.LRU
        )
        sizes = {}
        for chip in (XGENE, random_chip):
            h = MemoryHierarchy(chip)
            _replay_lines(h, range(0, 65_536, 5))
            sizes[chip.name] = len(pickle.dumps(h))
        assert sizes[random_chip.name] <= 1.5 * sizes[XGENE.name], sizes

    @pytest.mark.parametrize("seed", [None, 5])
    def test_restore_then_replay_matches_fresh(self, seed):
        rng = random.Random(17)
        warm = [rng.randrange(20_000) for _ in range(3000)]
        main = [rng.randrange(20_000) for _ in range(3000)]
        fresh = MemoryHierarchy(_XGENE_RANDOM, seed=seed)
        expected = _replay_lines(fresh, warm + main)

        h = MemoryHierarchy(_XGENE_RANDOM, seed=seed)
        start = copy.deepcopy(h)
        _replay_lines(h, main)  # consume the original's victim RNGs
        h = start
        assert _replay_lines(h, warm) == expected[:len(warm)]
        mid = copy.deepcopy(h)
        first = _replay_lines(h, main)
        assert first == expected[len(warm):]
        for _ in range(2):  # the stored copy stays reusable
            h = copy.deepcopy(mid)
            assert _replay_lines(h, main) == first
        assert _hierarchy_fingerprint(h) == _hierarchy_fingerprint(fresh)


_CHIP_CASES = {
    "lru": XGENE,
    "random": XGENE.with_replacement(ReplacementPolicy.RANDOM),
    "plru": XGENE.with_replacement(ReplacementPolicy.PLRU),
    "write-through-l1": dataclasses.replace(
        XGENE,
        l1d=dataclasses.replace(
            XGENE.l1d, write_policy=WritePolicy.WRITE_THROUGH
        ),
    ),
}


class TestIncrementalSweep:
    @pytest.mark.parametrize("engine", ["batched", "scalar"])
    @pytest.mark.parametrize("chip_name", sorted(_CHIP_CASES))
    def test_matches_cold_start(self, chip_name, engine):
        chip = _CHIP_CASES[chip_name]
        spec = VARIANTS["OpenBLAS-4x4"]

        def sweep(warm_memo):
            clear_warm_memo()
            try:
                out = []
                for mult in (1, 2, 4):
                    nc = spec.nr * mult
                    blk = CacheBlocking(
                        mr=spec.mr, nr=spec.nr, kc=32, mc=16, nc=nc,
                        k1=1, k2=1, k3=1,
                    )
                    cold = None if warm_memo else MemoryHierarchy(chip, seed=5)
                    out.append(dataclasses.astuple(simulate_gebp_cache(
                        spec, blk, chip=chip, hierarchy=cold, nc_slice=nc,
                        engine=engine, seed=5,
                    )))
                return out
            finally:
                clear_warm_memo()

        assert sweep(True) == sweep(False)

    def test_revisiting_a_smaller_point_stays_cold_correct(self):
        """A sweep that shrinks nc (cached warm trace is *longer* than
        needed) must fall back to a cold warm-up, not replay on a copy
        of a superset state."""
        spec = VARIANTS["OpenBLAS-8x6"]

        def point(nc, warm_memo):
            blk = CacheBlocking(
                mr=spec.mr, nr=spec.nr, kc=32, mc=16, nc=nc,
                k1=1, k2=1, k3=1,
            )
            cold = None if warm_memo else MemoryHierarchy(XGENE, seed=9)
            return dataclasses.astuple(simulate_gebp_cache(
                spec, blk, chip=XGENE, hierarchy=cold, nc_slice=nc,
                engine="batched", seed=9,
            ))

        clear_warm_memo()
        try:
            big = point(4 * spec.nr, True)
            small_warmed = point(spec.nr, True)
        finally:
            clear_warm_memo()
        assert point(spec.nr, False) == small_warmed
        assert point(4 * spec.nr, False) == big


class TestWarmMemoEviction:
    def test_hot_entries_survive_a_long_sweep(self):
        """LRU eviction: a >32-shape sweep must evict cold entries one
        at a time, never the recently-touched hot entry (the old
        wholesale clear() dropped every entry at the 33rd shape)."""
        from repro.obs import MetricsRegistry
        from repro.workloads import base

        spec = VARIANTS["OpenBLAS-4x4"]
        blk = CacheBlocking(
            mr=spec.mr, nr=spec.nr, kc=32, mc=16, nc=spec.nr,
            k1=1, k2=1, k3=1,
        )
        # The seed keys the memo only on a chip with a RANDOM level, so
        # each seed here makes a distinct entry.
        chip = XGENE.with_replacement(
            ReplacementPolicy.LRU, l3=ReplacementPolicy.RANDOM
        )

        def point(seed, metrics=None, hierarchy=None):
            return dataclasses.astuple(simulate_gebp_cache(
                spec, blk, chip=chip, hierarchy=hierarchy, nc_slice=spec.nr,
                engine="batched", seed=seed, metrics=metrics,
            ))

        clear_warm_memo()
        try:
            hot = point(0)
            metrics = MetricsRegistry()
            distinct = base._WARM_MEMO.limit + 8
            for seed in range(1, distinct + 1):
                point(seed, metrics=metrics)  # install a cold shape
                point(0, metrics=metrics)     # keep the hot one recent
            counters = metrics.as_dict()["counters"]
            # The hot entry survived every eviction round and was
            # copied (not recomputed) on every touch; the cold shapes
            # were evicted one at a time, oldest first.
            assert counters["cachesim.warm_restores"] == distinct
            assert counters["cachesim.warm_evictions"] == (
                1 + distinct - base._WARM_MEMO.limit
            )
            assert len(base._WARM_MEMO) == base._WARM_MEMO.limit
            # And a replay on a copy of it still reproduces the cold
            # start on a fresh hierarchy.
            assert point(0) == hot
            assert hot == point(0, hierarchy=MemoryHierarchy(chip, seed=0))
        finally:
            clear_warm_memo()


def _cache_states(h: MemoryHierarchy):
    """Every cache's full state (contents, policy state, RNG, counters)
    as comparable bytes."""
    out = {}
    for name, cache in h.all_caches().items():
        snap = cache.snapshot()
        out[name] = tuple(
            v.tobytes() if isinstance(v, np.ndarray) else repr(v)
            for v in snap.values()
        )
    return out, h.dram_accesses


class TestWarmMemoCopies:
    @pytest.mark.parametrize("chip_name", sorted(_CHIP_CASES))
    def test_hits_leave_the_stored_hierarchy_untouched(self, chip_name):
        """A memo hit replays on a copy: two hits in a row and a cold
        start on a fresh hierarchy give equal results, and the stored
        hierarchy's state is the same after the hits as before."""
        from repro.obs import MetricsRegistry
        from repro.workloads import base

        chip = _CHIP_CASES[chip_name]
        spec = VARIANTS["OpenBLAS-4x4"]
        blk = CacheBlocking(
            mr=spec.mr, nr=spec.nr, kc=32, mc=16, nc=2 * spec.nr,
            k1=1, k2=1, k3=1,
        )

        def point(metrics=None, hierarchy=None):
            return simulate_gebp_cache(
                spec, blk, chip=chip, hierarchy=hierarchy,
                nc_slice=2 * spec.nr, engine="batched", seed=5,
                metrics=metrics,
            )

        clear_warm_memo()
        try:
            point()  # the miss stores the warmed hierarchy
            (entry,) = base._WARM_MEMO._entries.values()
            stored = _cache_states(entry[1])
            metrics = MetricsRegistry()
            first, second = point(metrics), point(metrics)
            assert metrics.as_dict()["counters"][
                "cachesim.warm_restores"
            ] == 2
            assert _cache_states(entry[1]) == stored
        finally:
            clear_warm_memo()
        cold = point(hierarchy=MemoryHierarchy(chip, seed=5))
        assert first == second == cold


class TestTimedWarmMemo:
    def test_memo_restored_run_matches_cold(self):
        """The micro-tile L2 warm-up carries no state between calls: a
        second identical call must produce the same cycles, pipeline
        and C bits as the first."""
        kernel = get_variant("OpenBLAS-4x4")
        kc = kernel.plan.unroll * 3
        rng = np.random.default_rng(3)
        a = rng.standard_normal((kc, kernel.spec.mr))
        b = rng.standard_normal((kc, kernel.spec.nr))
        cold = run_timed_micro_tile(kernel, a, b)
        warm = run_timed_micro_tile(kernel, a, b)
        assert warm.cycles == cold.cycles
        assert warm.pipeline == cold.pipeline
        assert warm.load_latencies == cold.load_latencies
        assert np.array_equal(warm.c_tile, cold.c_tile)
