"""Warm-state carry: snapshot/restore and the incremental sweep.

The incremental engine's contract is that carrying a warmed hierarchy
across adjacent sweep points is *unobservable* in the results: every
counter must be bit-identical to a cold start that re-replays the warm-up
stream from scratch. These tests pin that contract across replacement
policies (LRU, RANDOM, PLRU), write-through machines, both replay
engines, and the snapshot/restore primitives it is built on — plus the
compiled-coverage ratchet: every registered kernel variant must stay
compilable.
"""

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


class TestSnapshotRestore:
    @settings(max_examples=25)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_restore_then_replay_is_bit_identical(self, seed):
        """Snapshot, replay, restore, replay again: the second replay
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

        def replay(trace):
            if scalar:
                run_trace(h, core, trace)
            else:
                h.run_batch(core, trace)

        replay(warm)
        snap = h.snapshot()
        replay(main)
        first = _hierarchy_fingerprint(h)
        h.restore(snap)
        assert _hierarchy_fingerprint(h) == _hierarchy_fingerprint(h)
        replay(main)
        assert _hierarchy_fingerprint(h) == first

    def test_snapshot_survives_representation_migration(self):
        """A snapshot taken after scalar accesses restores correctly
        after a batched replay has moved the live state on."""
        h = MemoryHierarchy(XGENE)
        for line in range(10):
            h.access_line(0, line)  # scalar accesses
        snap = h.snapshot()
        trace = BatchTrace.from_rows(
            [(i * 64, 8, CODE_LOAD, 0) for i in range(40)]
        )
        h.run_batch(0, trace)  # batched replay on the same state
        first = _hierarchy_fingerprint(h)
        h.restore(snap)
        h.run_batch(0, trace)
        assert _hierarchy_fingerprint(h) == first


_XGENE_RANDOM = XGENE.with_replacement(ReplacementPolicy.RANDOM)


def _replay_lines(h: MemoryHierarchy, lines):
    """The level serving each access: which lines survived shows which
    victims the RANDOM policy drew."""
    return [h.access_line(0, line).level_hit for line in lines]


class TestRandomSnapshotState:
    """A RANDOM cache's victim state is one RNG plus per-set draw
    counters: seeded caches read that RNG's stream in program order,
    unseeded ones index a shared ``Random(0)`` victim sequence per set.
    A snapshot stores the RNG state once per cache, never once per set."""

    def test_seeded_snapshot_holds_one_rng_state_per_cache(self):
        h = MemoryHierarchy(_XGENE_RANDOM, seed=3)
        _replay_lines(h, range(0, 4096, 3))
        snap = h.snapshot()
        for name, cache in h.all_caches().items():
            cache_snap = snap["caches"][name]
            assert isinstance(cache_snap["rng"], tuple), name
            # Victims come straight from the shared stream: none buffered.
            assert cache_snap["victims"] == [], name
            assert cache_snap["state"].shape == (cache.params.num_sets, 1)

    def test_unseeded_snapshot_keeps_one_state_per_set(self):
        h = MemoryHierarchy(_XGENE_RANDOM)
        _replay_lines(h, range(0, 65_536, 5))
        snap = h.snapshot()
        l1 = snap["caches"][next(iter(h.all_caches()))]
        sets = XGENE.l1d.num_sets
        # One draw counter per set into one buffered victim sequence.
        assert l1["state"].shape == (sets, 1)
        assert l1["state"].max() > 0
        assert len(l1["victims"]) == l1["state"].max()
        assert isinstance(l1["rng"], tuple)

    def test_unseeded_snapshot_is_no_larger_than_lru(self):
        """Regression: per-set ``Random(0)`` generators made the snapshot
        of serve-cold's RANDOM X-Gene shape ~4x the LRU one pickled."""
        random_chip = XGENE.with_replacement(
            ReplacementPolicy.RANDOM, l3=ReplacementPolicy.LRU
        )
        sizes = {}
        for chip in (XGENE, random_chip):
            h = MemoryHierarchy(chip)
            _replay_lines(h, range(0, 65_536, 5))
            sizes[chip.name] = len(pickle.dumps(h.snapshot()))
        assert sizes[random_chip.name] <= 1.5 * sizes[XGENE.name], sizes

    @pytest.mark.parametrize("seed", [None, 5])
    def test_restore_then_replay_matches_fresh(self, seed):
        rng = random.Random(17)
        warm = [rng.randrange(20_000) for _ in range(3000)]
        main = [rng.randrange(20_000) for _ in range(3000)]
        fresh = MemoryHierarchy(_XGENE_RANDOM, seed=seed)
        expected = _replay_lines(fresh, warm + main)

        h = MemoryHierarchy(_XGENE_RANDOM, seed=seed)
        start = h.snapshot()
        _replay_lines(h, main)  # consume the victim RNGs
        h.restore(start)
        assert _replay_lines(h, warm) == expected[:len(warm)]
        mid = h.snapshot()
        first = _replay_lines(h, main)
        assert first == expected[len(warm):]
        for _ in range(2):  # the snapshot stays reusable
            h.restore(mid)
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

        def sweep(incremental):
            clear_warm_memo()
            try:
                out = []
                for mult in (1, 2, 4):
                    nc = spec.nr * mult
                    blk = CacheBlocking(
                        mr=spec.mr, nr=spec.nr, kc=32, mc=16, nc=nc,
                        k1=1, k2=1, k3=1,
                    )
                    out.append(dataclasses.astuple(simulate_gebp_cache(
                        spec, blk, chip=chip, nc_slice=nc, engine=engine,
                        seed=5, incremental=incremental,
                    )))
                return out
            finally:
                clear_warm_memo()

        assert sweep(True) == sweep(False)

    def test_revisiting_a_smaller_point_stays_cold_correct(self):
        """A sweep that shrinks nc (cached warm trace is *longer* than
        needed) must fall back to a cold warm-up, not restore a
        superset state."""
        spec = VARIANTS["OpenBLAS-8x6"]

        def point(nc, incremental):
            blk = CacheBlocking(
                mr=spec.mr, nr=spec.nr, kc=32, mc=16, nc=nc,
                k1=1, k2=1, k3=1,
            )
            return dataclasses.astuple(simulate_gebp_cache(
                spec, blk, chip=XGENE, nc_slice=nc, engine="batched",
                seed=9, incremental=incremental,
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
        wholesale clear() nuked every snapshot at the 33rd shape)."""
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

        def point(seed, metrics=None):
            return dataclasses.astuple(simulate_gebp_cache(
                spec, blk, chip=chip, nc_slice=spec.nr,
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
            # restored (not recomputed) on every touch; the cold shapes
            # were evicted one at a time, oldest first.
            assert counters["cachesim.warm_restores"] == distinct
            assert counters["cachesim.warm_evictions"] == (
                1 + distinct - base._WARM_MEMO.limit
            )
            assert len(base._WARM_MEMO) == base._WARM_MEMO.limit
            # And restoring it still reproduces the cold-start result.
            assert point(0) == hot
        finally:
            clear_warm_memo()


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
