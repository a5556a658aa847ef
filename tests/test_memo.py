"""The bounded memo: one LRU policy behind every process-global memo.

The module memos (generated and compiled kernels, the tuner's rotation
plans and kernels, compiled GEBP traces, the cache-replay warm-state
hierarchies, the prefetcher's drop masks) share
:class:`~repro.memo.BoundedMemo`. These tests pin the policy on each
module's own instance at its own bound, and hammer it from threads the
way serve's ``WorkerPool`` does.
"""

import dataclasses
import random
import sys
import threading

import pytest

from repro.arch import XGENE
from repro.blocking.cache_blocking import CacheBlocking
from repro.arch.params import ReplacementPolicy
from repro.kernels import compiled, variants
from repro.kernels.compiled import compile_kernel
from repro.kernels.variants import VARIANTS, get_variant
from repro.memo import BoundedMemo
from repro.memory import MemoryHierarchy, prefetcher
from repro.memory.prefetcher import DropPattern, drop_mask
from repro.sim import gebp_cachesim
from repro.sim.gebp_cachesim import gebp_traces, simulate_gebp_cache
from repro.tune import evaluate
from repro.tune.evaluate import build_kernel
from repro.workloads import base as workloads_base

#: Each module memo with the bound it must keep.
MODULE_MEMOS = {
    "kernels.compiled": (compiled._CACHE, 64),
    "kernels.variants": (variants._cache, 64),
    "workloads.base": (workloads_base._WARM_MEMO, 32),
    "tune.evaluate.plans": (evaluate._PLANS, 64),
    "tune.evaluate.kernels": (evaluate._KERNELS, 64),
    "sim.gebp_cachesim": (gebp_cachesim._TRACES, 64),
    "memory.prefetcher": (prefetcher._MASKS, 16),
}

_RACE_BLOCKING = CacheBlocking(mr=8, nr=6, kc=48, mc=24, nc=36,
                               k1=1, k2=1, k3=1)

#: Memoized makers whose misses threads race on: (memo, call).
RACES = {
    "tune.evaluate._plan": (
        evaluate._PLANS, lambda: evaluate._plan(8, 6, "solved")),
    "tune.evaluate.build_kernel": (
        evaluate._KERNELS,
        lambda: build_kernel(4, 4, "static", "earliest", 64)),
    "sim.gebp_cachesim._gebp_trace": (
        gebp_cachesim._TRACES,
        lambda: gebp_traces(VARIANTS["OpenBLAS-8x6"], _RACE_BLOCKING)[:2]),
    "kernels.compiled.compile_kernel": (
        compiled._CACHE,
        lambda: compile_kernel(get_variant("OpenBLAS-8x6"))),
}


@pytest.fixture(params=sorted(MODULE_MEMOS))
def module_memo(request):
    memo, limit = MODULE_MEMOS[request.param]
    assert isinstance(memo, BoundedMemo)
    assert memo.limit == limit
    memo.clear()
    yield memo
    memo.clear()


def _run_threads(target, n):
    """Run ``target(i)`` on ``n`` threads under a tiny switch interval."""
    errors = []

    def guarded(i):
        try:
            target(i)
        except Exception as exc:  # surfaced by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(i,)) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


class TestBoundedMemo:
    def test_eviction_keeps_most_recent_entries(self, module_memo):
        """After ``limit + 1`` distinct keys the ``limit`` most recent
        survive: eviction is least-recently-used, never wholesale."""
        limit = module_memo.limit
        evicted = [module_memo.put(i, f"v{i}") for i in range(limit + 1)]
        assert evicted == [0] * limit + [1]
        assert 0 not in module_memo
        assert all(i in module_memo for i in range(1, limit + 1))
        assert len(module_memo) == limit

    def test_hit_refreshes_recency(self, module_memo):
        limit = module_memo.limit
        for i in range(limit):
            module_memo.put(i, f"v{i}")
        assert module_memo.get(0) == "v0"  # oldest, touched before insert
        assert module_memo.put(limit, "new") == 1
        assert 0 in module_memo
        assert 1 not in module_memo
        assert module_memo.get(1) is None
        # Re-putting a present key replaces it without evicting.
        assert module_memo.put(0, "v0'") == 0
        assert module_memo.get(0) == "v0'"
        assert len(module_memo) == limit

    def test_build_kernel_cache_is_bounded(self):
        evaluate._KERNELS.clear()
        try:
            for kc in range(1, 66):
                build_kernel(4, 4, "static", "earliest", kc)
            assert len(evaluate._KERNELS) == 64
        finally:
            evaluate._KERNELS.clear()


class TestConcurrency:
    def test_hammered_memo_stays_consistent(self):
        memo = BoundedMemo(limit=2)
        sizes = []

        def worker(i):
            rng = random.Random(i)
            for _ in range(2000):
                key = rng.randrange(6)
                if rng.random() < 0.5:
                    assert memo.get(key) in (None, key)
                else:
                    memo.put(key, key)
                sizes.append(len(memo))

        _run_threads(worker, 8)
        assert max(sizes) <= memo.limit

    def test_racing_first_get_variant_calls_share_one_kernel(self):
        """``compile_kernel`` memoizes by kernel identity, so threads
        racing on the first ``get_variant`` call for one key must all get
        the same object (else each copy is compiled separately)."""
        for trial in range(3):
            variants._cache.clear()
            got = [None] * 8

            def worker(i):
                got[i] = variants.get_variant("OpenBLAS-4x4", kc=64)

            _run_threads(worker, 8)
            assert len({id(kernel) for kernel in got}) == 1, trial
        variants._cache.clear()

    @pytest.mark.parametrize("name", sorted(RACES))
    def test_racing_first_calls_make_once(self, name):
        """Threads racing on a memo's first call for one key must all get
        the one value the first of them made: a rotation solve costs
        ~0.4 s, and ``compile_kernel`` compiles each kernel object it is
        given separately."""
        memo, call = RACES[name]
        memo.clear()
        got = [None] * 4

        def worker(i):
            got[i] = call()

        try:
            _run_threads(worker, 4)
        finally:
            memo.clear()
        ids = {tuple(map(id, v)) if isinstance(v, tuple) else id(v)
               for v in got}
        assert len(ids) == 1

    def test_racing_drop_masks_keep_the_longest(self):
        """Threads asking for prefixes of one rate's drop mask each get
        the pattern's outcomes, and the memo ends up holding the longest
        prefix asked for, not whichever thread stored last."""
        counts = [2000 * (7 - i % 7) for i in range(16)]
        got = [None] * len(counts)
        start = threading.Barrier(len(counts))

        def worker(i):
            start.wait()
            got[i] = drop_mask(0.3, counts[i])

        prefetcher._MASKS.clear()
        try:
            _run_threads(worker, len(counts))
            assert prefetcher._MASKS.get(0.3)[0].size == max(counts)
        finally:
            prefetcher._MASKS.clear()
        ref = DropPattern(0.3).outcomes(max(counts))
        assert [g.tolist() for g in got] == [ref[:n] for n in counts]

    def test_threaded_gebp_sweep_matches_cold_start(self, monkeypatch):
        """Serve's pool threads share the GEBP warm memo. Under eviction
        pressure (more distinct warm keys than the bound, and prefix
        extensions of each) every threaded result must equal its
        single-threaded cold start."""
        monkeypatch.setattr(workloads_base, "_WARM_MEMO", BoundedMemo(2))
        spec = VARIANTS["OpenBLAS-4x4"]
        points = [(mc, m) for mc in (8, 16, 24, 32) for m in (1, 2, 3)]

        def point(mc, m, hierarchy=None):
            nc = spec.nr * m
            blk = CacheBlocking(
                mr=spec.mr, nr=spec.nr, kc=32, mc=mc, nc=nc,
                k1=1, k2=1, k3=1,
            )
            return dataclasses.astuple(simulate_gebp_cache(
                spec, blk, chip=XGENE, hierarchy=hierarchy, nc_slice=nc,
                engine="batched", seed=0,
            ))

        cold = {p: point(*p, MemoryHierarchy(XGENE, seed=0)) for p in points}
        mismatches = []

        def worker(i):
            order = points * 2
            random.Random(i).shuffle(order)
            for p in order:
                if point(*p) != cold[p]:
                    mismatches.append(p)

        _run_threads(worker, 8)
        assert mismatches == []

    def test_threads_hitting_one_warm_entry_get_the_cold_result(self):
        """Eight threads hitting one warm-memo entry at once each replay
        on their own copy: every result equals the cold start on a fresh
        hierarchy (seeded RANDOM levels, so a shared victim RNG would
        show)."""
        chip = XGENE.with_replacement(ReplacementPolicy.RANDOM)
        spec = VARIANTS["OpenBLAS-4x4"]
        blk = CacheBlocking(mr=spec.mr, nr=spec.nr, kc=32, mc=16,
                            nc=2 * spec.nr, k1=1, k2=1, k3=1)

        def point(hierarchy=None):
            return dataclasses.astuple(simulate_gebp_cache(
                spec, blk, chip=chip, hierarchy=hierarchy,
                nc_slice=2 * spec.nr, engine="batched", seed=3,
            ))

        cold = point(MemoryHierarchy(chip, seed=3))
        got = [None] * 8
        start = threading.Barrier(len(got))

        def worker(i):
            start.wait()
            got[i] = point()

        workloads_base.clear_warm_memo()
        try:
            point()  # store the entry the threads hit
            _run_threads(worker, len(got))
        finally:
            workloads_base.clear_warm_memo()
        assert got == [cold] * len(got)
