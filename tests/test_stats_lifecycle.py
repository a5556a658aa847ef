"""Stats-lifecycle property tests.

The observability layer snapshots engine stat objects, which only works
if those objects have a trustworthy lifecycle: ``reset_stats`` must zero
*every* counter, a deep copy must be independent of its original (the
warm-state memo replays on copies of the hierarchies it stores), and the
engine a timed run reports (``engine``) must be the one that ran. The
hardware prefetcher has no lifecycle of its own here: it is a stream
transform that lives for one run and holds no counters, so what it
installs is counted and copied with the caches.

The core property, checked per policy and per engine:

    saved = deepcopy(obj); run(work) on obj; run(work) on saved
        ==  run(work) on a fresh object
"""

import copy
import dataclasses
import random

import pytest

from repro.arch import XGENE, ReplacementPolicy
from repro.blocking import solve_cache_blocking
from repro.errors import SimulationError
from repro.kernels import get_variant
from repro.kernels.kernel_spec import PAPER_KERNELS
from repro.memory import MemoryHierarchy
from repro.memory.cache import Cache
from repro.sim import simulate_gebp_cache
from repro.sim.timed_executor import run_timed_micro_tile
from tests.helpers import num_lines

SPEC_8X6 = next(s for s in PAPER_KERNELS if s.name == "8x6")


def _small_cache(policy, seed=7):
    params = dataclasses.replace(
        XGENE.l1d, name=f"tiny-{policy.value}", size_bytes=4096,
        line_bytes=64, ways=4, replacement=policy,
    )
    return Cache(params, rng=random.Random(seed)), params


def _mixed_workload(cache, params):
    """A deterministic load/store stream with reuse, conflict misses and
    evictions; returns the hit pattern so state (not just counters) is
    compared."""
    rng = random.Random(123)
    lines = [rng.randrange(0, 4 * num_lines(params)) for _ in range(400)]
    hits = []
    for i, line in enumerate(lines):
        kind = "store" if i % 7 == 3 else "load"
        hits.append(cache.access_line(line, kind))
    return hits


class TestCacheLifecycle:
    @pytest.mark.parametrize("policy", list(ReplacementPolicy))
    def test_reset_equals_fresh(self, policy):
        """A copy taken before a run is untouched by it: it replays like
        a freshly constructed cache."""
        cache, params = _small_cache(policy)
        saved = copy.deepcopy(cache)
        _mixed_workload(cache, params)

        fresh, _ = _small_cache(policy)
        assert _mixed_workload(saved, params) == _mixed_workload(
            fresh, params
        )
        assert saved.stats == fresh.stats
        assert saved.resident_lines() == fresh.resident_lines()

    def test_seeded_random_reset_keeps_its_stream(self):
        """A copy of a seeded RANDOM cache draws its own victim stream,
        not the original's continuation nor the unseeded one."""
        cache, params = _small_cache(ReplacementPolicy.RANDOM, seed=11)
        saved = copy.deepcopy(cache)
        first = _mixed_workload(cache, params)
        assert _mixed_workload(saved, params) == first

        fresh, _ = _small_cache(ReplacementPolicy.RANDOM, seed=11)
        _mixed_workload(fresh, params)
        assert saved.stats == fresh.stats
        assert [saved.set_contents(s) for s in range(params.num_sets)] == [
            fresh.set_contents(s) for s in range(params.num_sets)
        ]

    def test_reset_stats_zeroes_batched_coverage_counters(self):
        cache, params = _small_cache(ReplacementPolicy.LRU)
        _mixed_workload(cache, params)
        cache.reset_stats()
        assert cache.stats.accesses == 0
        assert cache.batched_accesses == 0
        assert cache.batched_fallback_accesses == 0


def _hierarchy_counters(h):
    from repro.obs import snapshot_hierarchy

    return snapshot_hierarchy(h)


def _run_gebp(h, engine):
    blk = solve_cache_blocking(XGENE, SPEC_8X6.mr, SPEC_8X6.nr, threads=1)
    return simulate_gebp_cache(
        SPEC_8X6, blk, chip=XGENE, hierarchy=h, nc_slice=6, engine=engine,
    )


class TestHierarchyLifecycle:
    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_reset_equals_fresh(self, engine):
        """A hierarchy copied before a run replays like a fresh one."""
        h = MemoryHierarchy(XGENE, seed=0)
        saved = copy.deepcopy(h)
        _run_gebp(h, engine)
        again = _run_gebp(saved, engine)

        fresh = MemoryHierarchy(XGENE, seed=0)
        first = _run_gebp(fresh, engine)
        assert dataclasses.astuple(again) == dataclasses.astuple(first)
        assert _hierarchy_counters(saved) == _hierarchy_counters(fresh)

    def test_reset_covers_random_policy_rng(self):
        """Copying a hierarchy copies its per-cache victim RNGs, so a
        RANDOM-replacement copy replays the original's run."""
        chip = dataclasses.replace(
            XGENE,
            l1d=dataclasses.replace(
                XGENE.l1d, replacement=ReplacementPolicy.RANDOM
            ),
        )
        h = MemoryHierarchy(chip, seed=11)
        saved = copy.deepcopy(h)
        first = _run_gebp(h, "scalar")
        again = _run_gebp(saved, "scalar")
        assert dataclasses.astuple(again) == dataclasses.astuple(first)

    def test_all_caches_enumerates_every_level(self):
        h = MemoryHierarchy(XGENE, seed=0)
        keys = list(h.all_caches())
        assert keys == (
            [f"l1[{i}]" for i in range(XGENE.cores)]
            + [f"l2[{j}]" for j in range(XGENE.modules)]
            + ["l3"]
        )


def _micro_operands(kernel):
    import numpy as np

    rng = np.random.default_rng(0)
    kc = kernel.plan.unroll
    return (rng.standard_normal((kc, kernel.spec.mr)),
            rng.standard_normal((kc, kernel.spec.nr)))


class TestEngineSelection:
    """The engine a timed run reports is the one that ran: ``auto`` and
    ``compiled`` name the compiled engine, ``interpreted`` the oracle."""

    def test_auto_compiles_odd_tiles(self):
        """The odd-tile ATLAS kernel compiles in the lane-padded layout
        (it used to fall back with an "odd tile" reason)."""
        kernel = get_variant("ATLAS-5x5")
        run = run_timed_micro_tile(kernel, *_micro_operands(kernel))
        assert run.engine == "compiled"

    def test_auto_raises_compilability_reason(self):
        from tests.test_compiled_engine import _noncompilable_kernel

        kernel = _noncompilable_kernel()
        with pytest.raises(SimulationError, match="full-vector"):
            run_timed_micro_tile(
                kernel, *_micro_operands(kernel), engine="auto"
            )

    def test_auto_prefers_compiled(self):
        kernel = get_variant("OpenBLAS-8x6")
        run = run_timed_micro_tile(
            kernel, *_micro_operands(kernel), engine="auto"
        )
        assert run.engine == "compiled"

    def test_explicit_engines(self):
        kernel = get_variant("OpenBLAS-8x6")
        for engine in ("interpreted", "compiled"):
            run = run_timed_micro_tile(
                kernel, *_micro_operands(kernel), engine=engine
            )
            assert run.engine == engine

    def test_compiled_on_noncompilable_raises(self):
        from tests.test_compiled_engine import _noncompilable_kernel

        kernel = _noncompilable_kernel()
        with pytest.raises(SimulationError, match="full-vector"):
            run_timed_micro_tile(
                kernel, *_micro_operands(kernel), engine="compiled"
            )

    def test_unknown_engine_rejected(self):
        kernel = get_variant("OpenBLAS-8x6")
        with pytest.raises(SimulationError, match="engine"):
            run_timed_micro_tile(
                kernel, *_micro_operands(kernel), engine="turbo"
            )

    def test_timed_run_records_engine(self):
        import numpy as np

        kernel = get_variant("OpenBLAS-8x6")
        spec = kernel.spec
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, spec.mr))
        b = rng.standard_normal((8, spec.nr))
        auto = run_timed_micro_tile(kernel, a, b, engine="auto")
        assert auto.engine == "compiled"
        interp = run_timed_micro_tile(kernel, a, b, engine="interpreted")
        assert interp.engine == "interpreted"
        assert interp.cycles == auto.cycles
