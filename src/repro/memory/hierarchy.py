"""Multi-level, multi-core memory hierarchy.

Builds the Fig. 1 topology from a :class:`~repro.arch.params.ChipParams`:
a private L1D per core, an L2 shared by each dual-core module, an L3 shared
by the whole chip, and DRAM behind two memory bridges. On an asymmetric
chip each core's L1D and each module's L2 take their cluster's geometry,
latency and write policy. Accesses walk down the levels on miss and
allocate on the way back up (non-inclusive, allocate-on-fill), charging
the latency of the deepest level reached.

Software prefetches (``PLDL1KEEP`` / ``PLDL2KEEP``) install a line into the
target level and every level below it, without charging demand latency —
the timing benefit of prefetching is that later demand accesses hit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.arch.params import ChipParams, WritePolicy
from repro.errors import SimulationError
from repro.memory.cache import (
    CODE_PREFETCH,
    CODE_STORE,
    KIND_LOAD,
    KIND_PREFETCH,
    KIND_STORE,
    Cache,
    CacheStats,
)
from repro.memory.tlb import Tlb

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.memory.batch import BatchTrace
    from repro.memory.trace import TraceCost


@dataclass
class AccessResult:
    """Outcome of one demand access.

    Attributes:
        level_hit: 1-based cache level that served the access;
            ``len(levels)+1`` means DRAM.
        latency_cycles: Load-to-use latency charged for this access.
        tlb_miss: Whether the access missed in the TLB (if modeled).
    """

    level_hit: int
    latency_cycles: int
    tlb_miss: bool = False


class MemoryHierarchy:
    """The chip's cache/DRAM system, shared-level aware.

    Args:
        chip: Architecture description.
        with_tlb: Model per-core TLBs if the chip defines TLB parameters.
        seed: Seed for the RANDOM-replacement policy. Each cache gets its
            own :class:`random.Random` derived from the seed and the
            cache's position, so hierarchies built with the same seed
            replay identically and per-cache victim streams stay
            independent of the order levels are visited in (which is what
            keeps the batched engine bit-identical under RANDOM). ``None``
            gives each cache one ``Random(0)`` victim sequence that every
            set reads through its own draw counter: the same victims as
            the historical per-set ``Random(0)`` generators.
    """

    def __init__(
        self,
        chip: ChipParams,
        with_tlb: bool = False,
        seed: Optional[int] = None,
    ) -> None:
        self.chip = chip
        self.seed = seed
        clusters = chip.core_clusters
        # Private L1 per core, built from its cluster's geometry.
        self.l1: List[Cache] = [
            Cache(clusters[k].l1d, rng=self._cache_rng(i))
            for i, k in enumerate(chip.thread_clusters(chip.cores))
        ]
        # One L2 per module; each cluster's modules follow the last one's.
        self._module: List[int] = []
        module_cluster: List[int] = []
        for k, cluster in enumerate(clusters):
            first = len(module_cluster)
            self._module += [
                first + c // cluster.cores_per_module
                for c in range(cluster.cores)
            ]
            module_cluster += [k] * cluster.modules
        self.l2: List[Cache] = [
            Cache(clusters[k].l2, rng=self._cache_rng(chip.cores + j))
            for j, k in enumerate(module_cluster)
        ]
        # One L3 for the chip (optional).
        self.l3: Optional[Cache] = (
            Cache(chip.l3, rng=self._cache_rng(chip.cores + chip.modules))
            if chip.l3
            else None
        )
        self.dram_accesses = 0
        self.dram_line_bytes = chip.l1d.line_bytes
        self.tlbs: List[Optional[Tlb]] = [
            Tlb(chip.tlb) if (with_tlb and chip.tlb) else None
            for _ in range(chip.cores)
        ]

    def _cache_rng(self, index: int) -> Optional[random.Random]:
        """The per-cache victim RNG for position ``index`` (see ``seed``)."""
        if self.seed is None:
            return None
        return random.Random(1_000_003 * self.seed + index)

    # -- topology helpers ---------------------------------------------------

    def module_of(self, core: int) -> int:
        """Module index owning ``core``."""
        self._check_core(core)
        return self._module[core]

    def levels_for(self, core: int) -> List[Cache]:
        """The cache path for ``core``, fastest first."""
        self._check_core(core)
        path = [self.l1[core], self.l2[self.module_of(core)]]
        if self.l3 is not None:
            path.append(self.l3)
        return path

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.chip.cores:
            raise SimulationError(f"core {core} out of range")

    # -- demand accesses ----------------------------------------------------

    def access_line(
        self, core: int, line: int, kind: str = KIND_LOAD
    ) -> AccessResult:
        """One demand line access from ``core``; walks the hierarchy."""
        levels = self.levels_for(core)
        tlb_miss = False
        tlb = self.tlbs[core]
        if tlb is not None:
            tlb_miss = not tlb.access_line(line, self.dram_line_bytes)
        for depth, cache in enumerate(levels):
            if cache.access_line(line, kind):
                lat = cache.params.latency_cycles
                if tlb is not None and tlb_miss:
                    lat += tlb.params.miss_penalty_cycles
                if kind == KIND_STORE:
                    # Write-through levels propagate the store outward.
                    d = depth
                    while (
                        d < len(levels)
                        and levels[d].params.write_policy
                        is WritePolicy.WRITE_THROUGH
                    ):
                        if d + 1 < len(levels):
                            levels[d + 1].access_line(line, KIND_STORE)
                        else:
                            self.dram_accesses += 1
                        d += 1
                return AccessResult(depth + 1, lat, tlb_miss)
            # Miss: fall through to the next level; the line was allocated
            # in this level by access_line (allocate-on-fill).
        self.dram_accesses += 1
        lat = self.chip.dram.latency_cycles
        if tlb is not None and tlb_miss:
            lat += tlb.params.miss_penalty_cycles
        return AccessResult(len(levels) + 1, lat, tlb_miss)

    def access_bytes(
        self, core: int, address: int, nbytes: int, kind: str = KIND_LOAD
    ) -> List[AccessResult]:
        """Demand access to a byte range, one result per touched line."""
        if nbytes <= 0:
            return []
        lb = self.dram_line_bytes
        first, last = address // lb, (address + nbytes - 1) // lb
        return [
            self.access_line(core, line, kind)
            for line in range(first, last + 1)
        ]

    # -- software prefetch --------------------------------------------------

    def prefetch_line(self, core: int, line: int, target_level: int) -> None:
        """Install ``line`` into ``target_level`` and all deeper levels.

        ``target_level`` is 1-based (1 = L1). Prefetches never charge demand
        latency here; they are accounted as prefetch traffic.
        """
        levels = self.levels_for(core)
        if not 1 <= target_level <= len(levels):
            raise SimulationError(
                f"prefetch target level {target_level} out of range"
            )
        for cache in levels[target_level - 1 :]:
            if cache.access_line(line, KIND_PREFETCH):
                break  # already present here and (assumed) below

    # -- batched replay -----------------------------------------------------

    def run_batch(self, core: int, trace: "BatchTrace") -> "TraceCost":
        """Replay a :class:`~repro.memory.batch.BatchTrace` on ``core``.

        Produces bit-identical counters (per-level :class:`CacheStats`,
        ``dram_accesses``, TLB stats) and an identical
        :class:`~repro.memory.trace.TraceCost` to scalar
        :func:`~repro.memory.trace.run_trace` over the same records:
        the per-access outcomes of :meth:`_walk`, summed.
        """
        from repro.memory.trace import TraceCost

        return TraceCost.of(*self._walk(core, trace))

    def run_batch_levels(
        self, core: int, trace: "BatchTrace"
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Replay a trace like :meth:`run_batch`, returning per-access detail.

        Returns ``(levels, latencies)`` arrays with one entry per *demand*
        line access of ``trace`` in program order: the 1-based cache level
        that served it (``len(levels)+1`` = DRAM) and the latency charged —
        exactly the :class:`AccessResult` fields :meth:`access_line` would
        have produced for the same access in the same sequence, as
        :func:`~repro.memory.trace.run_trace_levels` collects them. Cache
        and TLB state and statistics evolve identically to the scalar
        replay; this is what the compiled timed-execution engine feeds
        into the scoreboard.
        """
        return self._walk(core, trace)

    def _walk(
        self, core: int, trace: "BatchTrace"
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The batched level walk behind :meth:`run_batch` and
        :meth:`run_batch_levels`; returns ``(levels, latencies)`` per
        demand line access.

        The walk is level-wise: the whole batch is resolved against the L1
        in one vectorized sweep, then only the miss subset — merged, in
        program order, with software prefetches targeting the next level —
        propagates downward. The decomposition is exact because each
        cache's state depends only on its own access sequence, which the
        per-level subsets preserve. Write-through levels propagate stores
        that hit them outward as an *injected* store subset, merged with
        the walking miss subset in program order — the batched mirror of
        the scalar propagation chain. RANDOM/PLRU levels are handled per
        cache inside :meth:`Cache.access_lines_batched`.
        """
        levels = self.levels_for(core)
        lb = self.dram_line_bytes
        lines, kinds, plevels = trace.expand_lines(lb)
        is_prefetch = kinds == CODE_PREFETCH
        if is_prefetch.any():
            targets = plevels[is_prefetch]
            lo, hi = int(targets.min()), int(targets.max())
            if lo < 1 or hi > len(levels):
                raise SimulationError(
                    f"prefetch target level {lo if lo < 1 else hi} "
                    f"out of range"
                )
        demand = ~is_prefetch
        served_at = np.zeros(lines.size, dtype=np.int64)
        tlb_penalty = np.zeros(lines.size, dtype=np.int64)
        # The TLB sees every demand access in program order, independently
        # of which cache level serves it, so it can be replayed up front.
        tlb = self.tlbs[core]
        if tlb is not None:
            demand_idx = np.flatnonzero(demand)
            missed = np.array(
                [
                    not tlb.access_line(ln, lb)
                    for ln in lines[demand_idx].tolist()
                ],
                dtype=bool,
            )
            tlb_penalty[demand_idx[missed]] = tlb.params.miss_penalty_cycles
        active = np.flatnonzero(demand | (plevels == 1))
        inject = np.empty(0, dtype=np.int64)
        is_store = kinds == CODE_STORE
        for depth, cache in enumerate(levels, start=1):
            if depth > 1:
                entering = np.flatnonzero(is_prefetch & (plevels == depth))
                if entering.size:
                    active = np.sort(np.concatenate([active, entering]))
            if active.size == 0 and inject.size == 0:
                continue
            # Injected write-through stores join the walking subset in
            # program order. The two are disjoint: a store either hit a
            # shallower level (injected here) or missed it (still walking).
            if inject.size:
                merged = np.concatenate([active, inject])
                order = np.argsort(merged, kind="stable")
                merged = merged[order]
                from_walk = np.concatenate(
                    [
                        np.ones(active.size, dtype=bool),
                        np.zeros(inject.size, dtype=bool),
                    ]
                )[order]
            else:
                merged, from_walk = active, None
            hits = cache.access_lines_batched(lines[merged], kinds[merged])
            if from_walk is None:
                walk_idx, walk_hits = merged, hits
            else:
                walk_idx, walk_hits = merged[from_walk], hits[from_walk]
            served_at[walk_idx[walk_hits]] = depth
            # Write-through: stores served here start propagating, and
            # already-injected stores keep chaining — both regardless of
            # the propagated access's own outcome (the scalar chain is
            # gated on the levels' write policies, not on hit results).
            wt = cache.params.write_policy is WritePolicy.WRITE_THROUGH
            if wt:
                stores_hit = walk_idx[walk_hits & is_store[walk_idx]]
                next_inject = (
                    np.sort(np.concatenate([stores_hit, inject]))
                    if inject.size
                    else stores_hit
                )
                if depth == len(levels):
                    self.dram_accesses += int(next_inject.size)
                    next_inject = np.empty(0, dtype=np.int64)
            else:
                next_inject = np.empty(0, dtype=np.int64)
            inject = next_inject
            # Misses — demand walks on; prefetches install level by level
            # until they find the line resident (the scalar break).
            active = walk_idx[~walk_hits]
        dram_idx = active[demand[active]]
        self.dram_accesses += int(dram_idx.size)
        served_at[dram_idx] = len(levels) + 1
        latency_of = np.array(
            [0]
            + [cache.params.latency_cycles for cache in levels]
            + [self.chip.dram.latency_cycles],
            dtype=np.int64,
        )
        out_levels = served_at[demand]
        return out_levels, latency_of[out_levels] + tlb_penalty[demand]

    # -- statistics ---------------------------------------------------------

    def all_caches(self) -> Dict[str, Cache]:
        """Every cache in the hierarchy, keyed ``l1[i]``/``l2[j]``/``l3``."""
        caches: Dict[str, Cache] = {}
        for i, cache in enumerate(self.l1):
            caches[f"l1[{i}]"] = cache
        for j, cache in enumerate(self.l2):
            caches[f"l2[{j}]"] = cache
        if self.l3 is not None:
            caches["l3"] = self.l3
        return caches

    def l1_stats(self, core: Optional[int] = None) -> CacheStats:
        """Stats for one core's L1, or all L1s merged."""
        if core is not None:
            self._check_core(core)
            return self.l1[core].stats
        merged = CacheStats()
        for cache in self.l1:
            merged = merged.merged_with(cache.stats)
        return merged

    def l2_stats(self, module: Optional[int] = None) -> CacheStats:
        if module is not None:
            return self.l2[module].stats
        merged = CacheStats()
        for cache in self.l2:
            merged = merged.merged_with(cache.stats)
        return merged

    def l3_stats(self) -> CacheStats:
        if self.l3 is None:
            return CacheStats()
        return self.l3.stats

    def batched_fallback_accesses(self) -> int:
        """Line accesses the batched engine resolved at RANDOM/PLRU
        levels (grouped runs) instead of the LRU reuse-window sweep,
        summed over all caches since the last stats reset."""
        return sum(
            c.batched_fallback_accesses for c in self.all_caches().values()
        )

    def reset_stats(self) -> None:
        """Zero every counter: caches, DRAM and TLBs."""
        for cache in self.all_caches().values():
            cache.reset_stats()
        self.dram_accesses = 0
        for tlb in self.tlbs:
            if tlb is not None:
                tlb.reset_stats()
