"""Event-accurate cache simulation of GEBP (Table VII, Fig. 15 validation).

Replays the exact memory-access sequence of one GEBP call — packed-A
sliver loads, packed-B sliver loads, C tile read-modify-writes, and the
kernel's software prefetches — as a :class:`GebpSlice` workload through
:func:`~repro.workloads.base.simulate_workload_cache`, the cache-replay
driver every workload shares. Every 128-bit ``ldr`` of the register
kernel becomes one demand access, so the L1 counters correspond directly
to the paper's ``L1-dcache-loads`` and ``L1-dcache-load-miss`` events.

Two prefetch mechanisms act on the streams, as on the real core:

- **software** (``PLDL1KEEP``/``PLDL2KEEP``): issued by the kernel at the
  PREFA/PREFB distances. Best-effort — dropped when the load queue is
  full, modeled by a deterministic drop pattern at rate
  :data:`PREFETCH_DROP`.
- **hardware**: the core's tagged sequential prefetcher. Both the packed
  A and packed B streams are perfectly sequential inside the k-loop, so
  on every transition to a new line the next line is pulled in, except
  when the prefetch is late/dropped (rate ``hw_late``). Without this the
  B sliver cannot survive the A stream under true LRU — the residency
  the paper's eq. (15) assumes is delivered jointly by the reservation
  arithmetic and the sequential prefetcher.

With the default rates the measured miss rates land in the paper's
3-6% band (Table VII).

Cost is bounded by simulating a slice of the panel (``nc_slice`` columns)
after a warm-up pass; miss *rates* are steady-state after one sliver.

Both prefetch streams are pure functions of the demand addresses — the
drop patterns are deterministic and the sequential prefetcher only looks
at line transitions — so the whole access sequence is compiled **once per
GEBP shape** into a pair of :class:`~repro.memory.batch.BatchTrace`
objects (warm-up and main loop). The warm-up stream is A stores
(``nc``-independent) followed by B stores (growing with ``nc``), so along
an ``nc`` sweep the driver's warm-state memo replays only the delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Tuple

from repro.arch.params import ChipParams
from repro.arch.presets import XGENE
from repro.blocking.cache_blocking import CacheBlocking
from repro.kernels.kernel_spec import KernelSpec
from repro.memory.batch import BatchTrace
from repro.memory.cache import CODE_LOAD, CODE_PREFETCH, CODE_STORE
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.prefetcher import DropPattern, SequentialPrefetcher
from repro.memo import BoundedMemo
from repro.obs.metrics import MetricsRegistry
from repro.workloads.base import (
    Workload,
    clear_warm_memo,
    simulate_workload_cache,
)

__all__ = ["GebpCacheResult", "GebpSlice", "clear_warm_memo", "gebp_traces",
           "simulate_gebp_cache"]

QWORD = 16

#: Fraction of the kernel's software prefetches dropped (load queue full).
PREFETCH_DROP = 0.35

#: A-stream software prefetch distance in bytes (PREFA).
PREFA_BYTES = 1024


@dataclass(frozen=True)
class GebpCacheResult:
    """Cache behaviour of one simulated GEBP slice.

    Attributes:
        l1_loads: Demand 128-bit loads seen by the L1.
        l1_load_misses: Demand load misses.
        l1_load_miss_rate: The Table VII metric.
        l2_loads, l2_load_misses: Same, one level down.
        dram_accesses: Lines fetched from memory.
        kernel_loads: Loads issued by the register kernel alone.
    """

    l1_loads: int
    l1_load_misses: int
    l1_load_miss_rate: float
    l2_loads: int
    l2_load_misses: int
    dram_accesses: int
    kernel_loads: int


#: Compiled ``_gebp_trace`` results by its arguments.
_TRACES: BoundedMemo[Tuple[BatchTrace, BatchTrace, int]] = BoundedMemo(64)


def _gebp_trace(
    mr: int,
    nr: int,
    kc: int,
    mc: int,
    nc: int,
    line: int,
    prefetch: bool,
    hw_late: float,
) -> Tuple[BatchTrace, BatchTrace, int]:
    """Compile the GEBP access stream for one shape, at address base 0.

    Returns ``(warm, main, kernel_loads)``: the warm-up stores that model
    packing having written the A block / B panel, and the main-loop stream
    with demand loads, C updates and both prefetch streams interleaved in
    issue order. Addresses start at 0; callers relocate per core via
    :meth:`BatchTrace.shifted`. :func:`gebp_traces` memoizes it per
    shape — the sweeps replay the same streams at every point.
    """
    a_base = 0
    b_base = 1 << 28
    c_base = 1 << 29
    elem = 8

    na = -(-mc // mr)
    nb = -(-nc // nr)

    warm = BatchTrace.line_stores(
        ((a_base, na * kc * mr * elem), (b_base, nb * kc * nr * elem)), line
    )
    rows: List[Tuple[int, int, int, int]] = []
    drop = DropPattern(PREFETCH_DROP if prefetch else 1.0)
    hw = SequentialPrefetcher(
        hw_late,
        lambda ln, level: rows.append((ln * line, 1, CODE_PREFETCH, level)),
    )

    a_qloads_per_iter = -(-mr * elem // QWORD)
    b_qloads_per_iter = -(-nr * elem // QWORD)
    kernel_loads = 0

    def demand(addr: int, stream: Optional[str] = None) -> None:
        rows.append((addr, 1, CODE_LOAD, 1))
        if stream is not None:
            hw.observe(addr // line, stream)

    for j in range(nb):
        b_sliver = b_base + j * kc * nr * elem
        for i in range(na):
            a_sliver = a_base + i * kc * mr * elem
            # C tile load (column-major panel with leading dimension mc).
            for col in range(nr):
                c_col = c_base + (j * nr + col) * mc * elem + i * mr * elem
                for off in range(0, mr * elem, QWORD):
                    demand(c_col + off)
            # The k-loop.
            for k in range(kc):
                a_addr = a_sliver + k * mr * elem
                b_addr = b_sliver + k * nr * elem
                for q in range(a_qloads_per_iter):
                    demand(a_addr + q * QWORD, "A")
                    kernel_loads += 1
                for q in range(b_qloads_per_iter):
                    demand(b_addr + q * QWORD, "B")
                    kernel_loads += 1
                if prefetch:
                    pf_a = a_addr + PREFA_BYTES
                    if pf_a < a_sliver + kc * mr * elem and not drop.dropped():
                        rows.append(
                            ((pf_a // line) * line, 1, CODE_PREFETCH, 1)
                        )
            # C tile store.
            for col in range(nr):
                c_col = c_base + (j * nr + col) * mc * elem + i * mr * elem
                for off in range(0, mr * elem, QWORD):
                    rows.append((c_col + off, 1, CODE_STORE, 1))
        if prefetch:
            # PLDL2KEEP: pull the next sliver toward the L2.
            nxt = b_base + ((j + 1) % nb) * kc * nr * elem
            for off in range(0, kc * nr * elem, line):
                rows.append((((nxt + off) // line) * line, 1, CODE_PREFETCH, 2))

    return warm, BatchTrace.from_rows(rows), kernel_loads


def gebp_traces(
    spec: KernelSpec,
    blocking: CacheBlocking,
    chip: ChipParams = XGENE,
    core: int = 0,
    nc_slice: Optional[int] = None,
    prefetch: bool = True,
    hw_late: float = 0.25,
) -> Tuple[BatchTrace, BatchTrace, int]:
    """The ``(warm, main, kernel_loads)`` streams one GEBP replay issues.

    Relocated to ``core``'s private address region; the underlying
    base-0 compilation is shared across cores and sweep points.
    """
    nc = nc_slice if nc_slice is not None else min(blocking.nc, 6 * spec.nr)
    key = (spec.mr, spec.nr, blocking.kc, blocking.mc, nc,
           chip.l1d.line_bytes, bool(prefetch), float(hw_late))
    warm, main, kernel_loads = _TRACES.get_or_make(
        key, lambda: _gebp_trace(*key)
    )
    offset = core * (1 << 30)
    return warm.shifted(offset), main.shifted(offset), kernel_loads


@dataclass
class GebpSlice(Workload):
    """One GEBP slice as a :class:`~repro.workloads.base.Workload` whose
    streams are :func:`gebp_traces`; :meth:`traces` sets ``kernel_loads``.
    """

    spec: KernelSpec
    blocking: CacheBlocking
    nc_slice: Optional[int] = None
    prefetch: bool = True
    hw_late: float = 0.25
    incremental: bool = True
    kernel_loads: int = field(default=0, init=False)

    name = "gebp"

    def traces(
        self, chip: ChipParams, core: int = 0
    ) -> Tuple[BatchTrace, BatchTrace]:
        warm, main, self.kernel_loads = gebp_traces(
            self.spec, self.blocking, chip, core, self.nc_slice,
            self.prefetch, self.hw_late,
        )
        return warm, main

    def warm_key(self, chip: ChipParams) -> Optional[Hashable]:
        # The warm stream depends on the kernel shape and kc/mc only (the
        # driver's key covers the chip); a larger nc extends it.
        if not self.incremental:
            return None
        return (self.name, self.spec.mr, self.spec.nr,
                self.blocking.kc, self.blocking.mc)


def simulate_gebp_cache(
    spec: KernelSpec,
    blocking: CacheBlocking,
    chip: ChipParams = XGENE,
    core: int = 0,
    hierarchy: Optional[MemoryHierarchy] = None,
    nc_slice: Optional[int] = None,
    prefetch: bool = True,
    hw_late: float = 0.25,
    engine: str = "auto",
    seed: Optional[int] = None,
    metrics: Optional[MetricsRegistry] = None,
    incremental: bool = True,
) -> GebpCacheResult:
    """Replay one GEBP's access stream through the cache hierarchy.

    Args:
        spec: Register kernel shape.
        blocking: Block sizes (mc, kc used in full; nc possibly sliced).
        chip: Architecture.
        core: Executing core id.
        hierarchy: Shared hierarchy for multi-thread experiments; a fresh
            private one is created when omitted.
        nc_slice: Columns of the B panel to replay (default
            ``min(nc, 6*nr)`` — steady state is reached within a sliver).
        prefetch: Software prefetching enabled.
        hw_late: Fraction of hardware sequential prefetches that arrive
            too late to cover the demand access.
        engine: ``"auto"``/``"batched"`` for the vectorized sweep,
            ``"scalar"`` for the per-access oracle. Both produce
            bit-identical counters.
        seed: RANDOM-replacement seed for a freshly created hierarchy
            (ignored when ``hierarchy`` is passed in).
        metrics: Optional registry receiving replay counters and span
            timings; ``None`` (the default) costs nothing.
        incremental: Reuse the post-warm-up hierarchy state across calls
            that share a warm stream (same kernel shape, ``kc``/``mc``,
            chip, seed, core and engine) through the driver's warm-state
            memo; only applies when ``hierarchy`` is omitted.
    """
    workload = GebpSlice(spec, blocking, nc_slice=nc_slice,
                         prefetch=prefetch, hw_late=hw_late,
                         incremental=incremental)
    r = simulate_workload_cache(
        workload, chip, core=core, hierarchy=hierarchy, engine=engine,
        seed=seed, metrics=metrics,
    )
    return GebpCacheResult(
        r.l1_loads, r.l1_load_misses, r.l1_load_miss_rate, r.l2_loads,
        r.l2_load_misses, r.dram_accesses, workload.kernel_loads,
    )
