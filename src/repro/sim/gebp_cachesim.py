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
from typing import Hashable, Optional, Tuple

import numpy as np

from repro.arch.params import ChipParams
from repro.arch.presets import XGENE
from repro.blocking.cache_blocking import CacheBlocking
from repro.kernels.kernel_spec import KernelSpec
from repro.memory.batch import BatchTrace
from repro.memory.cache import CODE_LOAD, CODE_PREFETCH, CODE_STORE
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.prefetcher import drop_mask, sequential_installs
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

    The stream is affine in the loop indices ``(j, i, k, q)``, so it is
    built as array expressions over them. Per B sliver ``j`` and A
    sliver ``i``: the C tile's loads, then per ``k`` the A and B qword
    loads and the PREFA prefetch, then the C tile's stores; after each
    ``j``, the PLDL2KEEP prefetches of the next B sliver. A PREFA
    prefetch is issued where it stays inside the sliver and the drop
    pattern, one event per such ``k``, keeps it. The hardware prefetcher
    watches the A and B loads (:func:`sequential_installs`).
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
    a_q = np.arange(0, mr * elem, QWORD)  # qword offsets in an A/C row
    b_q = np.arange(0, nr * elem, QWORD)
    nq_a, nq_b = a_q.size, b_q.size
    j = np.arange(nb)[:, None, None]
    i = np.arange(na)[:, None]
    k = np.arange(kc)[:, None]
    a_addr = a_base + i[..., None] * kc * mr * elem + k * mr * elem
    b_addr = b_base + j[..., None] * kc * nr * elem + k * nr * elem
    # The stream of B sliver j is row j of ``address``; kinds, levels
    # and prefetcher stream ids (-1: unobserved) are alike in every row.
    # A row holds na tiles of ``tile`` records: the C tile's loads,
    # kc k-iterations of ``step`` records (A loads, B loads, PREFA), the
    # C tile's stores; then the PLDL2KEEP prefetches.
    c_len = nr * nq_a
    step = nq_a + nq_b + prefetch
    tile = 2 * c_len + kc * step
    l2_offs = np.arange(0, kc * nr * elem if prefetch else 0, line)
    width = na * tile + l2_offs.size
    address = np.empty((nb, width), dtype=np.int64)
    kind = np.full(width, CODE_LOAD, dtype=np.int8)
    level = np.ones(width, dtype=np.int8)
    stream = np.full(width, -1, dtype=np.int8)

    def tiles(a):
        return a[..., :na * tile].reshape(a.shape[:-1] + (na, tile))

    def k_iters(a):
        return tiles(a)[..., c_len:c_len + kc * step].reshape(
            a.shape[:-1] + (na, kc, step)
        )

    # The C tile, column by column of a panel with leading dimension mc.
    c_tile = (
        c_base + j * nr * mc * elem + i * mr * elem
        + (np.arange(nr)[:, None] * mc * elem + a_q).ravel()
    )
    tiles(address)[..., :c_len] = c_tile
    tiles(address)[..., -c_len:] = c_tile
    tiles(kind)[:, -c_len:] = CODE_STORE
    k_iters(address)[..., :nq_a] = a_addr + a_q
    k_iters(address)[..., nq_a:nq_a + nq_b] = b_addr + b_q
    k_iters(stream)[..., :nq_a] = 0
    k_iters(stream)[..., nq_a:nq_a + nq_b] = 1
    keep = None
    if prefetch:
        pf_a = a_addr[..., 0] + PREFA_BYTES
        k_iters(address)[..., -1] = pf_a // line * line
        k_iters(kind)[..., -1] = CODE_PREFETCH
        # PREFA is issued where it stays inside the sliver and the drop
        # pattern, one event per such k-iteration, keeps it.
        inside = k[:, 0] * mr * elem + PREFA_BYTES < kc * mr * elem
        keep = np.ones((nb, width), dtype=bool)
        k_iters(keep)[..., inside, -1] = ~drop_mask(
            PREFETCH_DROP, nb * na * int(inside.sum())
        ).reshape(nb, na, -1)
        k_iters(keep)[..., ~inside, -1] = False
        # PLDL2KEEP: pull the next sliver toward the L2.
        nxt = b_base + (np.arange(1, nb + 1) % nb)[:, None] * kc * nr * elem
        address[:, na * tile:] = (nxt + l2_offs) // line * line
        kind[na * tile:] = CODE_PREFETCH
        level[na * tile:] = 2
    columns = [address.ravel()]
    columns += [np.tile(c, nb) for c in (kind, level, stream)]
    if keep is not None:
        columns = [c[keep.ravel()] for c in columns]
    address, kind, level, stream = columns
    installs, at = sequential_installs(address // line, stream, hw_late)
    main = BatchTrace.interleaved(address, kind, level, installs * line, at)
    kernel_loads = nb * na * kc * (nq_a + nq_b)
    return warm, main, kernel_loads


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
) -> GebpCacheResult:
    """Replay one GEBP's access stream through the cache hierarchy.

    Args:
        spec: Register kernel shape.
        blocking: Block sizes (mc, kc used in full; nc possibly sliced).
        chip: Architecture.
        core: Executing core id.
        hierarchy: Shared hierarchy for multi-thread experiments. When
            omitted, the replay starts from the warm-state memo of
            :func:`~repro.workloads.base.simulate_workload_cache` (a copy
            of the hierarchy warmed by an earlier call with the
            same kernel shape, ``kc``/``mc``, chip, seed, core and engine)
            or from a fresh private hierarchy; passing a fresh one forces
            a cold start.
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
    """
    workload = GebpSlice(spec, blocking, nc_slice=nc_slice,
                         prefetch=prefetch, hw_late=hw_late)
    r = simulate_workload_cache(
        workload, chip, core=core, hierarchy=hierarchy, engine=engine,
        seed=seed, metrics=metrics,
    )
    return GebpCacheResult(
        r.l1_loads, r.l1_load_misses, r.l1_load_miss_rate, r.l2_loads,
        r.l2_load_misses, r.dram_accesses, workload.kernel_loads,
    )
