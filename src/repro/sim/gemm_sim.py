"""The composed DGEMM performance model.

Predicts cycles (hence Gflops and efficiency) for a kernel variant, a
blocking, a problem size and a thread count on the modeled chip, by pricing
the structural trace of the actual Goto loop nest:

1. **Register kernel** — per update group, the calibrated interference
   model gives the FMA-pipe cycles including the partially-overlapped
   L1-to-register loads (this alone reproduces the Table IV upper bounds).
2. **Stream fills** — the residency analysis decides which cache level
   feeds the A/B streams under the given blocking, sharing and problem
   size; exposed fill latency is charged per k-iteration, attenuated by
   the kernel's prefetch-hide class (rotated kernels hide more than the
   static or register-starved ones — the Fig. 13 mechanism).
3. **C updates** — each micro-tile's C loads cannot overlap compute
   (Sec. IV-B); stores can and are only counted as traffic.
4. **Packing** — every pack event is a streaming copy at a fixed
   cycles-per-word cost, charged to the packing thread.
5. **Parallel composition** — per-thread cycles are summed from that
   thread's events; chip time is the slowest thread plus barrier costs,
   bounded below by the DRAM-bandwidth time of the total off-chip traffic.

Edge effects need no special casing: the synthetic trace carries the real
(clamped) block extents, and padded register tiles execute at full-tile
cost, which is exactly what the zero-padded packed buffers do.

The trace is priced as integer event arrays
(:class:`~repro.gemm.trace.TraceArrays`), never as per-event objects;
``docs/model.md`` explains why the array sums are bit-identical to an
event-by-event loop.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro.arch.params import ChipParams
from repro.arch.presets import XGENE
from repro.blocking.cache_blocking import (
    CacheBlocking,
    goto_blocking,
    solve_cache_blocking,
)
from repro.errors import SimulationError
from repro.gemm.trace import OPERAND_CODES, GemmTrace, TraceArrays
from repro.kernels.kernel_spec import KernelSpec
from repro.kernels.variants import VARIANTS
from repro.obs.metrics import MetricsRegistry
from repro.sim.cache_fit import analyze_residency, stream_costs
from repro.sim.energy import dgemm_energy
from repro.sim.gebp_cachesim import GebpCacheResult, simulate_gebp_cache
from repro.sim.params import DEFAULT_SIM_PARAMS, SimParams
from repro.sim.synthetic_trace import micro_tiles, trace_arrays


def _ordered_sum(values: np.ndarray) -> float:
    """``0.0 + values[0] + values[1] + ...`` added strictly in order.

    A running sum (``np.add.accumulate``) rounds exactly like a Python
    loop; ``np.sum``'s pairwise reduction does not.
    """
    if not len(values):
        return 0.0
    return float(np.add.accumulate(values)[-1])


@dataclass(frozen=True)
class GemmPerformance:
    """Predicted performance of one DGEMM execution.

    Attributes:
        kernel: Variant name.
        m, n, k: Problem sizes.
        threads: Worker count.
        cycles: Chip cycles from start to finish.
        flops: Useful floating-point operations (2*m*n*k).
        gflops: Achieved Gflop/s.
        efficiency: Fraction of the peak of ``threads`` cores.
        l1_loads: Retired 128-bit L1 loads (the Fig. 15 counter).
        breakdown: Cycle shares by component (diagnostic).
        blocking: The blocking used.
        joules: Modeled energy of the execution (simple event-energy
            model, :mod:`repro.sim.energy`).
        gflops_per_watt: Modeled energy efficiency.
        energy_breakdown: Joules by component (diagnostic).
    """

    kernel: str
    m: int
    n: int
    k: int
    threads: int
    cycles: float
    flops: int
    gflops: float
    efficiency: float
    l1_loads: float
    breakdown: Dict[str, float]
    blocking: CacheBlocking
    joules: float = 0.0
    gflops_per_watt: float = 0.0
    energy_breakdown: Dict[str, float] = field(default_factory=dict)


class CycleTotals(NamedTuple):
    """A trace's priced events, before parallel composition.

    Attributes:
        per_thread: Busy cycles of each thread, in thread-id order.
        kernel, fill, c_update, pack: Cycle totals by component.
        l1_loads: Retired 128-bit L1 loads.
    """

    per_thread: List[float]
    kernel: float
    fill: float
    c_update: float
    pack: float
    l1_loads: float


class GemmSimulator:
    """Cost model for DGEMM on the simulated chip.

    Args:
        chip: Architecture description.
        params: Calibration constants (see :mod:`repro.sim.params`).
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`;
            when set, :meth:`simulate`, :meth:`cache_sim` and
            :meth:`timed_kernel` record counters and span timings into it
            (and forward it to the engines they wrap). ``None`` adds no
            work.
    """

    def __init__(
        self,
        chip: ChipParams = XGENE,
        params: SimParams = DEFAULT_SIM_PARAMS,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.chip = chip
        self.params = params
        self.metrics = metrics

    # -- kernel resolution -----------------------------------------------------

    def _resolve(self, kernel) -> KernelSpec:
        """Accept a registered variant name or a :class:`KernelSpec`.

        Passing a spec directly lets search layers (:mod:`repro.tune`)
        price arbitrary enumerated tiles without registering them in
        :data:`~repro.kernels.variants.VARIANTS`.
        """
        if isinstance(kernel, KernelSpec):
            return kernel
        try:
            return VARIANTS[kernel]
        except KeyError:
            raise SimulationError(
                f"unknown kernel {kernel!r}; choose from {sorted(VARIANTS)}"
            ) from None

    @staticmethod
    def _label(kernel) -> str:
        return kernel.name if isinstance(kernel, KernelSpec) else kernel

    def default_blocking(
        self, kernel, threads: int
    ) -> CacheBlocking:
        """The blocking each implementation would choose.

        OpenBLAS variants use the paper's associativity-aware engine;
        ATLAS uses the half-cache heuristic its auto-tuner approximates.
        """
        spec = self._resolve(kernel)
        if self._label(kernel).startswith("ATLAS"):
            return goto_blocking(self.chip, spec.mr, spec.nr, threads=threads)
        return solve_cache_blocking(
            self.chip, spec.mr, spec.nr, threads=threads
        )

    def _window_limited(self, spec: KernelSpec) -> bool:
        return (not spec.rotated) or spec.preload_window_limited

    # -- event-accurate cache replay ---------------------------------------------

    def cache_sim(
        self,
        kernel: str,
        threads: int = 1,
        blocking: Optional[CacheBlocking] = None,
        engine: str = "auto",
        **kwargs,
    ) -> GebpCacheResult:
        """Event-accurate cache replay of one GEBP slice for ``kernel``.

        Complements :meth:`simulate`'s analytic model with the
        set-associative simulator behind Table VII. ``blocking`` defaults
        to :meth:`default_blocking` for ``threads``; remaining keyword
        arguments (``core``, ``hierarchy``, ``nc_slice``, ``prefetch``,
        ``hw_late``, ``seed``) pass through to
        :func:`repro.sim.gebp_cachesim.simulate_gebp_cache`.
        """
        spec = self._resolve(kernel)
        blk = blocking or self.default_blocking(kernel, threads)
        kwargs.setdefault("metrics", self.metrics)
        return simulate_gebp_cache(
            spec, blk, chip=self.chip, engine=engine, **kwargs
        )

    def timed_kernel(
        self,
        kernel: str,
        kc: Optional[int] = None,
        engine: str = "auto",
        hw_late: float = 0.25,
        seed: int = 0,
    ):
        """Timing-functional run of one micro-tile of ``kernel``.

        The deepest level of the simulator stack: the generated kernel
        runs against the cache hierarchy and scoreboard, giving measured
        — not modeled — cycles, stalls and load-latency histograms. ``kc`` defaults to the kernel's solved blocking depth
        rounded to the unroll; operands are seeded random slivers.

        Args:
            kernel: Variant name from :data:`repro.kernels.VARIANTS`.
            kc: Blocking depth (multiple of the kernel's unroll).
            engine: ``auto`` (the default) and ``compiled`` run the
                compiled engine, which raises :class:`SimulationError`
                with the :func:`repro.kernels.compiled.compilability`
                reason on a kernel it cannot lower; ``interpreted`` runs
                the instruction interpreter, the bit-identical oracle
                (see :data:`repro.sim.timed_executor.TIMED_ENGINES`).
            hw_late: Hardware-prefetcher lateness.
            seed: Operand RNG seed.

        Returns:
            A :class:`repro.sim.timed_executor.TimedRun`.
        """
        import numpy as np

        from repro.kernels.variants import get_variant
        from repro.sim.timed_executor import run_timed_micro_tile

        spec = self._resolve(kernel)
        generated = get_variant(kernel)
        if kc is None:
            blk = self.default_blocking(kernel, threads=1)
            unroll = generated.plan.unroll
            kc = max(unroll, (blk.kc // unroll) * unroll)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((kc, spec.mr))
        b = rng.standard_normal((kc, spec.nr))
        return run_timed_micro_tile(
            generated, a, b, chip=self.chip, engine=engine, hw_late=hw_late,
            metrics=self.metrics,
        )

    # -- per-iteration kernel cost ----------------------------------------------

    def kernel_group_cycles(self, spec: KernelSpec) -> float:
        """Interference-model cycles of one update group (L1-resident)."""
        return self.params.interference.cycles(
            spec.ldr_per_group, spec.fmla_per_group
        )

    def kernel_upper_bound(self, spec: KernelSpec) -> float:
        """The Table-IV-style efficiency upper bound of the register
        kernel (91.5% for 8x6)."""
        core = self.chip.core
        peak_per_group = spec.flops_per_group / core.flops_per_cycle
        return peak_per_group / self.kernel_group_cycles(spec)

    # -- main entry point --------------------------------------------------------

    def simulate(
        self,
        kernel,
        m: int,
        n: int,
        k: int,
        threads: int = 1,
        blocking: Optional[CacheBlocking] = None,
        trace: Optional[GemmTrace] = None,
        prefetch: bool = True,
        parallel_axis: str = "m",
    ) -> GemmPerformance:
        """Predict one DGEMM execution.

        Args:
            kernel: Variant name from :data:`repro.kernels.VARIANTS`, or a
                :class:`KernelSpec` for an unregistered candidate tile
                (the performance record is labeled with ``spec.name``).
            m, n, k: Problem sizes.
            threads: Worker count (1..chip.cores).
            blocking: Override block sizes (Table VI's experiment).
            trace: Use a pre-recorded structural trace instead of
                synthesizing one (e.g. from the functional implementation).
            prefetch: Software prefetching enabled.
            parallel_axis: ``"m"`` (the paper's layer-3 split, one shared
                B panel) or ``"n"`` (layer-1 split, one B panel per
                thread — the Fig. 9 ablation).
        """
        if not 1 <= threads <= self.chip.cores:
            raise SimulationError(f"threads {threads} out of range")
        if min(m, n, k) <= 0:
            raise SimulationError("m, n, k must be positive")
        if parallel_axis not in ("m", "n"):
            raise SimulationError("parallel_axis must be 'm' or 'n'")
        spec = self._resolve(kernel)
        label = self._label(kernel)
        blk = blocking or self.default_blocking(kernel, threads)
        if trace is None:
            events = trace_arrays(m, n, k, blk, threads, axis=parallel_axis)
        else:
            events = trace.to_arrays()
            used = np.concatenate((events.gebps[:, 3], events.packs[:, 3]))
            if used.size and not 0 <= used.min() <= used.max() < threads:
                raise SimulationError(
                    f"trace thread ids must lie in [0, {threads})"
                )
        metrics = self.metrics
        span = nullcontext()
        if metrics is not None:
            metrics.inc("gemm_sim.simulations")
            metrics.observe("gemm_sim.gebp_events", len(events.gebps))
            span = metrics.span("gemm_sim.simulate")
        with span:
            totals = self.price_events(
                events, spec, blk, m, n, threads, prefetch, parallel_axis
            )
            return self.compose(label, m, n, k, threads, blk, totals)

    def shape_costs(
        self,
        shapes: np.ndarray,
        spec: KernelSpec,
        blk: CacheBlocking,
        m: int,
        n: int,
        threads: int,
        prefetch: bool,
        parallel_axis: str,
    ) -> np.ndarray:
        """Per-micro-tile stream costs of GEBP shapes.

        Args:
            shapes: ``(S, 3)`` integer rows ``(mc, kc, nc)``.
            spec, blk, m, n, threads, prefetch, parallel_axis: As in
                :meth:`simulate`, resolved.

        Returns:
            ``(S, 2)`` rows ``(per_iter_fill, per_tile_c)``: exposed fill
            cycles per k-iteration (A and B streams plus shared-L2
            contention) and the C-update cycles of one micro-tile.
        """
        hide = self.params.hide_fraction(
            self._window_limited(spec), prefetching=prefetch
        )
        l2_sharers = max(1, math.ceil(threads / self.chip.modules))
        a_lines = spec.mr * 8 / self.chip.l1d.line_bytes
        contention = (
            a_lines
            * self.params.l2_contention_cycles_per_line
            * (l2_sharers - 1)
        )
        table = np.empty((len(shapes), 2))
        for row, (mcur, kcur, ncur) in enumerate(shapes.tolist()):
            eff_blk = CacheBlocking(
                mr=blk.mr, nr=blk.nr,
                kc=kcur, mc=mcur, nc=ncur,
                k1=blk.k1, k2=blk.k2, k3=blk.k3,
            )
            res = analyze_residency(
                self.chip, eff_blk, threads=threads, m=m, n=n,
                b_panels=threads if parallel_axis == "n" else 1,
            )
            sc = stream_costs(
                self.chip, spec, eff_blk, res, hide,
                hide_b=self.params.prefetch_hide_b_stream,
            )
            table[row] = (sc.a_fill + sc.b_fill + contention,
                          sc.c_update * kcur)
        return table

    def price_events(
        self,
        events: TraceArrays,
        spec: KernelSpec,
        blk: CacheBlocking,
        m: int,
        n: int,
        threads: int,
        prefetch: bool,
        parallel_axis: str,
    ) -> CycleTotals:
        """Price a trace's events (model steps 1-4 and per-thread sums).

        Every term is computed element-wise over the event arrays with
        the operand order of a per-event loop, and every total is an
        in-order running sum (:func:`_ordered_sum`), so the result is
        bit-identical to pricing the events one at a time.
        """
        group_cycles = self.kernel_group_cycles(spec)
        kg = spec.k_iters_per_group

        mc, kc, nc, gebp_thread = events.gebps.T
        mspan, kspan, nspan = (
            events.gebps[:, :3].max(axis=0, initial=0) + 1
        ).tolist()
        # Every integer product below is at most mspan*kspan*nspan.
        if mspan * kspan * nspan >= 2**63:
            raise SimulationError(
                "GEBP extents too large for int64 event arithmetic"
            )
        # One integer per distinct (mc, kc, nc) shape, to price each once.
        codes, shape_of = np.unique(
            (mc * kspan + kc) * nspan + nc, return_inverse=True
        )
        shapes = np.stack(
            (codes // (kspan * nspan), codes // nspan % kspan,
             codes % nspan), axis=1,
        )
        costs = self.shape_costs(
            shapes, spec, blk, m, n, threads, prefetch, parallel_axis
        )[shape_of]
        per_iter_fill, per_tile_c = costs[:, 0], costs[:, 1]

        tiles = micro_tiles(mc, nc, spec.mr, spec.nr)
        groups = -(-kc // kg)
        kc_part = (tiles * groups) * group_cycles
        fl_part = (tiles * kc) * per_iter_fill
        c_part = tiles * per_tile_c
        gebp_total = kc_part + fl_part + c_part
        gebp_loads = tiles * (
            groups * spec.ldr_per_group + spec.mr * spec.nr / 2.0
        )

        # Packing: B packs are cooperative (split across threads), A packs
        # belong to their thread. Each pack streams its words once.
        operand, rows, cols, pack_thread = events.packs.T
        words = rows * cols
        pack_cyc = words * self.params.pack_cycles_per_word
        if threads > 1 and parallel_axis == "m":
            shared = operand == OPERAND_CODES["B"]
        else:
            shared = np.zeros(len(operand), dtype=bool)
        pack_share = np.where(shared, pack_cyc / threads, pack_cyc)

        # A thread's busy cycles: its GEBPs in event order, then its packs
        # in pack order (every thread takes a share of each shared pack).
        per_thread = [
            _ordered_sum(np.concatenate((
                gebp_total[gebp_thread == t],
                pack_share[shared | (pack_thread == t)],
            )))
            for t in range(threads)
        ]
        return CycleTotals(
            per_thread=per_thread,
            kernel=_ordered_sum(kc_part),
            fill=_ordered_sum(fl_part),
            c_update=_ordered_sum(c_part),
            pack=_ordered_sum(pack_cyc),
            # Packing reads count as q-loads, after the kernels' loads.
            l1_loads=_ordered_sum(np.concatenate((gebp_loads, words / 2.0))),
        )

    def compose(
        self,
        kernel: str,
        m: int,
        n: int,
        k: int,
        threads: int,
        blk: CacheBlocking,
        totals: CycleTotals,
    ) -> GemmPerformance:
        """Compose priced event totals into chip time (model step 5),
        Gflops, efficiency and energy."""
        # Synchronization: one barrier per (jj, kk) segment.
        n_segments = math.ceil(n / blk.nc) * math.ceil(k / blk.kc)
        barrier = (
            self.params.barrier_cycles * n_segments if threads > 1 else 0.0
        )

        compute_cycles = max(totals.per_thread) + barrier

        # DRAM bandwidth floor on total off-chip traffic.
        n_jj = math.ceil(n / blk.nc)
        n_kk = math.ceil(k / blk.kc)
        words_a = m * k * n_jj           # A re-read per column panel
        words_b = k * n                  # B read once
        words_c = 2 * m * n * n_kk       # C read+write per rank-kc pass
        bytes_total = 8 * (words_a + words_b + words_c)
        bw = self.chip.dram.bandwidth_bytes_per_cycle * self.chip.dram.bridges
        bw_cycles = bytes_total / bw

        cycles = max(compute_cycles, bw_cycles)
        flops = 2 * m * n * k
        seconds = cycles / self.chip.core.frequency_hz
        gflops = flops / seconds / 1e9
        eff = gflops * 1e9 / self.chip.peak_flops_for(threads)

        energy = dgemm_energy(
            self.chip,
            flops=flops,
            l1_loads=totals.l1_loads,
            bytes_offchip=bytes_total,
            cycles=cycles,
            per_thread_cycles=totals.per_thread,
        )

        return GemmPerformance(
            kernel=kernel,
            m=m,
            n=n,
            k=k,
            threads=threads,
            cycles=cycles,
            flops=flops,
            gflops=gflops,
            efficiency=eff,
            l1_loads=totals.l1_loads,
            breakdown={
                "kernel": totals.kernel,
                "fill": totals.fill,
                "c_update": totals.c_update,
                "pack": totals.pack,
                "barrier": barrier,
                "bandwidth_floor": bw_cycles,
            },
            blocking=blk,
            joules=energy.joules,
            gflops_per_watt=energy.gflops_per_watt,
            energy_breakdown=energy.breakdown,
        )
