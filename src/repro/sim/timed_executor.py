"""Timing-functional simulation of generated kernels.

Runs a generated register kernel the way silicon would: every dynamic
instruction is executed *functionally* (producing the numeric result) and
*timed* against the machine — loads walk the cache hierarchy at their
actual addresses (software prefetches install lines; the hardware
sequential prefetcher observes the streams), and the resulting per-load
latencies feed the scoreboard's dependence-and-issue model.

This is the most detailed level of the simulator stack:

- the cost model (:mod:`repro.sim.gemm_sim`) prices structure analytically;
- the cache replay (:mod:`repro.sim.gebp_cachesim`) is event-accurate in
  addresses but not in time;
- this module is event-accurate in both values and time, at micro-tile
  scale — and is what validates the other two
  (``tests/test_timed_executor.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.params import ChipParams
from repro.arch.presets import XGENE
from repro.errors import SimulationError
from repro.isa.executor import Executor, MachineState, Memory
from repro.isa.instructions import Instruction, Ldr, Prfm
from repro.isa.registers import DOUBLE_BYTES
from repro.kernels.codegen import (
    A_POINTER,
    B_POINTER,
    C_POINTER,
    GeneratedKernel,
)
from repro.kernels.compiled import CompiledKernel, compile_kernel
from repro.kernels.execute import (
    A_BASE,
    B_BASE,
    C_BASE,
    drive_micro_tile,
    largest_kc,
    stream_widths,
)
from repro.memory.batch import warm_region
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.prefetcher import SequentialPrefetcher
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.scoreboard import PipelineResult, ScoreboardCore
from repro.workloads.base import TIMED_ENGINES, select_timed_engine


@dataclass
class TimedRun:
    """Result of a timing-functional micro-tile run.

    Attributes:
        c_tile: The computed ``mr x nr`` C tile.
        cycles: Scoreboard cycles for the whole run (prologue + bodies +
            epilogue).
        cycles_per_iteration: Steady-state cycles per k-iteration.
        efficiency: Fraction of the core's FMA peak achieved.
        pipeline: Full scoreboard result.
        load_latencies: Latency histogram of the kernel's demand loads
            (cycles -> count).
        engine: The engine that actually ran (``"compiled"`` or
            ``"interpreted"`` — never ``"auto"``).
    """

    c_tile: "np.ndarray"
    cycles: int
    cycles_per_iteration: float
    efficiency: float
    pipeline: PipelineResult
    load_latencies: Dict[int, int]
    engine: str = "interpreted"


def run_timed_micro_tile(
    kernel: GeneratedKernel,
    a_sliver: "np.ndarray",
    b_sliver: "np.ndarray",
    c_tile: Optional["np.ndarray"] = None,
    chip: ChipParams = XGENE,
    hierarchy: Optional[MemoryHierarchy] = None,
    core_id: int = 0,
    hw_late: float = 0.25,
    warm_l2: bool = True,
    timing_bases: Optional[Dict[int, int]] = None,
    engine: str = "auto",
    metrics: Optional[MetricsRegistry] = None,
) -> TimedRun:
    """Execute and time one micro-tile (GESS) on the simulated machine.

    Args:
        kernel: Generated even-tile kernel.
        a_sliver: Packed A sliver ``(kc, mr)``.
        b_sliver: Packed B sliver ``(kc, nr)``.
        c_tile: Initial C tile.
        chip: Architecture.
        hierarchy: Shared hierarchy (fresh private one when omitted).
        core_id: Executing core.
        hw_late: Hardware-prefetcher lateness.
        warm_l2: Pre-install the packed buffers in L2/L3 (GEBP's
            precondition: packing already wrote them there).
        timing_bases: Optional map from pointer-register index to the
            byte address the stream occupies *in the timed address
            space* — lets a caller (e.g. :func:`run_timed_gebp`) place
            many slivers at their true offsets inside shared packed
            buffers while each tile's functional memory stays local.
        engine: One of :data:`TIMED_ENGINES`. The compiled engine
            replays precompiled value/address/issue templates and is
            bit-identical to the interpreter on the C tile, the pipeline
            counters and the load-latency histogram.
        metrics: Optional registry to record engine selection, cycle and
            load counters into. ``None`` (the default) costs nothing.
    """
    kc = a_sliver.shape[0]
    unroll = kernel.plan.unroll
    if kc % unroll:
        raise SimulationError(f"kc={kc} must be a multiple of {unroll}")
    largest = largest_kc(kernel)
    if kc > largest:
        raise SimulationError(
            f"kc={kc} exceeds the {kernel.spec.name} kernel's largest "
            f"valid kc={largest} (its packed operand streams would "
            "overlap)"
        )
    selected = select_timed_engine(engine)
    compiled = None if selected == "interpreted" else compile_kernel(kernel)
    if metrics is not None:
        metrics.inc("timed.micro_tiles")
        metrics.inc(f"timed.engine.{selected}")

    h = hierarchy or MemoryHierarchy(chip)
    if warm_l2:
        # GEBP's precondition: packing left both buffers in the module L2.
        module_l2 = h.l2[h.module_of(core_id)]
        for base, width in zip((A_BASE, B_BASE), stream_widths(kernel)):
            nbytes = (kc + unroll) * width * DOUBLE_BYTES
            warm_region(module_l2, base, nbytes, chip.l1d.line_bytes)
        h.reset_stats()
    args = (a_sliver, b_sliver, c_tile, chip, h, core_id, hw_late,
            timing_bases)
    if compiled is not None:
        run = _run_compiled_micro_tile(compiled, *args)
    else:
        run = _run_interpreted(kernel, *args)
    if metrics is not None:
        metrics.inc("timed.cycles", run.cycles)
        metrics.inc("timed.demand_loads", sum(run.load_latencies.values()))
    return run


def _timed_run(
    kernel, kc: int, chip: ChipParams, result: PipelineResult,
    c_tile: "np.ndarray", histogram: Dict[int, int], engine: str,
) -> TimedRun:
    flops = kc * kernel.spec.flops_per_iter
    return TimedRun(
        c_tile=c_tile,
        cycles=result.cycles,
        cycles_per_iteration=result.cycles / kc,
        efficiency=(flops / result.cycles) / chip.core.flops_per_cycle,
        pipeline=result,
        load_latencies=histogram,
        engine=engine,
    )


def _run_interpreted(
    kernel,
    a_sliver: "np.ndarray",
    b_sliver: "np.ndarray",
    c_tile: Optional["np.ndarray"],
    chip: ChipParams,
    h: MemoryHierarchy,
    core_id: int,
    hw_late: float,
    timing_bases: Optional[Dict[int, int]],
) -> TimedRun:
    """The interpreter oracle (``engine="interpreted"``).

    Executes every dynamic instruction functionally while walking its
    loads and prefetches through ``h`` at their timed addresses (demand
    A/B loads also train the hardware prefetcher), then times the
    recorded stream on the scoreboard. The operand layout and the
    prologue/body/epilogue driving are the kernel style's
    (:func:`repro.kernels.execute.drive_micro_tile`): for the
    k-vectorized style the preamble's A/B loads are timed and observed
    by the prefetcher like body loads, and the epilogue's
    ``faddp``/``str`` pairs go through the scoreboard.
    """
    line = chip.l1d.line_bytes
    memory = Memory()
    state = MachineState()
    executor = Executor(state, memory)
    prefetcher = SequentialPrefetcher(
        hw_late, lambda ln, level: h.prefetch_line(core_id, ln, level)
    )

    stream: List[Instruction] = []
    latencies: List[int] = []
    histogram: Dict[int, int] = {}
    # Timed address = functional address + the stream's relocation.
    shift = {
        reg: timing_bases[reg] - base
        for reg, base in ((A_POINTER.index, A_BASE),
                          (B_POINTER.index, B_BASE),
                          (C_POINTER.index, C_BASE))
        if timing_bases is not None and reg in timing_bases
    }

    def timed_line(instr, offset: int = 0) -> int:
        addr = state.pointer(instr.base) + offset
        return (addr + shift.get(instr.base.index, 0)) // line

    def run(program, times: int = 1) -> None:
        for instr in list(program) * times:
            lat = 0
            if isinstance(instr, Ldr):
                ln = timed_line(instr)
                lat = h.access_line(core_id, ln).latency_cycles
                if instr.tag in ("A", "B"):
                    prefetcher.observe(ln, instr.tag)
                histogram[lat] = histogram.get(lat, 0) + 1
            elif isinstance(instr, Prfm):
                h.prefetch_line(
                    core_id, timed_line(instr, instr.offset),
                    instr.target.level,
                )
            executor.execute(instr)
            stream.append(instr)
            latencies.append(lat)

    c = drive_micro_tile(
        kernel, a_sliver, b_sliver, c_tile, memory, state, run
    )
    result = ScoreboardCore(chip.core).run(
        stream, latency_fn=lambda _instr, i: latencies[i]
    )
    return _timed_run(
        kernel, a_sliver.shape[0], chip, result, c, histogram, "interpreted"
    )


def _run_compiled_micro_tile(
    compiled: CompiledKernel,
    a_sliver: "np.ndarray",
    b_sliver: "np.ndarray",
    c_tile: Optional["np.ndarray"],
    chip: ChipParams,
    h: MemoryHierarchy,
    core_id: int,
    hw_late: float,
    timing_bases: Optional[Dict[int, int]],
) -> TimedRun:
    """The compiled replay of one micro-tile (see ``engine="compiled"``).

    Values, addresses and issue timing all come from per-kernel templates:
    the C tile from the ordered accumulation, the load latencies from one
    batched hierarchy replay of the relocated tile trace, the pipeline
    counters from the template scoreboard. Bit-identical to the
    interpreted path by construction (and by differential test).
    """
    kernel = compiled.kernel
    kc = a_sliver.shape[0]
    n_bodies = kc // kernel.plan.unroll

    bases = timing_bases or {}
    trace = compiled.tile_trace(
        n_bodies,
        bases.get(A_POINTER.index, A_BASE),
        bases.get(B_POINTER.index, B_BASE),
        bases.get(C_POINTER.index, C_BASE),
        hw_late,
        chip.l1d.line_bytes,
    )
    _levels, lat_arr = h.run_batch_levels(core_id, trace)
    values, counts = np.unique(lat_arr, return_counts=True)
    histogram = {int(v): int(n) for v, n in zip(values, counts)}

    result = ScoreboardCore(chip.core).run_compiled(
        compiled.segments(n_bodies),
        lat_arr,
        memo=compiled.memo_for(chip.core),
    )
    return _timed_run(
        kernel, kc, chip, result,
        compiled.compute_tile(a_sliver, b_sliver, c_tile),
        histogram, "compiled",
    )


@dataclass
class GebpTimedRun:
    """Result of a timed full-GEBP run.

    Attributes:
        c_panel: The computed ``mc x nc`` C panel.
        cycles: Total cycles across all micro-tiles.
        cycles_per_iteration: Average cycles per k-iteration.
        efficiency: Fraction of the core's FMA peak (padding counted as
            overhead, so ragged panels show their real cost).
        tile_cycles: Per-(i, j) micro-tile cycle counts.
        engine: The engine every micro-tile ran on (``"compiled"`` or
            ``"interpreted"`` — never ``"auto"``).
    """

    c_panel: "np.ndarray"
    cycles: int
    cycles_per_iteration: float
    efficiency: float
    tile_cycles: List[int]
    engine: str = "interpreted"


def _line_disjoint_bases(
    regions: Sequence[Tuple[int, int]], line: int
) -> List[int]:
    """Bases for ``(base, nbytes)`` regions such that no two share a line.

    Regions are placed in order. Each keeps its requested base unless it
    shares a line with one placed before it; it then moves up to the
    first line past that region, and on until it is clear. A layout that
    is already disjoint keeps every address.
    """
    placed: List[Tuple[int, int]] = []  # [first line, end line)
    bases: List[int] = []
    for base, nbytes in regions:
        while True:
            lo, hi = base // line, -(-(base + nbytes) // line)
            clash = [h for l, h in placed if lo < h and l < hi]
            if not clash:
                break
            base = clash[0] * line
        placed.append((lo, hi))
        bases.append(base)
    return bases


def _run_gebp_cores(
    kernel: GeneratedKernel,
    cores: Sequence[int],
    packed_a: Dict[int, "np.ndarray"],
    packed_b: "np.ndarray",
    panels: Dict[int, "np.ndarray"],
    a_bases: Dict[int, int],
    c_bases: Dict[int, int],
    chip: ChipParams,
    h: MemoryHierarchy,
    hw_late: float,
    engine: str,
    metrics: Optional[MetricsRegistry],
) -> List[GebpTimedRun]:
    """The GEBP tile loop behind :func:`run_timed_gebp` and
    :func:`run_timed_gebp_dual`.

    Establishes GEBP's precondition (each core's packed A block in its
    module L2 at ``a_bases[core]``, the shared packed B panel in the L3),
    then runs every core's micro-tiles interleaved tile by tile on ``h``,
    each sliver and C tile at its true offset in the timed address space
    (C panels column-major at ``c_bases[core]``). The B panel sits at
    ``B_BASE``; an A block or C panel that would share a line with a
    region placed before it moves up past it (:func:`_line_disjoint_bases`).
    ``panels`` are updated in place. Returns one :class:`GebpTimedRun`
    per entry of ``cores``.
    """
    mr, nr = kernel.spec.mr, kernel.spec.nr
    na, kc, _ = packed_a[cores[0]].shape
    nb = packed_b.shape[0]
    mc, nc = na * mr, nb * nr
    line = chip.l1d.line_bytes
    wa, wb = stream_widths(kernel)
    a_sliver_bytes = kc * wa * DOUBLE_BYTES
    b_sliver_bytes = kc * wb * DOUBLE_BYTES
    regions = [(B_BASE, nb * b_sliver_bytes)]
    for cid in cores:
        regions += [(a_bases[cid], na * a_sliver_bytes),
                    (c_bases[cid], mc * nc * DOUBLE_BYTES)]
    _b_base, *placed = _line_disjoint_bases(regions, line)
    a_bases = dict(zip(cores, placed[0::2]))
    c_bases = dict(zip(cores, placed[1::2]))
    # GEBP's precondition: packing placed A in the L2 and B in the L3.
    for cid in cores:
        warm_region(
            h.l2[h.module_of(cid)], a_bases[cid], na * a_sliver_bytes, line
        )
    if h.l3 is not None:
        warm_region(h.l3, B_BASE, nb * b_sliver_bytes, line)
    h.reset_stats()

    tile_cycles: Dict[int, List[int]] = {cid: [] for cid in cores}
    for j in range(nb):
        for i in range(na):
            rows = slice(i * mr, (i + 1) * mr)
            cols = slice(j * nr, (j + 1) * nr)
            for cid in cores:
                bases = {
                    A_POINTER.index: a_bases[cid] + i * a_sliver_bytes,
                    B_POINTER.index: B_BASE + j * b_sliver_bytes,
                    C_POINTER.index: c_bases[cid]
                    + (j * nr * mc + i * mr) * DOUBLE_BYTES,
                }
                run = run_timed_micro_tile(
                    kernel,
                    packed_a[cid][i],
                    packed_b[j],
                    panels[cid][rows, cols],
                    chip=chip,
                    hierarchy=h,
                    core_id=cid,
                    hw_late=hw_late,
                    warm_l2=False,
                    timing_bases=bases,
                    engine=engine,
                    metrics=metrics,
                )
                panels[cid][rows, cols] = run.c_tile
                tile_cycles[cid].append(run.cycles)

    iters = na * nb * kc
    flops = 2 * mc * nc * kc
    out = []
    for cid in cores:
        total = sum(tile_cycles[cid])
        out.append(
            GebpTimedRun(
                c_panel=panels[cid],
                cycles=total,
                cycles_per_iteration=total / iters,
                efficiency=(flops / total) / chip.core.flops_per_cycle,
                tile_cycles=tile_cycles[cid],
                engine=select_timed_engine(engine),
            )
        )
    return out


def run_timed_gebp_dual(
    kernel: GeneratedKernel,
    packed_a0: "np.ndarray",
    packed_a1: "np.ndarray",
    packed_b: "np.ndarray",
    chip: ChipParams = XGENE,
    cores: Tuple[int, int] = (0, 1),
    hw_late: float = 0.25,
    hierarchy: Optional[MemoryHierarchy] = None,
    engine: str = "auto",
    metrics: Optional[MetricsRegistry] = None,
) -> Tuple[GebpTimedRun, GebpTimedRun]:
    """Two cores of one module run their GEBPs interleaved tile-by-tile.

    This is the eq.-(19) experiment at instruction level: each core owns
    its packed A block, both share the packed B panel, and both A blocks
    compete for the *same physical L2*. With the serial mc the two blocks
    overflow it and the A streams fall back to L3/DRAM latencies (visible
    in the load histograms); with the parallel mc they coexist — the
    Table VI phenomenon reproduced cycle by cycle.

    Args:
        kernel: Generated even-tile kernel (both cores run it).
        packed_a0, packed_a1: Each core's packed A block ``(na, kc, mr)``.
        packed_b: The shared packed B panel ``(nb, kc, nr)``.
        chip: Architecture.
        cores: The two core ids; must live on one module.
        hw_late: Hardware-prefetcher lateness.
        hierarchy: Pass a fresh hierarchy to inspect its statistics
            afterwards (the shared L2's miss counts are where the
            overflow shows; the run's timing is optimistic because the
            timed executor treats prefetches as always timely).
        engine: One of :data:`TIMED_ENGINES`, forwarded to every
            micro-tile run.

    Returns:
        One :class:`GebpTimedRun` per core (C panels start at zero).
    """
    if packed_a0.shape != packed_a1.shape:
        raise SimulationError("both cores need equally-shaped A blocks")
    h = hierarchy or MemoryHierarchy(chip)
    if h.module_of(cores[0]) != h.module_of(cores[1]):
        raise SimulationError("cores must share a module (and its L2)")
    na = packed_a0.shape[0]
    panel = (na * kernel.spec.mr, packed_b.shape[0] * kernel.spec.nr)
    r0, r1 = _run_gebp_cores(
        kernel,
        cores,
        {cores[0]: packed_a0, cores[1]: packed_a1},
        packed_b,
        {cid: np.zeros(panel) for cid in cores},
        {cores[0]: A_BASE, cores[1]: A_BASE + (1 << 26)},
        {cores[0]: 0x4000000, cores[1]: 0x5000000},
        chip, h, hw_late, engine, metrics,
    )
    return r0, r1


def run_timed_gebp(
    kernel: GeneratedKernel,
    packed_a: "np.ndarray",
    packed_b: "np.ndarray",
    c_panel: Optional["np.ndarray"] = None,
    chip: ChipParams = XGENE,
    core_id: int = 0,
    hw_late: float = 0.25,
    engine: str = "auto",
    metrics: Optional[MetricsRegistry] = None,
) -> GebpTimedRun:
    """Execute and time a whole GEBP (layers 5-7) on one simulated core.

    The packed buffers live at their true offsets in the timed address
    space — A slivers consecutive in one L2-resident block, B slivers
    consecutive in one panel — so cross-tile cache reuse (the B sliver
    surviving across the A-sliver loop, A slivers evicting each other) is
    captured exactly.

    Args:
        kernel: Generated even-tile kernel.
        packed_a: Output of :func:`repro.gemm.packing.pack_a`,
            ``(na, kc, mr)``.
        packed_b: Output of :func:`repro.gemm.packing.pack_b`,
            ``(nb, kc, nr)``.
        c_panel: Initial ``na*mr x nb*nr`` C panel (zeros when omitted).
        chip: Architecture.
        core_id: Executing core.
        hw_late: Hardware-prefetcher lateness.
        engine: One of :data:`TIMED_ENGINES`, forwarded to every
            micro-tile run.
    """
    spec = kernel.spec
    na, kc, mr_in = packed_a.shape
    nb, kc_b, nr_in = packed_b.shape
    if (mr_in, nr_in) != (spec.mr, spec.nr) or kc != kc_b:
        raise SimulationError("packed buffers do not match the kernel")
    mc, nc = na * spec.mr, nb * spec.nr
    if c_panel is None:
        c_panel = np.zeros((mc, nc))
    c_panel = np.array(c_panel, dtype=np.float64)
    if c_panel.shape != (mc, nc):
        raise SimulationError(f"C panel must be {mc}x{nc}")
    (run,) = _run_gebp_cores(
        kernel, (core_id,), {core_id: packed_a}, packed_b,
        {core_id: c_panel}, {core_id: A_BASE}, {core_id: 0x2000000},
        chip, MemoryHierarchy(chip), hw_late, engine, metrics,
    )
    return run
