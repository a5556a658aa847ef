"""Experiment runners — one per table/figure of the paper's evaluation.

Each exhibit has one data function, which regenerates the data behind it
as a plain structure, and one renderer, which turns that data plus the
sweep sizes into the exhibit's text. :data:`EXHIBITS` pairs them under
the exhibit's file name. ``repro experiments`` and the
``benchmarks/bench_fig*``/``bench_table*`` targets both write
``EXHIBITS[name].render(...)``, so at the committed sweep (256..6400
step 512) either one reproduces ``benchmarks/results/<name>.txt`` byte
for byte. EXPERIMENTS.md records
the outcomes against the published values.

The paper sweeps square matrices from 256 to 6400 in steps of 128. The
data functions default to steps of 256 (:data:`DEFAULT_SIZES`); the
committed exhibits use steps of 512 to keep bench runtimes short without
changing any conclusion (pass ``step=128`` for the full grid).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.arch.params import ChipParams
from repro.arch.presets import XGENE
from repro.blocking.cache_blocking import (
    CacheBlocking,
    goto_blocking,
    solve_cache_blocking,
)
from repro.blocking.register_blocking import RegisterBlockingProblem
from repro.analysis.report import format_series, format_table
from repro.kernels.kernel_spec import KERNEL_8X6, PAPER_KERNELS
from repro.kernels.rotation import paper_plan, solve_rotation
from repro.kernels.scheduling import schedule_body
from repro.kernels.variants import PAPER_COMPARISON, get_variant
from repro.sim.gebp_cachesim import simulate_gebp_cache
from repro.sim.gemm_sim import GemmPerformance, GemmSimulator
from repro.sim.microbench import MicrobenchRow, run_microbench

DEFAULT_SIZES = tuple(range(256, 6401, 256))

#: Paper-published reference values for EXPERIMENTS.md comparisons.
PAPER_TABLE_V = {
    ("OpenBLAS-8x6", 1): (0.872, 0.863),
    ("OpenBLAS-8x4", 1): (0.846, 0.836),
    ("OpenBLAS-4x4", 1): (0.782, 0.776),
    ("ATLAS-5x5", 1): (0.809, 0.795),
    ("OpenBLAS-8x6", 8): (0.853, 0.832),
    ("OpenBLAS-8x4", 8): (0.810, 0.777),
    ("OpenBLAS-4x4", 8): (0.737, 0.723),
    ("ATLAS-5x5", 8): (0.792, 0.751),
}


def table1_rotation() -> Dict[str, List[int]]:
    """Table I: the 8x6 register-rotation assignment (paper's cycle)."""
    return {slot: regs for slot, regs in paper_plan().table()}


def _render_table1(table: Dict[str, List[int]], sizes) -> str:
    return format_table(
        ["slot"] + [f"#{i}" for i in range(8)],
        [[slot] + regs for slot, regs in table.items()],
        title="Table I: register rotation (paper cycle, distance "
        f"{paper_plan().min_distance}; exhaustive optimum distance "
        f"{solve_rotation(KERNEL_8X6).min_distance})",
    )


def fig5_surface() -> List[Tuple[int, int, float]]:
    """Fig. 5: gamma over (mr, nrf) with the optimal nr at each point."""
    return RegisterBlockingProblem().surface()


def _render_fig5(points: List[Tuple[int, int, float]], sizes) -> str:
    nrfs = sorted({nrf for _, nrf, _ in points})
    gamma = {(mr, nrf): g for mr, nrf, g in points}
    return format_table(
        ["gamma"] + [f"nrf={n}" for n in nrfs],
        [[f"mr={mr}"] + [gamma.get((mr, nrf), 0.0) for nrf in nrfs]
         for mr in sorted({mr for mr, _, _ in points})],
        title="Fig. 5: register-kernel gamma surface (peak 6.857 at "
        "mr=8, nrf=6)",
    )


@dataclass(frozen=True)
class ScheduleReport:
    """Fig. 6/7 data: distances achieved by each allocation scheme."""

    rotation_distance_paper: int
    rotation_distance_solved: int
    schedule_distance_paper: int
    schedule_distance_solved: int


def fig7_schedule() -> ScheduleReport:
    """Figs. 6/7: rotation and load-scheduling distances for 8x6."""
    pp = paper_plan()
    sp = solve_rotation(KERNEL_8X6)
    return ScheduleReport(
        rotation_distance_paper=pp.min_distance,
        rotation_distance_solved=sp.min_distance,
        schedule_distance_paper=schedule_body(
            KERNEL_8X6, pp
        ).min_load_use_distance,
        schedule_distance_solved=schedule_body(
            KERNEL_8X6, sp
        ).min_load_use_distance,
    )


def _render_fig7(rep: ScheduleReport, sizes) -> str:
    return format_table(
        ["scheme", "rotation distance (eq. 12)", "load-use distance (eq. 13)"],
        [["paper Table I cycle", rep.rotation_distance_paper,
          rep.schedule_distance_paper],
         ["exhaustive optimum", rep.rotation_distance_solved,
          rep.schedule_distance_solved]],
        title="Figs. 6/7: allocation & scheduling distances "
        "(paper: 7 and 9)",
    )


def fig8_codegen(kernel: str = "OpenBLAS-8x6") -> str:
    """Fig. 8: the generated register-kernel assembly listing."""
    return get_variant(kernel).body.to_text()


def _render_fig8(listing: str, sizes) -> str:
    lines = listing.splitlines()
    return (f"Fig. 8: 8x6 register kernel (first 40 of {len(lines)} "
            "instructions)\n" + "\n".join(lines[:40]))


def table3_blocksizes(chip: ChipParams = XGENE) -> List[Tuple[str, str, str]]:
    """Table III: derived block sizes per kernel for 1 and 8 threads."""
    rows = []
    for mr, nr in ((8, 6), (8, 4), (4, 4)):
        serial = solve_cache_blocking(chip, mr, nr, threads=1)
        parallel = solve_cache_blocking(chip, mr, nr, threads=8)
        rows.append((f"{mr}x{nr}", str(serial), str(parallel)))
    return rows


def _render_table3(rows: List[Tuple[str, str, str]], sizes) -> str:
    return format_table(
        ["kernel", "one thread (mr x nr x kc x mc x nc)", "eight threads"],
        rows,
        title="Table III: derived block sizes (all entries match the paper)",
    )


def table4_microbench() -> List[MicrobenchRow]:
    """Table IV: efficiencies under varying LDR:FMLA ratios."""
    return run_microbench()


def _render_table4(rows: List[MicrobenchRow], sizes) -> str:
    return format_table(
        ["LDR:FMLA", "structural (%)", "model (%)", "paper (%)"],
        [[r.ratio_label, r.structural_efficiency * 100,
          r.model_efficiency * 100, r.paper_efficiency * 100] for r in rows],
        title="Table IV: micro-benchmark efficiencies",
    )


@dataclass
class EfficiencySummary:
    """One Table V cell group: peak and average efficiency."""

    kernel: str
    threads: int
    peak: float
    average: float
    paper_peak: float = float("nan")
    paper_average: float = float("nan")


def sweep(
    kernel: str,
    threads: int,
    sizes: Sequence[int] = DEFAULT_SIZES,
    sim: Optional[GemmSimulator] = None,
    blocking: Optional[CacheBlocking] = None,
) -> List[GemmPerformance]:
    """Square-matrix sweep for one kernel/thread configuration."""
    sim = sim or GemmSimulator()
    return [
        sim.simulate(kernel, s, s, s, threads=threads, blocking=blocking)
        for s in sizes
    ]


def table5_efficiency(
    sizes: Sequence[int] = DEFAULT_SIZES,
    sim: Optional[GemmSimulator] = None,
) -> List[EfficiencySummary]:
    """Table V: peak/average efficiency of the four implementations."""
    sim = sim or GemmSimulator()
    out = []
    for threads in (1, 8):
        for kernel in PAPER_COMPARISON:
            results = sweep(kernel, threads, sizes, sim)
            effs = [r.efficiency for r in results]
            paper = PAPER_TABLE_V.get((kernel, threads), (float("nan"),) * 2)
            out.append(
                EfficiencySummary(
                    kernel=kernel,
                    threads=threads,
                    peak=max(effs),
                    average=sum(effs) / len(effs),
                    paper_peak=paper[0],
                    paper_average=paper[1],
                )
            )
    return out


def _render_table5(rows: List[EfficiencySummary], sizes) -> str:
    return format_table(
        ["impl", "threads", "peak %", "paper peak %", "avg %", "paper avg %"],
        [[r.kernel, r.threads, r.peak * 100, r.paper_peak * 100,
          r.average * 100, r.paper_average * 100] for r in rows],
        title="Table V: DGEMM efficiencies (model vs paper)",
    )


def _gflops_series(
    runs: Dict[str, List[GemmPerformance]], sizes, title: str
) -> str:
    """Render named Gflops sweeps against their matrix sizes."""
    series = [(name, [r.gflops for r in rs]) for name, rs in runs.items()]
    return format_series(list(sizes), series, x_label="size", title=title)


def fig11_serial_sweep(
    sizes: Sequence[int] = DEFAULT_SIZES,
) -> Dict[str, List[GemmPerformance]]:
    """Fig. 11: Gflops vs size, four implementations, one thread."""
    sim = GemmSimulator()
    return {k: sweep(k, 1, sizes, sim) for k in PAPER_COMPARISON}


def fig12_parallel_sweep(
    sizes: Sequence[int] = DEFAULT_SIZES,
) -> Dict[str, List[GemmPerformance]]:
    """Fig. 12: Gflops vs size, four implementations, eight threads."""
    sim = GemmSimulator()
    return {k: sweep(k, 8, sizes, sim) for k in PAPER_COMPARISON}


def fig13_rotation_ablation(
    sizes: Sequence[int] = DEFAULT_SIZES,
) -> Dict[str, Dict[str, List[GemmPerformance]]]:
    """Fig. 13: 8x6 with and without register rotation, 1 and 8 threads."""
    sim = GemmSimulator()
    return {
        "serial": {
            "OpenBLAS-8x6": sweep("OpenBLAS-8x6", 1, sizes, sim),
            "OpenBLAS-8x6w/oRR": sweep("OpenBLAS-8x6-noRR", 1, sizes, sim),
        },
        "parallel": {
            "OpenBLAS-8x6": sweep("OpenBLAS-8x6", 8, sizes, sim),
            "OpenBLAS-8x6w/oRR": sweep("OpenBLAS-8x6-noRR", 8, sizes, sim),
        },
    }


def _render_fig13(
    settings: Dict[str, Dict[str, List[GemmPerformance]]], sizes
) -> str:
    return "\n\n".join(
        _gflops_series(curves, sizes, f"Fig. 13 ({setting}): 8x6 with vs "
                       "without rotation")
        for setting, curves in settings.items()
    )


def fig14_scaling(
    sizes: Sequence[int] = DEFAULT_SIZES,
    thread_counts: Sequence[int] = (1, 2, 4, 8),
) -> Dict[int, List[GemmPerformance]]:
    """Fig. 14: 8x6 performance under 1/2/4/8 threads."""
    sim = GemmSimulator()
    return {t: sweep("OpenBLAS-8x6", t, sizes, sim) for t in thread_counts}


def _render_fig14(runs: Dict[int, List[GemmPerformance]], sizes) -> str:
    labelled = {
        f"{t} threads {solve_cache_blocking(XGENE, 8, 6, threads=t)}": rs
        for t, rs in sorted(runs.items())
    }
    return _gflops_series(
        labelled, sizes, "Fig. 14: OpenBLAS-8x6 under four thread counts"
    )


#: Table VI's explicit block-size configurations (kc, mc, nc).
TABLE_VI_SERIAL = ((512, 56, 1920), (320, 96, 1536))
TABLE_VI_PARALLEL = (
    (512, 24, 1792),
    (512, 24, 1920),
    (512, 56, 1792),
    (512, 56, 1920),
)


def table6_blocksize_sensitivity(
    sizes: Sequence[int] = DEFAULT_SIZES,
) -> List[Tuple[str, str, float, float]]:
    """Table VI: 8x6 efficiency under alternative kc x mc x nc choices."""
    sim = GemmSimulator()
    rows = []
    for threads, configs in ((1, TABLE_VI_SERIAL), (8, TABLE_VI_PARALLEL)):
        for kc, mc, nc in configs:
            blocking = CacheBlocking(
                mr=8, nr=6, kc=kc, mc=mc, nc=nc, k1=1, k2=2, k3=1
            )
            results = sweep(
                "OpenBLAS-8x6", threads, sizes, sim, blocking=blocking
            )
            effs = [r.efficiency for r in results]
            rows.append(
                (
                    "serial" if threads == 1 else "8 threads",
                    f"{kc}x{mc}x{nc}",
                    max(effs),
                    sum(effs) / len(effs),
                )
            )
    return rows


def _render_table6(rows: List[Tuple[str, str, float, float]], sizes) -> str:
    return format_table(
        ["setting", "kc x mc x nc", "peak %", "avg %"],
        [[s, cfg, p * 100, a * 100] for s, cfg, p, a in rows],
        title="Table VI: 8x6 efficiency under different block sizes "
        "(derived sizes in the paper: 512x56x1920 serial, "
        "512x24x1792 parallel)",
    )


def fig15_l1_loads(
    sizes: Sequence[int] = DEFAULT_SIZES,
) -> Dict[str, List[float]]:
    """Fig. 15: L1-dcache-load counts vs size for the OpenBLAS kernels."""
    sim = GemmSimulator()
    out: Dict[str, List[float]] = {}
    for threads in (1, 8):
        for kernel in ("OpenBLAS-8x6", "OpenBLAS-8x4", "OpenBLAS-4x4"):
            key = f"{kernel} ({threads}T)"
            out[key] = [
                sim.simulate(kernel, s, s, s, threads=threads).l1_loads
                for s in sizes
            ]
    return out


def _render_fig15(loads: Dict[str, List[float]], sizes) -> str:
    return format_series(
        list(sizes),
        [(name, [v / 1e10 for v in vals]) for name, vals in loads.items()],
        x_label="size",
        title="Fig. 15: L1-dcache-loads (x 10^10)",
    )


#: Table VII's published miss rates for reference.
PAPER_TABLE_VII = {
    ("8x6", 1): 0.052,
    ("8x6", 8): 0.036,
    ("8x4", 1): 0.043,
    ("8x4", 8): 0.032,
    ("4x4", 1): 0.057,
    ("4x4", 8): 0.050,
}


def table7_miss_rates(
    chip: ChipParams = XGENE,
    engine: str = "auto",
    seed: Optional[int] = None,
    nc_slice: Optional[int] = None,
) -> List[Tuple[str, int, float, float]]:
    """Table VII: L1 load miss rates from the event-accurate cache sim.

    ``engine`` selects the replay path (``"auto"``/``"batched"`` for the
    vectorized sweep, ``"scalar"`` for the per-access oracle); both are
    bit-identical, the batched one is just an order of magnitude faster.
    ``seed`` pins the victim RNG on RANDOM-replacement chips (it is what
    makes batched-vs-scalar comparisons meaningful there); ``nc_slice``
    truncates the replayed panel for fast differential tests.
    """
    rows = []
    for name, (mr, nr) in (("8x6", (8, 6)), ("8x4", (8, 4)), ("4x4", (4, 4))):
        spec = next(s for s in PAPER_KERNELS if s.name == name)
        for threads in (1, 8):
            blk = solve_cache_blocking(chip, mr, nr, threads=threads)
            result = simulate_gebp_cache(
                spec, blk, chip=chip, engine=engine, seed=seed,
                nc_slice=nc_slice,
            )
            rows.append(
                (
                    name,
                    threads,
                    result.l1_load_miss_rate,
                    PAPER_TABLE_VII[(name, threads)],
                )
            )
    return rows


def _render_table7(rows: List[Tuple[str, int, float, float]], sizes) -> str:
    return format_table(
        ["kernel", "threads", "miss rate %", "paper %"],
        [[k, t, mr * 100, pr * 100] for k, t, mr, pr in rows],
        title="Table VII: L1-dcache load miss rates (cache simulation)",
    )


@dataclass(frozen=True)
class Exhibit:
    """One paper exhibit: its data function and the renderer of its text.

    ``render(data, sizes)`` returns the exhibit's text without the
    trailing newline; ``sizes`` is the x axis of the swept exhibits and is
    ignored by the others. ``swept`` says whether ``data`` takes the
    sweep's ``sizes``.
    """

    data: Callable[..., Any]
    render: Callable[[Any, Sequence[int]], str]
    swept: bool = False

    def run(self, sizes: Sequence[int]) -> Any:
        """Regenerate the exhibit's data (over ``sizes`` if swept)."""
        return self.data(sizes=sizes) if self.swept else self.data()


#: Every paper exhibit under its ``benchmarks/results/<name>.txt`` name,
#: in paper order.
EXHIBITS: Dict[str, Exhibit] = {
    "table1_rotation": Exhibit(table1_rotation, _render_table1),
    "fig5_surface": Exhibit(fig5_surface, _render_fig5),
    "fig7_schedule": Exhibit(fig7_schedule, _render_fig7),
    "fig8_codegen": Exhibit(fig8_codegen, _render_fig8),
    "table3_blocksizes": Exhibit(table3_blocksizes, _render_table3),
    "table4_microbench": Exhibit(table4_microbench, _render_table4),
    "table5_efficiency": Exhibit(table5_efficiency, _render_table5, True),
    "fig11_serial_sweep": Exhibit(fig11_serial_sweep, partial(
        _gflops_series, title="Fig. 11: DGEMM Gflops vs size (1 thread)"
    ), True),
    "fig12_parallel_sweep": Exhibit(fig12_parallel_sweep, partial(
        _gflops_series, title="Fig. 12: DGEMM Gflops vs size (8 threads)"
    ), True),
    "fig13_rotation_ablation": Exhibit(
        fig13_rotation_ablation, _render_fig13, True
    ),
    "fig14_scaling": Exhibit(fig14_scaling, _render_fig14, True),
    "table6_blocksize_sensitivity": Exhibit(
        table6_blocksize_sensitivity, _render_table6, True
    ),
    "fig15_l1_loads": Exhibit(fig15_l1_loads, _render_fig15, True),
    "table7_miss_rates": Exhibit(table7_miss_rates, _render_table7),
}
