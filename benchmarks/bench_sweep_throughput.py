"""Throughput of the full sweep pipeline after closing the engine gaps.

Before this harness existed, three sweep populations were stuck on slow
paths: ATLAS odd-tile and k-vectorized kernels ran timed execution on
the interpreter (the compiled engine rejected them), write-through
hierarchies forced the cache replay onto the scalar per-access walk, and
every sweep point re-simulated its packing warm-up from a cold
hierarchy. This bench replays representative slices of each population
through the old path and the new one and checks:

- every observable is **bit-identical** between the paths: timed cycles,
  C-tile bits and load-latency histograms for the timed rows;
  ``GebpCacheResult`` counters for the cache rows — the new paths are
  faster, never different;
- the batched engine takes zero per-access scalar fallbacks on the
  write-through rows;
- the aggregate speedup clears the floor the work exists for
  (>= 5x on the full sweep; >= 3x in ``--smoke`` mode, whose short
  slices amortize less).

Runs standalone (``python bench_sweep_throughput.py [--smoke]`` — the CI
smoke gate) or under pytest-benchmark with the rest of the harness. Both
the full run and the pytest entry write the committed exhibit,
``benchmarks/results/baseline_sweep.{txt,json}``.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

import numpy as np
from _harness import PairBench, PairRow, selected, time_each

from repro.arch import XGENE
from repro.arch.params import WritePolicy
from repro.blocking import CacheBlocking, solve_cache_blocking
from repro.kernels import get_variant
from repro.kernels.kernel_spec import PAPER_KERNELS
from repro.memory import MemoryHierarchy
from repro.sim import run_timed_micro_tile, simulate_gebp_cache
from repro.workloads.base import clear_warm_memo

#: (kernel variant, kc multiplier) — the compiled-tail population.
TIMED_FULL = (("ATLAS-5x5", 14), ("ATLAS-5x5-kvec", 14))
TIMED_SMOKE = (("ATLAS-5x5", 4),)

#: (paper kernel, threads) replayed on a write-through XGENE.
WT_FULL = (("8x6", 1), ("4x4", 8))
WT_SMOKE = (("4x4", 8),)
WT_SMOKE_NC_SLICE = 12

#: (kernel variant, kc, mc, nc multipliers) — ascending-nc sweeps.
INCR_FULL = (
    ("OpenBLAS-8x6", 128, 64, (2, 4, 6, 8, 10)),
    ("ATLAS-5x5", 128, 64, (2, 4, 6, 8, 10)),
)
INCR_SMOKE = (("OpenBLAS-8x6", 64, 32, (2, 4, 6)),)

MIN_SPEEDUP_FULL = 5.0
MIN_SPEEDUP_SMOKE = 3.0


def _row(section: str, label: str, secs, identical: bool,
         fallback: int = 0) -> PairRow:
    return PairRow(
        key=f"{section}:{label}", cells=(section, label),
        old_s=secs[0], new_s=secs[1], identical=identical,
        doc={"fallback": fallback}, fallback=fallback,
    )


def _timed_fingerprint(run) -> tuple:
    return (
        run.cycles,
        run.cycles_per_iteration,
        run.efficiency,
        tuple(sorted(run.load_latencies.items())),
        run.c_tile.tobytes(),
    )


def timed_rows(points: Sequence[Tuple[str, int]]):
    """Interpreter (the only pre-gap engine for these kernels) vs compiled."""
    rows = []
    for name, kc_mult in points:
        kernel = get_variant(name)
        kc = kernel.plan.unroll * kc_mult
        rng = np.random.default_rng(7)
        a = rng.standard_normal((kc, kernel.spec.mr))
        b = rng.standard_normal((kc, kernel.spec.nr))
        runs, secs = time_each(
            ("interpreted", "compiled"),
            lambda e: run_timed_micro_tile(kernel, a, b, engine=e),
        )
        old, new = map(_timed_fingerprint, runs)
        rows.append(_row("timed", f"{name} kc={kc}", secs, old == new))
    return rows


def _write_through_chip():
    return dataclasses.replace(
        XGENE,
        l1d=dataclasses.replace(
            XGENE.l1d, write_policy=WritePolicy.WRITE_THROUGH
        ),
        l2=dataclasses.replace(
            XGENE.l2, write_policy=WritePolicy.WRITE_THROUGH
        ),
    )


def wt_rows(
    points: Sequence[Tuple[str, int]], nc_slice: Optional[int] = None,
):
    """Scalar walk (the pre-gap forced path for write-through) vs batched."""
    chip = _write_through_chip()
    rows = []
    for name, threads in points:
        spec = next(s for s in PAPER_KERNELS if s.name == name)
        blk = solve_cache_blocking(XGENE, spec.mr, spec.nr, threads=threads)
        hs = {e: MemoryHierarchy(chip, seed=0) for e in ("scalar", "batched")}
        (scalar, batched), secs = time_each(
            hs, lambda e: simulate_gebp_cache(
                spec, blk, chip=chip, hierarchy=hs[e],
                nc_slice=nc_slice, engine=e,
            ),
        )
        rows.append(_row(
            "write-through", f"{name} t={threads}", secs,
            dataclasses.astuple(scalar) == dataclasses.astuple(batched),
            hs["batched"].batched_fallback_accesses(),
        ))
    return rows


def incremental_rows(
    points: Sequence[Tuple[str, int, int, Tuple[int, ...]]],
):
    """Cold warm-up at every sweep point vs warm-state carry across points."""
    rows = []
    for name, kc, mc, mults in points:
        spec = get_variant(name).spec
        blocks = [
            CacheBlocking(mr=spec.mr, nr=spec.nr, kc=kc, mc=mc,
                          nc=spec.nr * m, k1=1, k2=1, k3=1)
            for m in mults
        ]

        def sweep(incremental: bool):
            clear_warm_memo()
            try:
                return [
                    dataclasses.astuple(simulate_gebp_cache(
                        spec, blk, chip=XGENE, nc_slice=blk.nc,
                        hierarchy=(
                            None if incremental
                            else MemoryHierarchy(XGENE, seed=0)
                        ),
                        engine="batched", seed=0,
                    ))
                    for blk in blocks
                ]
            finally:
                clear_warm_memo()

        (cold, warm), secs = time_each((False, True), sweep)
        rows.append(_row(
            "incremental", f"{name} kc={kc} mc={mc} x{len(mults)}nc", secs,
            cold == warm,
        ))
    return rows


class SweepBench(PairBench):
    command = "bench_sweep_throughput"
    text_name = json_name = "baseline_sweep"
    labels = ("full sweep", "smoke")
    engines = selected(old="interpreted/scalar/cold",
                       new="compiled/batched/incremental")
    pair = ("old", "new")
    floors = (MIN_SPEEDUP_FULL, MIN_SPEEDUP_SMOKE)
    title = "Full-sweep pipeline, old paths vs new"
    lead = ("section", "slice")
    claim = "all observables bit-identical, zero scalar fallbacks"

    def run(self, smoke: bool):
        if smoke:
            return (
                timed_rows(TIMED_SMOKE)
                + wt_rows(WT_SMOKE, nc_slice=WT_SMOKE_NC_SLICE)
                + incremental_rows(INCR_SMOKE)
            )
        return (
            timed_rows(TIMED_FULL)
            + wt_rows(WT_FULL)
            + incremental_rows(INCR_FULL)
        )


BENCH = SweepBench()


def test_sweep_throughput(benchmark):
    BENCH.test(benchmark)


if __name__ == "__main__":
    raise SystemExit(BENCH.main())
