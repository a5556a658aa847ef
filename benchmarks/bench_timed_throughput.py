"""Throughput of the compiled timed-execution engine vs the interpreter.

Replays the Table V cross-validation kernels (the three paper kernels
plus the no-rotation ablation) through full timed GEBPs at their solved
blockings with both engines and checks:

- every observable is **bit-identical**: the GEBP's C panel, total and
  per-tile cycles, and — on a per-variant micro-tile probe — the full
  pipeline counter set (raw/structural/WAR stalls, issue cycles) and the
  load-latency histogram;
- the aggregate speedup clears the floor the engine exists for
  (>= 10x on the full sweep; >= 3x in ``--smoke`` mode, whose short
  slice amortizes template construction less).

Runs standalone (``python bench_timed_throughput.py [--smoke]`` — the CI
smoke gate) or under pytest-benchmark with the rest of the harness.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
from _harness import PairBench, PairRow, selected, time_each

from repro.arch import XGENE
from repro.blocking import solve_cache_blocking
from repro.kernels import get_variant
from repro.sim import run_timed_gebp, run_timed_micro_tile

FULL_POINTS = (
    ("OpenBLAS-8x6", 4, 3, None),
    ("OpenBLAS-8x4", 4, 3, None),
    ("OpenBLAS-4x4", 4, 3, None),
    ("OpenBLAS-8x6-noRR", 4, 3, None),
)
SMOKE_POINTS = (("OpenBLAS-8x6", 2, 2, 128),)

MIN_SPEEDUP_FULL = 10.0
MIN_SPEEDUP_SMOKE = 3.0

ENGINES = ("interpreted", "compiled")


def _point_inputs(name: str, na: int, nb: int, kc: Optional[int]):
    kernel = get_variant(name)
    spec = kernel.spec
    if kc is None:
        blk = solve_cache_blocking(XGENE, spec.mr, spec.nr, threads=1)
        unroll = kernel.plan.unroll
        kc = max(unroll, (blk.kc // unroll) * unroll)
    rng = np.random.default_rng(2015)
    packed_a = rng.standard_normal((na, kc, spec.mr))
    packed_b = rng.standard_normal((nb, kc, spec.nr))
    c0 = rng.standard_normal((na * spec.mr, nb * spec.nr))
    return kernel, packed_a, packed_b, c0, kc


def timed_rows(points: Sequence[Tuple[str, int, int, Optional[int]]]):
    """Time both engines over ``points``; each run on a fresh hierarchy."""
    rows = []
    for name, na, nb, kc_arg in points:
        kernel, packed_a, packed_b, c0, kc = _point_inputs(
            name, na, nb, kc_arg
        )
        ((gi, ti), (gc, tc)), (interpreted_s, compiled_s) = time_each(
            ENGINES, lambda e: (
                run_timed_gebp(
                    kernel, packed_a, packed_b, c0.copy(), engine=e
                ),
                run_timed_micro_tile(
                    kernel, packed_a[0], packed_b[0], engine=e
                ),
            ),
        )
        identical = (
            np.array_equal(gi.c_panel, gc.c_panel)
            and gi.cycles == gc.cycles
            and gi.tile_cycles == gc.tile_cycles
            and ti.pipeline == tc.pipeline
            and ti.load_latencies == tc.load_latencies
            and np.array_equal(ti.c_tile, tc.c_tile)
        )
        k_iters = (na * nb + 1) * kc
        rows.append(PairRow(
            key=name, cells=(name, na * nb, k_iters),
            old_s=interpreted_s, new_s=compiled_s, identical=identical,
            doc={"tiles": na * nb, "k_iters": k_iters}, count=k_iters,
        ))
    return rows


class TimedBench(PairBench):
    command = "bench_timed_throughput"
    text_name = json_name = "timed_throughput"
    labels = ("Table V cross-validation kernels", "smoke")
    engines = selected(interpreted="interpreted", compiled="compiled")
    pair = ENGINES
    floors = (MIN_SPEEDUP_FULL, MIN_SPEEDUP_SMOKE)
    title = "Compiled vs interpreted timed execution"
    lead = ("kernel", "tiles", "k-iters")
    rate = "compiled iters/s"
    unit = "timed k-iterations"
    claim = "all observables bit-identical"

    def run(self, smoke: bool):
        return timed_rows(SMOKE_POINTS if smoke else FULL_POINTS)


BENCH = TimedBench()


def test_timed_throughput(benchmark):
    BENCH.test(benchmark)


if __name__ == "__main__":
    raise SystemExit(BENCH.main())
