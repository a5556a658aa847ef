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
smoke gate) or under pytest-benchmark with the rest of the harness. The
committed exhibit is ``benchmarks/results/baseline_sweep.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np
from conftest import save_json, save_report

from repro.analysis import format_table
from repro.arch import XGENE
from repro.arch.params import WritePolicy
from repro.blocking import CacheBlocking, solve_cache_blocking
from repro.kernels import get_variant
from repro.kernels.kernel_spec import PAPER_KERNELS
from repro.memory import MemoryHierarchy
from repro.obs import RunReport
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


@dataclasses.dataclass(frozen=True)
class SweepRow:
    """One sweep slice, old path vs new path."""

    section: str
    label: str
    old_s: float
    new_s: float
    identical: bool
    fallback: int

    @property
    def speedup(self) -> float:
        return self.old_s / self.new_s


def _timed_fingerprint(run) -> tuple:
    return (
        run.cycles,
        run.cycles_per_iteration,
        run.efficiency,
        tuple(sorted(run.load_latencies.items())),
        run.c_tile.tobytes(),
    )


def run_timed_rows(points: Sequence[Tuple[str, int]]) -> List[SweepRow]:
    """Interpreter (the only pre-gap engine for these kernels) vs compiled."""
    rows = []
    for name, kc_mult in points:
        kernel = get_variant(name)
        kc = kernel.plan.unroll * kc_mult
        rng = np.random.default_rng(7)
        a = rng.standard_normal((kc, kernel.spec.mr))
        b = rng.standard_normal((kc, kernel.spec.nr))
        runs, timings = {}, {}
        for engine in ("interpreted", "compiled"):
            t0 = time.perf_counter()
            runs[engine] = run_timed_micro_tile(kernel, a, b, engine=engine)
            timings[engine] = time.perf_counter() - t0
        rows.append(SweepRow(
            section="timed",
            label=f"{name} kc={kc}",
            old_s=timings["interpreted"],
            new_s=timings["compiled"],
            identical=_timed_fingerprint(runs["interpreted"])
            == _timed_fingerprint(runs["compiled"]),
            fallback=0,
        ))
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


def run_wt_rows(
    points: Sequence[Tuple[str, int]],
    nc_slice: Optional[int] = None,
) -> List[SweepRow]:
    """Scalar walk (the pre-gap forced path for write-through) vs batched."""
    chip = _write_through_chip()
    rows = []
    for name, threads in points:
        spec = next(s for s in PAPER_KERNELS if s.name == name)
        blk = solve_cache_blocking(XGENE, spec.mr, spec.nr, threads=threads)
        results, timings, fallback = {}, {}, {}
        for engine in ("scalar", "batched"):
            h = MemoryHierarchy(chip, seed=0)
            t0 = time.perf_counter()
            results[engine] = simulate_gebp_cache(
                spec, blk, chip=chip, hierarchy=h,
                nc_slice=nc_slice, engine=engine,
            )
            timings[engine] = time.perf_counter() - t0
            fallback[engine] = h.batched_fallback_accesses()
        rows.append(SweepRow(
            section="write-through",
            label=f"{name} t={threads}",
            old_s=timings["scalar"],
            new_s=timings["batched"],
            identical=dataclasses.astuple(results["scalar"])
            == dataclasses.astuple(results["batched"]),
            fallback=fallback["batched"],
        ))
    return rows


def run_incremental_rows(
    points: Sequence[Tuple[str, int, int, Tuple[int, ...]]],
) -> List[SweepRow]:
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
                out = []
                for blk in blocks:
                    out.append(dataclasses.astuple(simulate_gebp_cache(
                        spec, blk, chip=XGENE, nc_slice=blk.nc,
                        engine="batched", seed=0, incremental=incremental,
                    )))
                return out
            finally:
                clear_warm_memo()

        t0 = time.perf_counter()
        cold = sweep(False)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = sweep(True)
        warm_s = time.perf_counter() - t0
        rows.append(SweepRow(
            section="incremental",
            label=f"{name} kc={kc} mc={mc} x{len(mults)}nc",
            old_s=cold_s,
            new_s=warm_s,
            identical=cold == warm,
            fallback=0,
        ))
    return rows


def run_sweep(smoke: bool = False) -> List[SweepRow]:
    if smoke:
        return (
            run_timed_rows(TIMED_SMOKE)
            + run_wt_rows(WT_SMOKE, nc_slice=WT_SMOKE_NC_SLICE)
            + run_incremental_rows(INCR_SMOKE)
        )
    return (
        run_timed_rows(TIMED_FULL)
        + run_wt_rows(WT_FULL)
        + run_incremental_rows(INCR_FULL)
    )


def aggregate_speedup(rows: Sequence[SweepRow]) -> float:
    return sum(r.old_s for r in rows) / sum(r.new_s for r in rows)


def check_rows(rows: Sequence[SweepRow], min_speedup: float) -> None:
    for r in rows:
        assert r.identical, (
            f"{r.section}/{r.label}: old and new paths disagree"
        )
        assert r.fallback == 0, (
            f"{r.section}/{r.label}: {r.fallback} accesses took the "
            f"per-access scalar fallback"
        )
    agg = aggregate_speedup(rows)
    assert agg >= min_speedup, (
        f"aggregate speedup {agg:.1f}x below the {min_speedup:.0f}x floor"
    )


def format_report(rows: Sequence[SweepRow], label: str) -> str:
    text = format_table(
        ["section", "slice", "old s", "new s", "speedup"],
        [[r.section, r.label, r.old_s, r.new_s, r.speedup] for r in rows],
        title=f"Full-sweep pipeline, old paths vs new ({label})",
    )
    return (
        f"{text}\naggregate: {aggregate_speedup(rows):.1f}x speedup, all "
        f"observables bit-identical, zero scalar fallbacks"
    )


def build_report(rows: Sequence[SweepRow], label: str) -> RunReport:
    """Machine-readable counterpart of :func:`format_report`.

    Wall-clock fields use ``_seconds`` names so the baseline comparator
    skips them; the bit-identical flags and fallback counts are the
    deterministic regression surface.
    """
    return RunReport(
        command="bench_sweep_throughput",
        created=time.strftime("%Y-%m-%dT%H:%M:%S"),
        params={"label": label},
        engines={
            "old": {"requested": "interpreted/scalar/cold",
                    "selected": "interpreted/scalar/cold",
                    "fallback_reason": None},
            "new": {"requested": "compiled/batched/incremental",
                    "selected": "compiled/batched/incremental",
                    "fallback_reason": None},
        },
        stats={
            "rows": {
                f"{r.section}:{r.label}": {
                    "identical": r.identical,
                    "fallback": r.fallback,
                    "old_seconds": r.old_s,
                    "new_seconds": r.new_s,
                }
                for r in rows
            },
            "aggregate": {"speedup_seconds": aggregate_speedup(rows)},
        },
    )


def test_sweep_throughput(benchmark, report_dir):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    text = format_report(rows, "full sweep")
    save_report(report_dir, "sweep_throughput", text)
    save_json(report_dir, "sweep_throughput", build_report(rows, "full sweep"))
    check_rows(rows, MIN_SPEEDUP_FULL)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="short slices, relaxed speedup floor, no results file "
             "(the CI gate)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write a structured RunReport document to PATH",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        rows = run_sweep(smoke=True)
        print(format_report(rows, "smoke"))
        if args.json:
            build_report(rows, "smoke").write(args.json)
            print(f"wrote {args.json}")
        check_rows(rows, MIN_SPEEDUP_SMOKE)
    else:
        rows = run_sweep()
        text = format_report(rows, "full sweep")
        import pathlib

        out = pathlib.Path(__file__).parent / "results"
        out.mkdir(exist_ok=True)
        save_report(out, "baseline_sweep", text)
        report = build_report(rows, "full sweep")
        if args.json:
            report.write(args.json)
            print(f"wrote {args.json}")
        else:
            save_json(out, "baseline_sweep", report)
        check_rows(rows, MIN_SPEEDUP_FULL)
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
