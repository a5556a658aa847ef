"""Throughput of the batched cache-sim engine vs the scalar oracle.

Replays the Table VII GEBP streams (all three paper kernels at 1 and 8
threads) through both engines on freshly built, identical hierarchies and
checks three things:

- every counter (`GebpCacheResult`, i.e. the per-level ``CacheStats``
  views) is **bit-identical** between the engines;
- the batched engine never silently falls back to the scalar per-access
  path on the LRU L1 (``batched_fallback_accesses == 0``);
- the aggregate speedup clears the floor the engine exists for
  (>= 10x on the full replay; >= 3x in ``--smoke`` mode, whose short
  slice amortizes less).

``--smoke`` also replays one point on X-Gene with PLRU and with seeded
RANDOM replacement at every level. There the batched engine decides
RANDOM/PLRU batches with array passes; those rows must be bit-identical
too, and their speedup is printed but not gated.

Runs standalone (``python bench_cachesim_throughput.py [--smoke]`` — the
CI smoke gate) or under pytest-benchmark with the rest of the harness.
Trace compilation is done up front: the compile-once / replay-many split
is the intended usage, and it keeps the comparison about replay cost.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

from _harness import PairBench, PairRow, selected, time_each

from repro.arch import XGENE, ChipParams, ReplacementPolicy
from repro.blocking import solve_cache_blocking
from repro.kernels.kernel_spec import PAPER_KERNELS
from repro.memory import MemoryHierarchy
from repro.sim import gebp_traces, simulate_gebp_cache

FULL_POINTS = (
    ("8x6", 1), ("8x6", 8), ("8x4", 1), ("8x4", 8), ("4x4", 1), ("4x4", 8),
)
SMOKE_POINTS = (("8x6", 1), ("4x4", 8))
SMOKE_NC_SLICE = 12
#: X-Gene with one non-LRU policy at every level (smoke only, ungated).
POLICY_POINTS = (("8x6", 1),)
POLICIES = (ReplacementPolicy.PLRU, ReplacementPolicy.RANDOM)

MIN_SPEEDUP_FULL = 10.0
MIN_SPEEDUP_SMOKE = 3.0

ENGINES = ("scalar", "batched")


def replay_rows(
    points: Sequence[Tuple[str, int]], nc_slice: Optional[int] = None,
    chip: ChipParams = XGENE,
):
    """Time both engines over ``points``; each point on fresh hierarchies
    (seeded, so RANDOM levels draw alike)."""
    line = chip.l1d.line_bytes
    rows = []
    for name, threads in points:
        spec = next(s for s in PAPER_KERNELS if s.name == name)
        blk = solve_cache_blocking(chip, spec.mr, spec.nr, threads=threads)
        warm, main_trace, _ = gebp_traces(
            spec, blk, chip=chip, nc_slice=nc_slice
        )
        accesses = warm.line_count(line) + main_trace.line_count(line)
        hs = {e: MemoryHierarchy(chip, seed=0) for e in ENGINES}
        (scalar, batched), (scalar_s, batched_s) = time_each(
            ENGINES, lambda e: simulate_gebp_cache(
                spec, blk, chip=chip, hierarchy=hs[e],
                nc_slice=nc_slice, engine=e,
            ),
        )
        fallback = hs["batched"].l1[0].batched_fallback_accesses
        if chip is not XGENE:
            name = f"{name}-{chip.l1d.replacement.value}"
        rows.append(PairRow(
            key=f"{name}@{threads}",
            cells=(name, threads, accesses),
            old_s=scalar_s, new_s=batched_s,
            identical=dataclasses.astuple(scalar)
            == dataclasses.astuple(batched),
            doc={"accesses": accesses, "l1_fallback": fallback},
            fallback=fallback, count=accesses,
        ))
    return rows


class CachesimBench(PairBench):
    command = "bench_cachesim_throughput"
    text_name = json_name = "cachesim_throughput"
    labels = ("Table VII points", "smoke")
    engines = selected(scalar="scalar", batched="batched")
    pair = ENGINES
    floors = (MIN_SPEEDUP_FULL, MIN_SPEEDUP_SMOKE)
    title = "Batched vs scalar cache-sim replay"
    lead = ("kernel", "T", "line accesses")
    rate = "batched acc/s"
    unit = "accesses"
    claim = "all counters bit-identical"

    def run(self, smoke: bool):
        """The LRU rows, and (smoke only) the non-LRU rows."""
        if not smoke:
            return replay_rows(FULL_POINTS), []
        return replay_rows(SMOKE_POINTS, SMOKE_NC_SLICE), [
            row for policy in POLICIES
            for row in replay_rows(
                POLICY_POINTS, SMOKE_NC_SLICE, XGENE.with_replacement(policy)
            )
        ]

    def format(self, result, label: str) -> str:
        rows, policy_rows = result
        text = super().format(rows, label)
        if not policy_rows:
            return text
        label = f"{label}; X-Gene, one policy at every level, not gated"
        return f"{text}\n\n{super().format(policy_rows, label)}"

    def stats(self, result):
        rows, policy_rows = result
        doc = super().stats(rows)
        if policy_rows:
            doc["policy_rows"] = super().stats(policy_rows)["rows"]
        return doc

    def check(self, result, smoke: bool) -> None:
        rows, policy_rows = result
        super().check(rows, smoke)
        for r in policy_rows:
            assert r.identical, f"{r.key}: the engines disagree"


BENCH = CachesimBench()


def test_cachesim_throughput(benchmark):
    BENCH.test(benchmark)


if __name__ == "__main__":
    raise SystemExit(BENCH.main())
