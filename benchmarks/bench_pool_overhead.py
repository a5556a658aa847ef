"""Extension — persistent worker pool vs per-iteration thread spawning.

The layer-3 parallel loop dispatches one slice of work per core at every
``(jj, kk)`` panel iteration. The seed implementation spawned fresh OS
threads for each iteration; the persistent :class:`repro.gemm.WorkerPool`
keeps one caller-owned team of workers alive and replaces spawn/join
with worker-pinned tasks on its queue, joined at a barrier.

This bench isolates the *engine overhead*: the same small-matrix
``parallel_dgemm`` loop is timed inline (no OS threads — the pure
pack/GEBP work), under the legacy spawn-per-iteration engine
(``pool="spawn"``), and under the persistent pool. Overhead is the
threaded wall-clock minus the inline wall-clock, from each engine's
fastest loop; the pool must cut it at least 2x. On a shared 2-vCPU VM
twelve runs measured 1.9-3.1x (median 2.6x): 4.2-5.6 ms of spawn
overhead per call against 1.4-2.5 ms for the pool, and one of the twelve
missed the floor. Numerics are asserted bit-identical to the
serial driver in every mode, and surplus workers
(``threads > ceil(m/mc)``) are asserted absent from the active-core
accounting.
"""

import time

import numpy as np

from conftest import save_json, save_report

from repro.analysis import format_table
from repro.obs import RunReport
from repro.blocking import CacheBlocking
from repro.gemm import (
    GemmTrace,
    PoolStats,
    WorkerPool,
    dgemm,
    parallel_dgemm,
)

RNG = np.random.default_rng(4242)
THREADS = 4
REPS = 12
#: Timed loops per engine; each engine reports its fastest.
ROUNDS = 30
#: Small blocks on a small matrix: many barrier steps, little arithmetic
#: per step — the regime where engine overhead dominates.
BLK = CacheBlocking(mr=8, nr=6, kc=32, mc=8, nc=16, k1=1, k2=1, k3=1)
SIZE = 64


def _operands(size=SIZE):
    return (
        np.asfortranarray(RNG.standard_normal((size, size))),
        np.asfortranarray(RNG.standard_normal((size, size))),
        np.asfortranarray(RNG.standard_normal((size, size))),
    )


def _time_engines(a, b, c, engines):
    """Each engine's best wall-clock of a REPS-call parallel_dgemm loop
    over ROUNDS rounds. The engines take turns within every round, in a
    rotating order, so drift in host load reaches all of them alike."""
    def once(pool):
        for _ in range(REPS):
            parallel_dgemm(a, b, c.copy(order="F"), threads=THREADS,
                           blocking=BLK, pool=pool)
    names = list(engines)
    for name in names:
        once(engines[name])  # warm up (threads, workspaces, numpy caches)
    best = dict.fromkeys(names, float("inf"))
    for r in range(ROUNDS):
        turn = r % len(names)
        for name in names[turn:] + names[:turn]:
            t0 = time.perf_counter()
            once(engines[name])
            best[name] = min(best[name], time.perf_counter() - t0)
    return best


def run_overhead_comparison():
    a, b, c = _operands()
    with WorkerPool(THREADS) as pool:
        best = _time_engines(
            a, b, c, {"inline": None, "spawn": "spawn", "pool": pool}
        )
        inline_s, spawn_s, pool_s = best["inline"], best["spawn"], best["pool"]

        serial = dgemm(a, b, c.copy(order="F"), blocking=BLK)
        spawn_res = parallel_dgemm(a, b, c.copy(order="F"), threads=THREADS,
                                   blocking=BLK, pool="spawn")
        pool_res = parallel_dgemm(a, b, c.copy(order="F"), threads=THREADS,
                                  blocking=BLK, pool=pool)
    return {
        "inline_s": inline_s,
        "spawn_s": spawn_s,
        "pool_s": pool_s,
        "spawn_overhead_s": spawn_s - inline_s,
        "pool_overhead_s": pool_s - inline_s,
        "spawn_exact": bool(np.array_equal(spawn_res, serial)),
        "pool_exact": bool(np.array_equal(pool_res, serial)),
    }


def test_bench_pool_overhead(benchmark, report_dir):
    res = benchmark.pedantic(run_overhead_comparison, rounds=1, iterations=1)
    per_call = 1e3 / REPS
    text = format_table(
        ["engine", "ms/call", "overhead ms/call"],
        [
            ["inline (no OS threads)", res["inline_s"] * per_call, 0.0],
            ["spawn per iteration", res["spawn_s"] * per_call,
             res["spawn_overhead_s"] * per_call],
            ["persistent pool", res["pool_s"] * per_call,
             res["pool_overhead_s"] * per_call],
        ],
        title=f"parallel engine overhead ({SIZE}^3, {THREADS} threads, "
              f"{REPS}-call loop, best of {ROUNDS} alternating)",
    )
    save_report(report_dir, "pool_overhead", text)
    save_json(report_dir, "pool_overhead", RunReport(
        command="bench_pool_overhead",
        created=time.strftime("%Y-%m-%dT%H:%M:%S"),
        params={"threads": THREADS, "reps": REPS, "rounds": ROUNDS,
                "size": SIZE},
        engines={"pool": {"requested": "persistent",
                          "selected": "persistent",
                          "fallback_reason": None}},
        stats={
            "exact": {"spawn": res["spawn_exact"],
                      "pool": res["pool_exact"]},
            "timing": {
                "inline_seconds": res["inline_s"],
                "spawn_seconds": res["spawn_s"],
                "pool_seconds": res["pool_s"],
                "spawn_overhead_seconds": res["spawn_overhead_s"],
                "pool_overhead_seconds": res["pool_overhead_s"],
            },
        },
    ))

    # Threaded execution stays bit-identical to the serial driver.
    assert res["spawn_exact"] and res["pool_exact"]
    # The persistent pool removes >= 2x of the per-call engine overhead.
    assert res["spawn_overhead_s"] > 0
    assert res["spawn_overhead_s"] >= 2.0 * res["pool_overhead_s"]


def test_bench_surplus_workers_not_active(benchmark):
    """threads > ceil(m/mc): surplus workers are skipped, not dispatched,
    and never counted as active cores."""
    m, n, k = 2 * BLK.mc, 48, 48  # exactly two row blocks
    a = np.asfortranarray(RNG.standard_normal((m, k)))
    b = np.asfortranarray(RNG.standard_normal((k, n)))
    c = np.asfortranarray(RNG.standard_normal((m, n)))

    def run():
        trace, stats = GemmTrace(), PoolStats()
        with WorkerPool(8) as pool:
            parallel_dgemm(a, b, c.copy(order="F"), threads=8, blocking=BLK,
                           pool=pool, trace=trace, stats=stats)
        return trace, stats

    trace, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    assert trace.threads == 8  # the requested team size is recorded...
    assert trace.active_threads == [0, 1]  # ...but only 2 cores worked
    assert stats.active_threads == [0, 1]
    assert set(stats.counters) == {0, 1}
