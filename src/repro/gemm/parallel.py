"""Multi-threaded DGEMM — layer-3 parallelization (paper Sec. IV-C, Fig. 9).

The paper parallelizes the third loop: every thread receives a different
``mc x kc`` block of A while all threads share the same packed ``kc x nc``
panel of B, which maximizes locality in the shared L3 (where the B panel
lives). The M dimension is therefore divided round-robin in mc-sized chunks
across threads. The ``axis="n"`` ablation parallelizes the first loop
instead: each thread owns whole column panels and packs its own private B.

Neither axis has a loop nest of its own: both are built from the
:mod:`repro.gemm.driver` steps, and one barrier loop runs them:

- work is split into **barrier-delimited steps** — for ``axis="m"`` one
  step per ``(jj, kk)`` panel iteration (the shared B panel is packed by
  :func:`~repro.gemm.driver.panel_step` before the step, every thread
  then runs :func:`~repro.gemm.driver.block_step` over its A blocks); for
  ``axis="n"`` a single step in which each thread runs
  :func:`~repro.gemm.driver.goto_nest` over its column panels with a
  private B panel;
- each step's per-thread closures execute either **inline** (the default:
  simulated workers — sequential, deterministic, the mode the performance
  simulator traces) or on **real OS threads** of a caller-owned
  persistent :class:`~repro.gemm.pool.WorkerPool` passed as ``pool``
  (numpy releases the GIL inside the micro-kernel products, and thread
  creation is paid once per pool instead of once per panel iteration);
- packed buffers come from a :class:`~repro.gemm.workspace.GemmWorkspace`
  (shared B panel, per-thread A slivers), so steady-state iterations
  allocate nothing;
- trace events go to per-thread buffers merged in logical-thread order
  after each barrier, making :class:`~repro.gemm.trace.GemmTrace`
  collection race-free and bit-identical between threaded and sequential
  execution;
- threads whose assignment is empty (``threads > ceil(m/mc)``) are never
  dispatched at all.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from functools import partial
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.arch.params import ChipParams
from repro.arch.presets import XGENE
from repro.blocking.cache_blocking import CacheBlocking, solve_cache_blocking
from repro.errors import GemmError
from repro.gemm.driver import (
    Packer,
    a_packer,
    block_step,
    goto_nest,
    panel_step,
    prepare_operands,
)
from repro.gemm.pool import PoolStats, ThreadCounters, WorkerPool
from repro.gemm.trace import GemmTrace
from repro.gemm.workspace import GemmWorkspace, get_shared_workspace
from repro.obs.metrics import MetricsRegistry

#: Executor: runs one step's per-thread task closures to completion.
_Executor = Callable[[Sequence[Callable[[], None]]], None]

#: One barrier step, run by each active thread as
#: ``step(thread, trace_or_None, counters_or_None)``.
_Step = Callable[
    [int, Optional[GemmTrace], Optional[ThreadCounters]], None
]


def apportion_blocks(count: int, weights: Sequence[float]) -> List[int]:
    """Split ``count`` indivisible blocks proportionally to ``weights``.

    Deterministic largest-remainder apportionment (Hamilton's method):
    every thread gets the floor of its exact quota, and the leftover
    blocks go to the largest fractional remainders, ties broken towards
    the lower thread index. The result sums to ``count`` exactly.

    This is the Catalán-style static schedule for asymmetric chips: with
    weights proportional to per-class modeled throughput, every class
    finishes its share at (modeled) the same time.
    """
    if not weights:
        raise GemmError("apportion_blocks needs at least one weight")
    total = float(sum(weights))
    if total <= 0 or any(w < 0 for w in weights):
        raise GemmError("weights must be non-negative with a positive sum")
    quotas = [count * w / total for w in weights]
    counts = [int(q) for q in quotas]
    leftover = count - sum(counts)
    order = sorted(
        range(len(weights)), key=lambda t: (counts[t] - quotas[t], t)
    )
    for t in order[:leftover]:
        counts[t] += 1
    return counts


def _thread_row_blocks(
    m: int,
    mc: int,
    threads: int,
    weights: Optional[Sequence[float]] = None,
) -> List[List[int]]:
    """Assignment of mc-sized row blocks to threads.

    Without ``weights`` (the symmetric default) blocks go round-robin —
    the historical schedule, unchanged. With ``weights`` (one per
    thread) each thread receives a contiguous run of blocks sized by
    :func:`apportion_blocks`, so faster core classes sweep more of the
    M dimension per panel iteration.
    """
    blocks = list(range(0, m, mc))
    if weights is None:
        return [blocks[t::threads] for t in range(threads)]
    if len(weights) != threads:
        raise GemmError(
            f"got {len(weights)} weights for {threads} threads"
        )
    counts = apportion_blocks(len(blocks), weights)
    out: List[List[int]] = []
    start = 0
    for c in counts:
        out.append(blocks[start : start + c])
        start += c
    return out


def _inline_execute(tasks: Sequence[Callable[[], None]]) -> None:
    """Simulated workers: run the step's tasks sequentially, in order."""
    for task in tasks:
        task()


def _spawn_execute(tasks: Sequence[Callable[[], None]]) -> None:
    """Legacy engine: spawn/join one OS thread per task, every step.

    Kept as the measured baseline for the pool's overhead benchmark
    (``benchmarks/bench_pool_overhead.py``); select with ``pool="spawn"``.
    """
    if len(tasks) == 1:
        tasks[0]()
        return
    errors: List[BaseException] = []

    def trap(task: Callable[[], None]) -> None:
        try:
            task()
        except BaseException as exc:
            errors.append(exc)

    workers = [threading.Thread(target=trap, args=(t,)) for t in tasks]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    if errors:
        raise errors[0]


def _resolve_executor(
    threads: int,
    pool: Union[None, str, WorkerPool],
) -> _Executor:
    """Pick the step executor for this call.

    Inline for ``pool=None`` and for one-thread calls; otherwise the
    given :class:`WorkerPool`, or per-step spawning for
    ``pool="spawn"`` (the overhead baseline).

    The ``pool`` argument is validated before the inline shortcut: a
    typo'd string or wrong type is an error even when ``threads == 1``,
    instead of being silently accepted.
    """
    if not (pool is None or isinstance(pool, WorkerPool)
            or (isinstance(pool, str) and pool == "spawn")):
        raise GemmError(
            f"pool must be None, 'spawn', or a WorkerPool, got {pool!r}"
        )
    if pool is None or threads == 1:
        return _inline_execute
    if pool == "spawn":
        return _spawn_execute
    if pool.threads < threads:
        raise GemmError(
            f"pool has {pool.threads} workers, call needs {threads}"
        )
    return pool.run


def parallel_dgemm(
    a: "np.ndarray",
    b: "np.ndarray",
    c: "np.ndarray",
    threads: int,
    alpha: float = 1.0,
    beta: float = 1.0,
    blocking: Optional[CacheBlocking] = None,
    chip: ChipParams = XGENE,
    trace: Optional[GemmTrace] = None,
    axis: str = "m",
    pool: Union[None, str, WorkerPool] = None,
    workspace: Optional[GemmWorkspace] = None,
    stats: Optional[PoolStats] = None,
    metrics: Optional[MetricsRegistry] = None,
    partition: str = "auto",
) -> "np.ndarray":
    """Layer-3-parallel DGEMM: ``C := alpha * A @ B + beta * C``.

    Args:
        a, b, c: Column-major float64 operands (``M x K``, ``K x N``,
            ``M x N``).
        threads: Number of workers (1..chip.cores).
        alpha, beta: BLAS scalars.
        blocking: Block sizes; derived for ``threads`` on ``chip`` when
            omitted (the paper's eq. (19)/(20) adjustment).
        chip: Architecture used for blocking derivation and trace metadata.
        trace: Optional structural trace collector (thread-safe: events
            are buffered per thread and merged deterministically).
        axis: ``"m"`` parallelizes the third loop over A blocks (the
            paper's Fig. 9 choice — one shared B panel in the L3);
            ``"n"`` parallelizes the first loop over column panels (the
            ablation: every thread owns a private B panel, overflowing
            the shared L3).
        pool: Step executor: ``None`` (the default) runs every step's
            tasks inline; a caller-owned
            :class:`~repro.gemm.pool.WorkerPool` with at least
            ``threads`` workers runs them on its OS threads (identical
            numerics; useful for wall-clock timing), for both axes;
            ``"spawn"`` spawns threads per step (the legacy overhead
            baseline). A one-thread call always runs inline.
        workspace: Packed-buffer cache; defaults to the calling
            thread's :class:`~repro.gemm.workspace.GemmWorkspace`
            (:func:`~repro.gemm.workspace.get_shared_workspace`), so
            steady-state panel iterations (and repeated calls) allocate
            nothing and concurrent callers never share buffers.
        stats: Optional :class:`~repro.gemm.pool.PoolStats` receiving
            per-thread pack/GEBP wall-clock counters and step counts.
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`
            receiving call counters and a whole-call span timer. ``None``
            (the default) adds no work to the hot loops.
        partition: Row-block schedule for ``axis="m"``: ``"symmetric"``
            is the historical round-robin split; ``"weighted"`` assigns
            contiguous runs of mc-slabs proportional to each thread's
            core-class peak throughput (the Catalán-style schedule for
            big.LITTLE chips); ``"auto"`` (default) picks weighted on
            asymmetric chips and symmetric otherwise, so symmetric-chip
            behaviour is bit-for-bit unchanged. The ``axis="n"``
            ablation always distributes panels round-robin.

    Returns:
        The updated C.
    """
    if axis not in ("m", "n"):
        raise GemmError("axis must be 'm' (layer 3) or 'n' (layer 1)")
    if partition not in ("auto", "symmetric", "weighted"):
        raise GemmError(
            "partition must be 'auto', 'symmetric' or 'weighted', "
            f"got {partition!r}"
        )
    if not 1 <= threads <= chip.cores:
        raise GemmError(f"threads {threads} out of range 1..{chip.cores}")
    a, b, c_arr, done = prepare_operands(a, b, c, alpha, beta, trace, threads)
    if done:
        return c_arr
    blk = blocking or solve_cache_blocking(chip, 8, 6, threads=threads)
    m, k = a.shape
    n = b.shape[1]
    ws = workspace if workspace is not None else get_shared_workspace()
    executor = _resolve_executor(threads, pool)
    if stats is not None:
        stats.record_call()

    weighted = partition == "weighted" or (
        partition == "auto" and chip.is_asymmetric
    )
    weights: Optional[List[float]] = None
    if chip.clusters or weighted:
        clusters = chip.core_clusters
        placement = chip.thread_clusters(threads)
        classes = {t: clusters[ci].name for t, ci in enumerate(placement)}
        if trace is not None:
            trace.thread_classes.update(classes)
        if stats is not None:
            stats.assign_classes(classes)
        if weighted:
            weights = [clusters[ci].core.peak_flops for ci in placement]

    pack = a_packer(a, blk.mr)
    if axis == "m":
        assignments = _thread_row_blocks(m, blk.mc, threads, weights)
        steps: Iterable[_Step] = _layer3_steps(
            pack, b, c_arr, alpha, beta, blk, assignments, ws, trace, stats
        )
    else:
        # Layer-1 split (the Fig. 9 ablation): column panels go
        # round-robin, each thread runs the whole nest over its panels
        # with a private B panel — one step, since no state is shared.
        # ``weights`` are ignored: the ablation keeps the naive schedule.
        panels = list(range(0, n, blk.nc))
        assignments = [panels[t::threads] for t in range(threads)]
        steps = [
            lambda t, lt, counters: goto_nest(
                pack, b, c_arr, alpha, beta, blk, assignments[t], ws, t,
                private_b=True, trace=lt, counters=counters,
            )
        ]
    # Surplus workers (empty assignment) are never dispatched.
    active = [t for t in range(threads) if assignments[t]]
    span = nullcontext()
    if metrics is not None:
        metrics.inc("parallel.calls")
        metrics.inc(f"parallel.axis.{axis}")
        metrics.set_gauge("parallel.threads", threads)
        metrics.observe("parallel.flops", 2.0 * m * n * k)
        span = metrics.span("parallel.dgemm")
    with span:
        for step in steps:
            local = (
                {t: GemmTrace() for t in active} if trace is not None else {}
            )
            executor([
                partial(step, t, local.get(t),
                        stats.thread(t) if stats is not None else None)
                for t in active
            ])
            if stats is not None:
                stats.steps += 1
            for lt in local.values():
                trace.absorb(lt)
    return c_arr


def _layer3_steps(
    pack: Packer,
    b: "np.ndarray",
    c_arr: "np.ndarray",
    alpha: float,
    beta: float,
    blk: CacheBlocking,
    assignments: Sequence[Sequence[int]],
    ws: GemmWorkspace,
    trace: Optional[GemmTrace],
    stats: Optional[PoolStats],
) -> Iterator[_Step]:
    """Layer-3 split: one barrier step per (jj, kk) panel iteration.

    The shared B panel is packed before the step (the paper packs it
    cooperatively; trace/stats attribute it to thread 0); in the step
    every thread packs and multiplies its own A blocks.
    """
    k, n = b.shape
    for jj in range(0, n, blk.nc):
        ncur = min(blk.nc, n - jj)
        for kk in range(0, k, blk.kc):
            kcur = min(blk.kc, k - kk)
            packed_b = panel_step(
                b, c_arr, jj, ncur, kk, kcur, alpha, beta, blk,
                ws.b_buffer(kcur, ncur, blk.nr), 0, trace,
                stats.thread(0) if stats is not None else None,
            )

            def step(
                t: int,
                lt: Optional[GemmTrace],
                counters: Optional[ThreadCounters],
            ) -> None:
                for ii in assignments[t]:
                    block_step(
                        pack, packed_b, c_arr, jj, ncur, kk, kcur, ii,
                        blk, ws, t, lt, counters,
                    )

            yield step
