"""Structural GEMM traces without executing any arithmetic.

Replicates the loop structure of :func:`repro.gemm.driver.dgemm` and
:func:`repro.gemm.parallel.parallel_dgemm` — the same jj/kk/ii partitioning,
the same packing events, the same round-robin thread assignment — producing
the identical :class:`~repro.gemm.trace.GemmTrace` those functions record,
at negligible cost. The sweeps of Figs. 11/12/14 use these; tests assert
byte-for-byte agreement with traces recorded by the real implementation.

:func:`trace_arrays` is the one definition of that structure, as integer
arrays in trace order; :func:`synthesize_trace` wraps its rows in event
objects and the analytic model prices the arrays directly.
"""

from __future__ import annotations

import numpy as np

from repro.blocking.cache_blocking import CacheBlocking
from repro.errors import GemmError
from repro.gemm.trace import OPERAND_CODES, GemmTrace, TraceArrays


def _extents(size: int, block: int) -> np.ndarray:
    """``min(block, size - start)`` for every block start, in order."""
    return np.minimum(block, size - np.arange(0, size, block))


def _round_robin(blocks: int, threads: int) -> np.ndarray:
    """Block indices in thread-major order: ``range(blocks)[t::threads]``
    for ``t = 0, 1, ...``, concatenated."""
    return np.argsort(np.arange(blocks) % threads, kind="stable")


def trace_arrays(
    m: int,
    n: int,
    k: int,
    blocking: CacheBlocking,
    threads: int = 1,
    axis: str = "m",
) -> TraceArrays:
    """The structural trace of one DGEMM execution, as arrays.

    Both axes run the same ``(column block, k block, row block)`` nest;
    each ``(jj, kk)`` step packs one B panel, then an A block before
    every GEBP. Under ``axis="m"`` the row blocks are dealt round-robin
    to threads (and visited thread by thread); under ``axis="n"`` with
    several threads the column blocks are, and each thread packs its own
    B panels.

    Args: as :func:`synthesize_trace`.
    """
    if min(m, n, k) < 0 or threads < 1:
        raise GemmError("sizes must be non-negative and threads >= 1")
    if axis not in ("m", "n"):
        raise GemmError("axis must be 'm' or 'n'")
    if m == 0 or n == 0 or k == 0:
        empty = np.zeros((0, 4), dtype=np.int64)
        return TraceArrays(empty, np.zeros(0, dtype=bool), empty)

    mcur = _extents(m, blocking.mc)
    kcur = _extents(k, blocking.kc)
    ncur = _extents(n, blocking.nc)
    if axis == "n" and threads > 1:
        cols = _round_robin(len(ncur), threads)
        ncur = ncur[cols]
        b_thread = cols % threads
        a_thread = b_thread[:, None, None]
    else:
        rows = _round_robin(len(mcur), threads)
        mcur = mcur[rows]
        b_thread = np.zeros(len(ncur), dtype=np.int64)
        a_thread = (rows % threads)[None, None, :]
    shape = (len(ncur), len(kcur), len(mcur))
    mc = mcur[None, None, :]
    kc = kcur[None, :, None]
    nc = ncur[:, None, None]

    gebps = np.empty(shape + (4,), dtype=np.int64)
    gebps[..., 0] = mc
    gebps[..., 1] = kc
    gebps[..., 2] = nc
    gebps[..., 3] = a_thread
    beta = np.broadcast_to(
        (np.arange(len(kcur)) == 0)[None, :, None], shape
    ).ravel()

    packs = np.empty(shape[:2] + (1 + shape[2], 4), dtype=np.int64)
    packs[:, :, 0, 0] = OPERAND_CODES["B"]
    packs[:, :, 0, 1] = kcur[None, :]
    packs[:, :, 0, 2] = ncur[:, None]
    packs[:, :, 0, 3] = b_thread[:, None]
    packs[:, :, 1:, 0] = OPERAND_CODES["A"]
    packs[:, :, 1:, 1] = mc
    packs[:, :, 1:, 2] = kc
    packs[:, :, 1:, 3] = a_thread
    return TraceArrays(
        gebps.reshape(-1, 4), beta, packs.reshape(-1, 4)
    )


def synthesize_trace(
    m: int,
    n: int,
    k: int,
    blocking: CacheBlocking,
    threads: int = 1,
    axis: str = "m",
) -> GemmTrace:
    """Build the structural trace of one DGEMM execution.

    Args:
        m, n, k: Problem sizes.
        blocking: Block sizes in effect.
        threads: Worker count (1 reproduces the serial driver's trace).
        axis: Parallelization axis, matching
            :func:`repro.gemm.parallel.parallel_dgemm` — ``"m"`` (the
            paper's layer-3 split) or ``"n"`` (the layer-1 ablation).
    """
    arrays = trace_arrays(m, n, k, blocking, threads, axis=axis)
    return GemmTrace.from_arrays(m, n, k, threads, arrays)


def micro_tiles(mcur: int, ncur: int, mr: int, nr: int) -> int:
    """Number of (padded) register tiles covering an mcur x ncur panel.

    Works element-wise on integer arrays too.
    """
    return (-(-mcur // mr)) * (-(-ncur // nr))
