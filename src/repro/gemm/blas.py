"""BLAS-style DGEMM interface with transpose support.

The paper implements the BLAS ``dgemm`` entry point inside OpenBLAS; this
module provides the same calling convention on top of the blocked driver:

    C := alpha * op(A) @ op(B) + beta * C,   op in {identity, transpose}

Transposition costs nothing extra structurally: the packing routines read
through strided views, so ``op(A)`` simply changes which axis packing
walks — exactly how OpenBLAS's packing kernels handle the ``TRANSA``
cases.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.blocking.cache_blocking import CacheBlocking
from repro.errors import GemmError
from repro.gemm.parallel import parallel_dgemm
from repro.gemm.pool import PoolStats, WorkerPool
from repro.gemm.trace import GemmTrace
from repro.gemm.workspace import GemmWorkspace

_VALID_TRANS = {"N", "n", "T", "t"}


def _op(trans: str, matrix: "np.ndarray") -> "np.ndarray":
    if trans not in _VALID_TRANS:
        raise GemmError(
            f"trans must be one of 'N'/'T', got {trans!r} "
            "(conjugate transpose is meaningless for real DGEMM)"
        )
    return matrix.T if trans in ("T", "t") else matrix


def gemm(
    transa: str,
    transb: str,
    alpha: float,
    a: "np.ndarray",
    b: "np.ndarray",
    beta: float,
    c: "np.ndarray",
    blocking: Optional[CacheBlocking] = None,
    threads: int = 1,
    trace: Optional[GemmTrace] = None,
    pool: Union[None, str, WorkerPool] = None,
    workspace: Optional[GemmWorkspace] = None,
    stats: Optional[PoolStats] = None,
) -> "np.ndarray":
    """BLAS-convention GEMM: ``C := alpha*op(A)@op(B) + beta*C``.

    Args:
        transa, transb: ``'N'`` or ``'T'`` per operand.
        alpha, beta: Scalars.
        a, b, c: Operands; shapes must be conformant *after* applying the
            transposes (``op(A)`` is M x K, ``op(B)`` is K x N, C is
            M x N).
        blocking: Optional block sizes.
        threads: Worker count for the layer-3 parallel driver.
        trace: Optional structural trace.
        pool: Step executor, forwarded to
            :func:`~repro.gemm.parallel.parallel_dgemm`: ``None`` runs
            inline, a caller-owned :class:`~repro.gemm.pool.WorkerPool`
            runs the partitions on its OS threads (wall-clock mode;
            identical numerics), ``"spawn"`` is the per-step baseline.
        workspace: Packed-buffer cache, forwarded to the driver
            (default: the calling thread's, see
            :func:`~repro.gemm.workspace.get_shared_workspace`).
        stats: Optional per-thread timing counters
            (:class:`~repro.gemm.pool.PoolStats`).

    Returns:
        The updated C.
    """
    a_eff = _op(transa, np.asarray(a, dtype=np.float64))
    b_eff = _op(transb, np.asarray(b, dtype=np.float64))
    return parallel_dgemm(
        a_eff, b_eff, c, threads=threads, alpha=alpha, beta=beta,
        blocking=blocking, trace=trace, pool=pool, workspace=workspace,
        stats=stats,
    )


def syrk(
    uplo: str,
    trans: str,
    alpha: float,
    a: "np.ndarray",
    beta: float,
    c: "np.ndarray",
    blocking: Optional[CacheBlocking] = None,
) -> "np.ndarray":
    """Symmetric rank-k update built on the blocked GEMM:
    ``C := alpha*op(A)@op(A)^T + beta*C`` with only the ``uplo`` triangle
    of C referenced/updated (the other triangle is mirrored on return).

    Level-3 BLAS routines reduce to GEMM — the layering argument of the
    GotoBLAS papers; ``syrk`` is included as the canonical example.
    """
    if uplo not in {"U", "u", "L", "l"}:
        raise GemmError("uplo must be 'U' or 'L'")
    a_eff = _op(trans, np.asarray(a, dtype=np.float64))
    n = a_eff.shape[0]
    if c.shape != (n, n):
        raise GemmError(f"C must be {n}x{n}, got {c.shape}")
    full = gemm("N", "T", alpha, a_eff, a_eff, beta, c, blocking=blocking)
    # Mirror the computed triangle so the result is exactly symmetric.
    if uplo in ("U", "u"):
        tri = np.triu(full)
        return tri + np.triu(full, 1).T
    tri = np.tril(full)
    return tri + np.tril(full, -1).T
