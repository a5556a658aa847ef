"""Blocked LU factorization built on the reproduction's DGEMM.

The paper motivates DGEMM as "the core part of the LINPACK benchmark":
HPL spends almost all its time in the trailing-submatrix update
``A22 := A22 - L21 @ U12``, which is exactly a rank-nb DGEMM. This module
implements the right-looking blocked LU with partial pivoting whose
update step calls :func:`repro.gemm.dgemm`, plus the triangular solves
and a LINPACK-style driver (factor + solve + residual check).

It serves two purposes: a realistic downstream application of the library
(``examples/linpack_motif.py``), and a second full-matrix correctness
exercise of the GEMM stack (``tests/test_apps_lu.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.blocking.cache_blocking import CacheBlocking
from repro.errors import GemmError
from repro.workloads.base import traced_dgemm


@dataclass
class LuResult:
    """Outcome of :func:`lu_factor`.

    Attributes:
        lu: Packed LU factors (unit-lower L below the diagonal, U on and
            above), column-major.
        piv: Pivot row swapped with row ``i`` at step ``i`` (LAPACK
            convention).
        gemm_flops: Flops executed through the blocked DGEMM updates.
    """

    lu: "np.ndarray"
    piv: "np.ndarray"
    gemm_flops: int


def _unblocked_lu(a: "np.ndarray", piv: "np.ndarray", offset: int) -> None:
    """Partial-pivoting LU of a tall panel, in place."""
    m, nb = a.shape
    for j in range(min(m, nb)):
        p = j + int(np.argmax(np.abs(a[j:, j])))
        piv[offset + j] = offset + p
        if p != j:
            a[[j, p], :] = a[[p, j], :]
        if a[j, j] != 0.0 and j + 1 < m:
            a[j + 1 :, j] /= a[j, j]
            if j + 1 < nb:
                a[j + 1 :, j + 1 :] -= np.outer(
                    a[j + 1 :, j], a[j, j + 1 :]
                )


def lu_factor(
    a: "np.ndarray",
    nb: int = 64,
    blocking: Optional[CacheBlocking] = None,
) -> LuResult:
    """Right-looking blocked LU with partial pivoting.

    Args:
        a: Square matrix (not modified).
        nb: Panel width; the trailing update is a rank-nb DGEMM.
        blocking: Block sizes for the DGEMM updates.

    Returns:
        Packed factors, pivots, and the DGEMM flop count.
    """
    a = np.array(a, dtype=np.float64, order="F")
    n, n2 = a.shape
    if n != n2:
        raise GemmError("LU requires a square matrix")
    if nb < 1:
        raise GemmError("panel width nb must be >= 1")
    piv = np.arange(n)
    gemm_flops = 0

    for j in range(0, n, nb):
        jb = min(nb, n - j)
        # 1. Factor the current panel (rows j.., cols j..j+jb).
        _unblocked_lu(a[j:, j : j + jb], piv, j)
        # 2. Apply the panel's row swaps to the rest of the matrix.
        for jj in range(j, j + jb):
            p = piv[jj]
            if p != jj:
                a[[jj, p], :j] = a[[p, jj], :j]
                a[[jj, p], j + jb :] = a[[p, jj], j + jb :]
        if j + jb < n:
            # 3. U12 := L11^{-1} A12 (unit-lower triangular solve, itself
            # blocked through DGEMM for large panels).
            from repro.gemm.level3 import trsm

            l11 = a[j : j + jb, j : j + jb]
            a12 = a[j : j + jb, j + jb :]
            a12[:, :] = trsm(
                "L", "L", "U", 1.0, l11, a12, nb=32, blocking=blocking
            )
            # 4. Trailing update A22 -= L21 @ U12 — the DGEMM the paper's
            # kernel exists for.
            l21 = np.asfortranarray(a[j + jb :, j : j + jb])
            u12 = np.asfortranarray(a12)
            a[j + jb :, j + jb :], flops = traced_dgemm(
                l21,
                u12,
                a[j + jb :, j + jb :],
                alpha=-1.0,
                beta=1.0,
                blocking=blocking,
            )
            gemm_flops += flops
    return LuResult(lu=a, piv=piv, gemm_flops=gemm_flops)


def lu_solve(result: LuResult, b: "np.ndarray") -> "np.ndarray":
    """Solve ``A x = b`` from packed LU factors."""
    lu, piv = result.lu, result.piv
    n = lu.shape[0]
    x = np.array(b, dtype=np.float64)
    if x.shape[0] != n:
        raise GemmError("right-hand side has wrong length")
    # Apply pivots.
    for i in range(n):
        p = piv[i]
        if p != i:
            x[[i, p]] = x[[p, i]]
    # Forward substitution (unit lower).
    for i in range(1, n):
        x[i] -= lu[i, :i] @ x[:i]
    # Back substitution.
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - lu[i, i + 1 :] @ x[i + 1 :]) / lu[i, i]
    return x


def linpack_residual(
    a: "np.ndarray", x: "np.ndarray", b: "np.ndarray"
) -> float:
    """The HPL-style scaled residual
    ``||Ax-b||_inf / (eps * ||A||_inf * ||x||_inf * n)``."""
    n = a.shape[0]
    r = np.abs(a @ x - b).max()
    denom = (
        np.finfo(np.float64).eps
        * np.abs(a).sum(axis=1).max()
        * np.abs(x).max()
        * n
    )
    return float(r / denom) if denom else float("inf")
