"""Inverses and views that only the test suite needs.

- ``unpack_a``/``unpack_b`` invert :func:`repro.gemm.packing.pack_a` and
  :func:`repro.gemm.packing.pack_b`, dropping the zero padding.
- ``reconstruct`` rebuilds ``P^{-1} L U`` from a blocked LU factorization.
- ``single_core`` is a one-core view of a chip for serial experiments.
"""

from dataclasses import replace

import numpy as np

from repro.apps.lu import LuResult
from repro.arch import XGENE, ChipParams


def unpack_a(packed: np.ndarray, mc: int) -> np.ndarray:
    """Inverse of ``pack_a``: the ``mc x kc`` block without padding."""
    ns, kc, mr = packed.shape
    out = np.zeros((mc, kc), dtype=np.float64)
    for s in range(ns):
        lo, hi = s * mr, min((s + 1) * mr, mc)
        out[lo:hi, :] = packed[s, :, : hi - lo].T
    return out


def unpack_b(packed: np.ndarray, nc: int) -> np.ndarray:
    """Inverse of ``pack_b``: the ``kc x nc`` panel without padding."""
    ns, kc, nr = packed.shape
    out = np.zeros((kc, nc), dtype=np.float64)
    for s in range(ns):
        lo, hi = s * nr, min((s + 1) * nr, nc)
        out[:, lo:hi] = packed[s, :, : hi - lo]
    return out


def reconstruct(result: LuResult) -> np.ndarray:
    """``P^{-1} L U`` from the packed factors of ``lu_factor``."""
    lu, piv = result.lu, result.piv
    n = lu.shape[0]
    lower = np.tril(lu, -1) + np.eye(n)
    upper = np.triu(lu)
    a = lower @ upper
    for i in range(n - 1, -1, -1):
        p = piv[i]
        if p != i:
            a[[i, p], :] = a[[p, i], :]
    return a


def single_core(chip: ChipParams = XGENE) -> ChipParams:
    """A one-core view of ``chip`` with the same per-core cache geometry.

    The L2 and L3 keep their sizes but become private, matching the
    paper's serial setting where one thread owns the whole hierarchy.
    :func:`dataclasses.replace` keeps every cache field; an asymmetric
    chip collapses to one core of its lead cluster.
    """
    return ChipParams(
        name=f"{chip.name}-1core",
        cores=1,
        cores_per_module=1,
        core=chip.core,
        l1d=chip.l1d,
        l2=replace(chip.l2, shared_by=1),
        l3=None if chip.l3 is None else replace(chip.l3, shared_by=1),
        dram=chip.dram,
        tlb=chip.tlb,
    )
