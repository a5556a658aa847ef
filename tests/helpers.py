"""Inverses and views that only the test suite needs.

- ``unpack_a``/``unpack_b`` invert :func:`repro.gemm.packing.pack_a` and
  :func:`repro.gemm.packing.pack_b`, dropping the zero padding.
- ``reconstruct`` rebuilds ``P^{-1} L U`` from a blocked LU factorization.
- ``single_core`` is a one-core view of a chip for serial experiments.
- ``with_replacement`` is a copy of a chip with another cache
  replacement policy.
- ``conv_reference`` is the plain einsum convolution, the numeric
  (allclose) reference of the conv lowerings.
"""

from dataclasses import replace
from typing import Optional

import numpy as np

from repro.apps.lu import LuResult
from repro.arch import XGENE, ChipParams
from repro.arch.params import CacheParams, ReplacementPolicy
from repro.errors import SimulationError


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


def _replace_cache(cache: CacheParams, policy: ReplacementPolicy) -> CacheParams:
    return CacheParams(
        name=cache.name,
        size_bytes=cache.size_bytes,
        line_bytes=cache.line_bytes,
        ways=cache.ways,
        latency_cycles=cache.latency_cycles,
        replacement=policy,
        write_policy=cache.write_policy,
        shared_by=cache.shared_by,
    )


def with_replacement(
    chip: ChipParams, policy: ReplacementPolicy,
    l3: Optional[ReplacementPolicy] = None,
) -> ChipParams:
    """A copy of ``chip`` with every cache level using ``policy``.

    ``l3`` overrides the policy for the L3 alone (e.g. keep the big
    outer level LRU while stressing RANDOM victim selection inside).
    """
    return ChipParams(
        name=f"{chip.name}-{policy.value}",
        cores=chip.cores,
        cores_per_module=chip.cores_per_module,
        core=chip.core,
        l1d=_replace_cache(chip.l1d, policy),
        l2=_replace_cache(chip.l2, policy),
        l3=(
            None if chip.l3 is None
            else _replace_cache(chip.l3, l3 if l3 is not None else policy)
        ),
        dram=chip.dram,
        tlb=chip.tlb,
    )


def conv_reference(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Plain einsum convolution — the *numeric* (allclose) reference."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    cin, h, wid = x.shape
    f, cin2, kh, kw = w.shape
    if cin != cin2:
        raise SimulationError(f"channel mismatch: image {cin}, filters {cin2}")
    windows = np.lib.stride_tricks.sliding_window_view(
        x, (kh, kw), axis=(1, 2)
    )  # (cin, OH, OW, kh, kw)
    return np.einsum("cyxhw,fchw->fyx", windows, w, optimize=True)
