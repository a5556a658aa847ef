"""Packing of A blocks and B panels (paper Sec. II-C, Fig. 3).

OpenBLAS packs operands into contiguous buffers so the register kernel
streams them with unit stride:

- ``pack_a`` extracts an ``mc x kc`` block of A as a sequence of
  ``mr x kc`` *slivers*; within a sliver, each k-column's mr elements are
  contiguous (the kernel's ``ldr q, [x14], #16`` order). Partial slivers at
  the bottom edge are zero-padded to mr rows.
- ``pack_b`` extracts a ``kc x nc`` panel of B as a sequence of
  ``kc x nr`` slivers; within a sliver, each k-row's nr elements are
  contiguous (the ``x15`` stream). Partial slivers are zero-padded to nr
  columns.

Both return 3-D arrays indexed ``[sliver, k, within-sliver]`` whose memory
layout is exactly the packed buffer (C-contiguous), so flattening them
yields the byte stream the simulated kernel would read.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import GemmError


def _as_2d_float(name: str, m: "np.ndarray", dtype=np.float64) -> np.ndarray:
    arr = np.asarray(m, dtype=dtype)
    if arr.ndim != 2:
        raise GemmError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


def num_slivers(extent: int, r: int) -> int:
    """Number of r-wide slivers covering ``extent`` rows/columns."""
    if extent < 0 or r <= 0:
        raise GemmError("extent must be >= 0 and sliver width positive")
    return -(-extent // r)


def _packed_out(
    out: Optional["np.ndarray"],
    shape: Tuple[int, int, int],
    dtype,
    pad: int,
) -> np.ndarray:
    """Validate/prepare a destination buffer for a packing routine.

    A fresh buffer is allocated zeroed; a reused one only has its final
    sliver's ``pad`` padding lanes re-zeroed (every other element is
    overwritten by the pack), so buffer reuse is exact even when the
    previous contents were garbage.
    """
    if out is None:
        return np.zeros(shape, dtype=dtype)
    if out.shape != shape or out.dtype != np.dtype(dtype):
        raise GemmError(
            f"out buffer has shape {out.shape}/{out.dtype}, "
            f"packing needs {shape}/{np.dtype(dtype)}"
        )
    if pad:
        out[-1, :, shape[2] - pad:] = 0.0
    return out


def pack_a(
    a_block: "np.ndarray",
    mr: int,
    dtype=np.float64,
    out: Optional["np.ndarray"] = None,
) -> np.ndarray:
    """Pack an ``mc x kc`` block of A into mr-row slivers.

    Args:
        a_block: The ``mc x kc`` source block.
        mr: Register-tile rows (sliver height).
        dtype: Packed element type.
        out: Optional destination of shape ``(ceil(mc/mr), kc, mr)``;
            overwritten completely (padding included) and returned,
            avoiding the per-call allocation.

    Returns:
        Array of shape ``(ceil(mc/mr), kc, mr)``: ``out[s, k, i]`` is
        ``A[s*mr + i, k]`` (zero where padded).
    """
    a_block = _as_2d_float("A block", a_block, dtype)
    mc, kc = a_block.shape
    if mr <= 0:
        raise GemmError("mr must be positive")
    ns = num_slivers(mc, mr)
    out = _packed_out(out, (ns, kc, mr), dtype, (-mc) % mr)
    for s in range(ns):
        lo, hi = s * mr, min((s + 1) * mr, mc)
        # out[s, k, i] = A[lo+i, k] -> transpose of the block rows.
        out[s, :, : hi - lo] = a_block[lo:hi, :].T
    return out


def pack_b(
    b_panel: "np.ndarray",
    nr: int,
    dtype=np.float64,
    out: Optional["np.ndarray"] = None,
) -> np.ndarray:
    """Pack a ``kc x nc`` panel of B into nr-column slivers.

    Args:
        b_panel: The ``kc x nc`` source panel.
        nr: Register-tile columns (sliver width).
        dtype: Packed element type.
        out: Optional destination of shape ``(ceil(nc/nr), kc, nr)``;
            overwritten completely (padding included) and returned,
            avoiding the per-call allocation.

    Returns:
        Array of shape ``(ceil(nc/nr), kc, nr)``: ``out[s, k, j]`` is
        ``B[k, s*nr + j]`` (zero where padded).
    """
    b_panel = _as_2d_float("B panel", b_panel, dtype)
    kc, nc = b_panel.shape
    if nr <= 0:
        raise GemmError("nr must be positive")
    ns = num_slivers(nc, nr)
    out = _packed_out(out, (ns, kc, nr), dtype, (-nc) % nr)
    for s in range(ns):
        lo, hi = s * nr, min((s + 1) * nr, nc)
        out[s, :, : hi - lo] = b_panel[:, lo:hi]
    return out
