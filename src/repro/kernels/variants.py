"""The kernel variants evaluated in the paper's Sec. V.

- ``OpenBLAS-8x6`` — the paper's contribution: gamma = 6.86, rotation +
  scheduling + prefetching;
- ``OpenBLAS-8x4`` — simplified variant, gamma = 5.33;
- ``OpenBLAS-4x4`` — small tile, gamma = 4;
- ``ATLAS-5x5`` — the comparison kernel of [11]: gamma = 5, with the odd
  tile's NEON lane waste;
- ``ATLAS-5x5-kvec`` — the same 5x5 tile in its true k-vectorized form
  (full-vector FMLAs over two-k groups, ``faddp`` fold epilogue), built
  from real instructions in :mod:`repro.kernels.atlas`;
- ``OpenBLAS-8x6-noRR`` — the Fig. 13 ablation: 8x6 without software
  register rotation (static assignment, short CL->NF windows).
"""

from __future__ import annotations

from typing import Dict

from repro.kernels.codegen import GeneratedKernel, generate_kernel
from repro.kernels.kernel_spec import (
    KERNEL_4X4,
    KERNEL_5X5_ATLAS,
    KERNEL_8X4,
    KERNEL_8X6,
    KERNEL_8X6_NO_ROTATION,
    KernelSpec,
)
from repro.memo import BoundedMemo

#: Display names used in the paper's figures, mapped to specs.
VARIANTS: Dict[str, KernelSpec] = {
    "OpenBLAS-8x6": KERNEL_8X6,
    "OpenBLAS-8x4": KERNEL_8X4,
    "OpenBLAS-4x4": KERNEL_4X4,
    "ATLAS-5x5": KERNEL_5X5_ATLAS,
    "ATLAS-5x5-kvec": KERNEL_5X5_ATLAS,
    "OpenBLAS-8x6-noRR": KERNEL_8X6_NO_ROTATION,
}

#: The four implementations compared in Table V / Figs. 11-12.
PAPER_COMPARISON = (
    "OpenBLAS-8x6",
    "OpenBLAS-8x4",
    "OpenBLAS-4x4",
    "ATLAS-5x5",
)

#: Display twin for the ATLAS kernel: the cost model uses the k-vectorized
#: spec (KERNEL_5X5_ATLAS), but assembly display/round-trip uses this
#: by-element rendering — ATLAS publishes no listing of its 5x5 kernel, and
#: the k-vectorized form needs more registers than A64 has for a faithful
#: listing (see kernel_spec module docstring).
_ATLAS_DISPLAY = KernelSpec(5, 5, "5x5-atlas-display", rotated=False)

#: Generated kernels by ``(name, kc)``. ``compile_kernel`` memoizes by
#: kernel identity, so every caller of one key must get the same object
#: (:meth:`~repro.memo.BoundedMemo.get_or_make`).
_cache: BoundedMemo[object] = BoundedMemo(64)


def get_variant(name: str, kc: int = 512):
    """Generate (and memoize) a named kernel variant.

    Returns a :class:`GeneratedKernel` for the by-element variants and a
    duck-typed :class:`~repro.kernels.atlas.KVecKernel` for
    ``ATLAS-5x5-kvec``.

    Args:
        name: One of :data:`VARIANTS`.
        kc: Blocking depth used for prefetch distances.
    """
    try:
        spec = VARIANTS[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel variant {name!r}; "
            f"choose from {sorted(VARIANTS)}"
        ) from None

    def make():
        if name == "ATLAS-5x5-kvec":
            from repro.kernels.atlas import build_kvec_variant

            return build_kvec_variant()
        return generate_kernel(
            _ATLAS_DISPLAY if spec is KERNEL_5X5_ATLAS else spec, kc=kc
        )

    return _cache.get_or_make((name, kc), make)
