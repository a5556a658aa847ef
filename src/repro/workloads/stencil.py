"""Cache-blocked 2D stencil workloads (Jacobi/Laplacian family).

A cross-shaped stencil of radius ``r`` updates every interior point of a
2D grid from its ``4r + 1`` taps; the boundary ring of width ``r``
passes through unchanged, and iterations ping-pong between two buffers
(Jacobi style). Cache blocking tiles the interior traversal; halo values
are read straight from the full source array, so a tile never needs an
explicit exchange buffer and remainder tiles at the right/bottom edges
fall out of the loop bounds.

The differential contract (devito's ``test_cache_blocking`` pattern):
blocked and unblocked execution are **bit-equal** for every block shape,
including non-dividing ones. That holds by construction here — both
traversals evaluate the same per-element expression
(:func:`_update_tile`, fixed tap fold order), and NumPy elementwise
arithmetic is bitwise deterministic regardless of slice shape — and the
property suite and the ``stencil.blocked`` oracle enforce it anyway.

Block sizes come from the same Table III machinery that blocks GEMM:
:func:`solve_stencil_blocking` spends the L1 streaming budget the solver
allots to the packed A/B slivers on a stencil tile plus its halo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.arch.params import ChipParams
from repro.blocking.cache_blocking import solve_cache_blocking
from repro.errors import SimulationError
from repro.isa.instructions import Fmla, Instruction, Ldr, Str
from repro.isa.registers import VReg, XReg
from repro.memory.batch import BatchTrace
from repro.memory.cache import CODE_LOAD, CODE_STORE
from repro.workloads.base import Workload, WorkloadResult

__all__ = [
    "StencilSpec",
    "StencilWorkload",
    "solve_stencil_blocking",
    "stencil_blocked",
    "stencil_reference",
    "tap_offsets",
]

#: Byte offset separating the two ping-pong grid buffers in the modeled
#: address space (each core's whole workload is further relocated by
#: ``core * CORE_STRIDE``, matching :mod:`repro.sim.gebp_cachesim`).
GRID_A_BASE = 0
GRID_B_BASE = 1 << 28
CORE_STRIDE = 1 << 30

_ELEM = 8  # float64


@dataclass(frozen=True)
class StencilSpec:
    """A cross-shaped Jacobi stencil.

    Attributes:
        radius: Arm length; the stencil reads ``4*radius + 1`` taps.
        alpha: Weight of every neighbour tap; the center tap gets
            ``1 - 4*radius*alpha`` so a constant field is a fixed point.
        iterations: Jacobi sweeps to run (ping-pong buffered).
    """

    radius: int = 1
    alpha: float = 0.25
    iterations: int = 1

    def __post_init__(self) -> None:
        if self.radius < 1:
            raise SimulationError(f"stencil radius must be >= 1: {self.radius}")
        if self.iterations < 1:
            raise SimulationError(
                f"stencil iterations must be >= 1: {self.iterations}"
            )

    @property
    def taps(self) -> int:
        """Points read per output element."""
        return 4 * self.radius + 1

    @property
    def center_weight(self) -> float:
        return 1.0 - 4.0 * self.radius * self.alpha


def tap_offsets(radius: int) -> List[Tuple[int, int]]:
    """Tap ``(di, dj)`` offsets in the canonical fold order.

    Center first, then per distance ``d`` the up/down/left/right arms.
    Every consumer — the numerics, the address trace, the timed kernel —
    walks taps in exactly this order; it is part of the bit-equality
    contract.
    """
    taps = [(0, 0)]
    for d in range(1, radius + 1):
        taps.extend([(-d, 0), (d, 0), (0, -d), (0, d)])
    return taps


def _update_tile(
    src: np.ndarray,
    dst: np.ndarray,
    spec: StencilSpec,
    tile: Tuple[int, int, int, int],
) -> None:
    """Evaluate the stencil over one tile, halo read from the full src.

    The single shared expression both traversals use: per output element
    the fold order is fixed (center, then each arm by distance), so the
    slice shape cannot change any element's rounding.
    """
    i0, i1, j0, j1 = tile
    a = spec.alpha
    acc = spec.center_weight * src[i0:i1, j0:j1]
    for d in range(1, spec.radius + 1):
        acc = acc + a * src[i0 - d:i1 - d, j0:j1]
        acc = acc + a * src[i0 + d:i1 + d, j0:j1]
        acc = acc + a * src[i0:i1, j0 - d:j1 - d]
        acc = acc + a * src[i0:i1, j0 + d:j1 + d]
    dst[i0:i1, j0:j1] = acc


def _tiles(
    height: int,
    width: int,
    radius: int,
    block: Optional[Tuple[int, int]],
) -> List[Tuple[int, int, int, int]]:
    """Interior tile bounds in traversal order (row-major over tiles).

    ``block=None`` is the unblocked traversal: one tile spanning the
    interior. Remainder tiles at the right/bottom edges are simply
    short — no padding, no special casing.
    """
    r = radius
    i_lo, i_hi = r, height - r
    j_lo, j_hi = r, width - r
    if i_hi <= i_lo or j_hi <= j_lo:
        return []
    if block is None:
        return [(i_lo, i_hi, j_lo, j_hi)]
    bi, bj = block
    if bi < 1 or bj < 1:
        raise SimulationError(f"stencil block must be positive: {block}")
    tiles = []
    for i0 in range(i_lo, i_hi, bi):
        i1 = min(i0 + bi, i_hi)
        for j0 in range(j_lo, j_hi, bj):
            tiles.append((i0, i1, j0, min(j0 + bj, j_hi)))
    return tiles


def _run(
    grid: np.ndarray,
    spec: StencilSpec,
    block: Optional[Tuple[int, int]],
) -> np.ndarray:
    src = np.array(grid, dtype=np.float64)
    if src.ndim != 2:
        raise SimulationError(f"stencil grid must be 2D: shape {src.shape}")
    h, w = src.shape
    r = spec.radius
    tiles = _tiles(h, w, r, block)
    dst = np.empty_like(src)
    for _ in range(spec.iterations):
        dst[:r, :] = src[:r, :]
        dst[h - r:, :] = src[h - r:, :]
        dst[:, :r] = src[:, :r]
        dst[:, w - r:] = src[:, w - r:]
        for tile in tiles:
            _update_tile(src, dst, spec, tile)
        src, dst = dst, src
    return src


def stencil_reference(grid: np.ndarray, spec: StencilSpec) -> np.ndarray:
    """Unblocked execution: one full-interior slice per sweep."""
    return _run(grid, spec, None)


def stencil_blocked(
    grid: np.ndarray, spec: StencilSpec, block: Tuple[int, int]
) -> np.ndarray:
    """Cache-blocked execution, bit-equal to :func:`stencil_reference`."""
    return _run(grid, spec, block)


def solve_stencil_blocking(
    chip: ChipParams, radius: int = 1, element_size: int = 8
) -> Tuple[int, int]:
    """Solve ``(bi, bj)`` tile sizes against the Table III machinery.

    The GEMM solver's ``kc`` answers "how many elements can stream
    through the L1 alongside the resident working set" for the paper's
    8x6 kernel; spending the same budget — ``kc * (mr + nr)`` elements —
    on a stencil tile means the tile plus its halo (reads) and the tile
    itself (writes) fit where GEBP's slivers did:

    ``(b + 2r)^2 + b^2 <= kc * (mr + nr)``

    The column extent is then floored to a whole number of cache lines
    so tile rows don't shear across lines.
    """
    blk = solve_cache_blocking(chip, 8, 6, element_size=element_size)
    budget = blk.kc * (8 + 6)
    r = radius
    b = 1
    while (b + 1 + 2 * r) ** 2 + (b + 1) ** 2 <= budget:
        b += 1
    line_elements = max(1, chip.l1d.line_bytes // element_size)
    bj = max(line_elements, (b // line_elements) * line_elements)
    return b, bj


class StencilWorkload(Workload):
    """One stencil execution: grid, spec, and (optional) blocking.

    Args:
        height, width: Grid shape; the interior must be non-empty.
        spec: The stencil.
        block: ``(bi, bj)`` tile shape, or ``None`` for unblocked.
        seed: Grid initialization seed.
    """

    name = "stencil"

    def __init__(
        self,
        height: int,
        width: int,
        spec: Optional[StencilSpec] = None,
        block: Optional[Tuple[int, int]] = None,
        seed: int = 0,
    ) -> None:
        self.spec = spec or StencilSpec()
        r = self.spec.radius
        if height <= 2 * r or width <= 2 * r:
            raise SimulationError(
                f"{height}x{width} grid has no interior at radius {r}"
            )
        self.height = height
        self.width = width
        self.block = block
        self.seed = seed

    def make_grid(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return rng.standard_normal((self.height, self.width))

    @property
    def n_elements(self) -> int:
        """Interior points updated per sweep."""
        r = self.spec.radius
        return (self.height - 2 * r) * (self.width - 2 * r)

    @property
    def flops(self) -> int:
        # One multiply + one accumulate per tap per element per sweep.
        return 2 * self.spec.taps * self.n_elements * self.spec.iterations

    def run(self) -> WorkloadResult:
        out = _run(self.make_grid(), self.spec, self.block)
        return WorkloadResult(output=out, flops=self.flops)

    # -- machine-model faces -------------------------------------------------

    def _element_order(self) -> Tuple[np.ndarray, np.ndarray]:
        """(i, j) of every interior element, one sweep, traversal order."""
        tiles = _tiles(self.height, self.width, self.spec.radius, self.block)
        cells = [np.mgrid[i0:i1, j0:j1].reshape(2, -1)
                 for i0, i1, j0, j1 in tiles]
        ii, jj = np.concatenate(cells, axis=1).astype(np.int64)
        return ii, jj

    def traces(
        self, chip: ChipParams, core: int = 0
    ) -> Tuple[BatchTrace, BatchTrace]:
        """Compile ``(warm, main)`` access streams.

        Warm-up installs the just-initialized input grid
        (:meth:`BatchTrace.line_stores`). The main stream is, per
        interior element in traversal order: one 8-byte load per tap
        (canonical tap order) then the 8-byte store of the result. One
        ``(element, tap)`` offset matrix, the store as its last column,
        serves every sweep: a sweep adds its source base to the tap
        columns and its destination base to the store column, the
        ping-pong buffers swapping roles every sweep. Blocked and
        unblocked workloads emit the same row multiset in a different
        order; the cache walk prices the difference.
        """
        w = self.width
        warm = BatchTrace.line_stores(
            ((GRID_A_BASE, self.height * w * _ELEM),), chip.l1d.line_bytes
        )
        ii, jj = self._element_order()
        di, dj = np.array(tap_offsets(self.spec.radius) + [(0, 0)]).T
        offset = ((ii[:, None] + di) * w + jj[:, None] + dj) * _ELEM
        kind = np.full(di.size, CODE_LOAD, dtype=np.int8)
        kind[-1] = CODE_STORE
        bases = (GRID_A_BASE, GRID_B_BASE)
        main = BatchTrace.concat([
            BatchTrace.of(
                offset + np.where(kind == CODE_LOAD, bases[it % 2],
                                  bases[1 - it % 2]),
                kind,
            )
            for it in range(self.spec.iterations)
        ])

        shift = core * CORE_STRIDE
        return warm.shifted(shift), main.shifted(shift)

    def kernel_segments(
        self, chip: ChipParams
    ) -> List[Tuple[List[Instruction], int]]:
        """One per-element loop body, repeated for every element.

        ``v0`` holds the tap weights (loop-invariant), ``x0``/``x1``
        walk the source/destination, and each tap is a load feeding an
        FMA — so every demand load of :meth:`traces` prices exactly one
        ``ldr``. Blocked and unblocked emit the *same* program; only the
        latency stream (the traversal order) differs.
        """
        offsets = tap_offsets(self.spec.radius)
        src_ptr, dst_ptr = XReg(0), XReg(1)
        coeff = VReg(0)
        accs = (VReg(1), VReg(2))
        temps = tuple(VReg(3 + i) for i in range(4))
        body: List[Instruction] = []
        for t in range(len(offsets)):
            tmp = temps[t % len(temps)]
            body.append(Ldr(tmp, src_ptr, post_increment=_ELEM, tag="S"))
            body.append(Fmla(accs[t % 2], tmp, coeff.lane(t % 2)))
        body.append(Str(accs[0], dst_ptr, post_increment=_ELEM, tag="D"))
        repeat = self.n_elements * self.spec.iterations
        return [(body, repeat)] if repeat else []
