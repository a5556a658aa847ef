"""Direct convolution workloads: im2col lowering vs. a blocked loop nest.

A valid (no padding, stride 1) 2D convolution of a ``(cin, H, W)`` image
with ``(F, cin, KH, KW)`` filters is a GEMM in disguise: the ``im2col``
lowering materializes the ``(P, K)`` patches matrix (``P = OH*OW``
output positions, ``K = cin*KH*KW`` reduction length) and multiplies it
by the ``(K, F)`` filter matrix through the existing
:func:`~repro.gemm.driver.dgemm` path. The **direct** path runs the same
Goto loop nest but never materializes patches — each packed A sliver is
gathered straight from the image (the "last-mile" trick that turns
im2col's ``P*K``-element scratch matrix into an L1-resident pack
buffer).

The differential contract: :func:`conv_direct` is **bit-equal** to
:func:`conv_im2col` for *every* blocking. That holds by construction —
the direct gather produces, sliver for sliver, the same C-contiguous
zero-padded buffers :func:`~repro.gemm.packing.pack_a` would build from
the patches matrix, so :func:`~repro.gemm.gebp.gebp` sees identical
inputs in an identical call sequence. The ``conv.im2col`` oracle and the
property suite enforce it.

Blocked-vs-unblocked comparisons carry one extra constraint the stencil
family does not need: ``kc`` splits the reduction sum and the per-tile
matmul shape feeds BLAS kernel selection, so bit-equality across two
*different* blockings requires both to share ``mr``, ``nr`` and ``kc``
with ``mc``/``nc`` multiples of ``mr``/``nr`` (then every register tile
has the same shape and the k-sum the same split on both sides).
:func:`unblocked_conv_blocking` builds the conforming "one giant block"
configuration for a given blocking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.arch.params import ChipParams
from repro.blocking.cache_blocking import CacheBlocking, solve_cache_blocking
from repro.errors import SimulationError
from repro.gemm.driver import DEFAULT_BLOCKING, dgemm, goto_nest
from repro.isa.instructions import Fmla, Instruction, Ldr, Str
from repro.isa.registers import VReg, XReg
from repro.memory.batch import BatchTrace
from repro.memory.cache import CODE_LOAD, CODE_STORE
from repro.workloads.base import Workload, WorkloadResult

__all__ = [
    "ConvSpec",
    "ConvWorkload",
    "conv_direct",
    "conv_im2col",
    "filter_matrix",
    "im2col",
    "solve_conv_blocking",
    "unblocked_conv_blocking",
]

# Modeled address space (per core; cores relocate by CORE_STRIDE).
X_BASE = 0
W_BASE = 1 << 26
PATCHES_BASE = 1 << 27
PACKA_BASE = 1 << 28
PACKB_BASE = (1 << 28) + (1 << 27)
C_BASE = 1 << 29
CORE_STRIDE = 1 << 30

_ELEM = 8  # float64


def _copies(src: np.ndarray, dst: np.ndarray, where=True) -> BatchTrace:
    """Per element (C order of the broadcast), a load of ``src`` then a
    store to ``dst``; elements where ``where`` is false are dropped."""
    src, dst, where = np.broadcast_arrays(src, dst, where)
    return BatchTrace.of(np.stack([src, dst], axis=-1),
                         (CODE_LOAD, CODE_STORE), where=where[..., None])


@dataclass(frozen=True)
class ConvSpec:
    """One valid-mode, stride-1 convolution problem.

    Attributes:
        cin: Input channels.
        height, width: Image extents.
        kh, kw: Filter extents (``kh <= height``, ``kw <= width``).
        filters: Output channels ``F``.
    """

    cin: int
    height: int
    width: int
    kh: int
    kw: int
    filters: int

    def __post_init__(self) -> None:
        if min(self.cin, self.height, self.width, self.kh, self.kw,
               self.filters) < 1:
            raise SimulationError(f"conv extents must be positive: {self}")
        if self.kh > self.height or self.kw > self.width:
            raise SimulationError(
                f"filter {self.kh}x{self.kw} exceeds image "
                f"{self.height}x{self.width}"
            )

    @property
    def out_height(self) -> int:
        return self.height - self.kh + 1

    @property
    def out_width(self) -> int:
        return self.width - self.kw + 1

    @property
    def p(self) -> int:
        """GEMM M: output positions."""
        return self.out_height * self.out_width

    @property
    def k(self) -> int:
        """GEMM K: reduction length."""
        return self.cin * self.kh * self.kw

    @property
    def flops(self) -> int:
        return 2 * self.p * self.k * self.filters


def im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Materialize the ``(P, K)`` patches matrix of a ``(cin, H, W)`` image.

    ``patches[p, k] = x[c, oy + dh, ox + dw]`` with ``p = oy*OW + ox``
    (row-major output positions) and ``k = (c*kh + dh)*kw + dw``
    (channel-major reduction index) — the layout under which the filter
    matrix is the plain reshape of the filter tensor.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise SimulationError(f"image must be (cin, H, W): shape {x.shape}")
    cin, h, w = x.shape
    oh, ow = h - kh + 1, w - kw + 1
    if oh < 1 or ow < 1:
        raise SimulationError(f"filter {kh}x{kw} exceeds image {h}x{w}")
    # windows[c, dh, dw, oy, ox] — a strided view, no copy.
    windows = np.lib.stride_tricks.sliding_window_view(x, (oh, ow), axis=(1, 2))
    # -> (P, K) with the documented index order.
    patches = windows.transpose(3, 4, 0, 1, 2).reshape(oh * ow, cin * kh * kw)
    return np.ascontiguousarray(patches)


def filter_matrix(w: np.ndarray) -> np.ndarray:
    """Reshape ``(F, cin, kh, kw)`` filters to the ``(K, F)`` GEMM operand."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 4:
        raise SimulationError(
            f"filters must be (F, cin, kh, kw): shape {w.shape}"
        )
    f = w.shape[0]
    return np.ascontiguousarray(w.reshape(f, -1).T)


def conv_im2col(
    x: np.ndarray,
    w: np.ndarray,
    blocking: Optional[CacheBlocking] = None,
) -> np.ndarray:
    """Convolution via im2col + the existing blocked DGEMM.

    Returns the ``(F, OH, OW)`` output tensor.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    f, _, kh, kw = w.shape
    oh, ow = x.shape[1] - kh + 1, x.shape[2] - kw + 1
    patches = im2col(x, kh, kw)
    wmat = filter_matrix(w)
    out = np.zeros((patches.shape[0], f), order="F")
    out = dgemm(patches, wmat, out, alpha=1.0, beta=0.0, blocking=blocking)
    return np.ascontiguousarray(out.T).reshape(f, oh, ow)


def _gather_packed_a(
    x: np.ndarray,
    spec: ConvSpec,
    ii: int,
    mcur: int,
    kk: int,
    kcur: int,
    mr: int,
) -> np.ndarray:
    """Gather one packed A block straight from the image.

    Produces bit-for-bit what ``pack_a(im2col(x)[ii:ii+mcur, kk:kk+kcur],
    mr)`` would: a C-contiguous zeros-initialized ``(ceil(mcur/mr),
    kcur, mr)`` buffer with ``out[s, k, i] = patches[ii + s*mr + i,
    kk + k]`` — but the values come from ``x`` by index arithmetic, so
    the patches matrix never exists.
    """
    ow = spec.out_width
    p = ii + np.arange(mcur)
    oy, ox = p // ow, p % ow
    kidx = kk + np.arange(kcur)
    c, rem = kidx // (spec.kh * spec.kw), kidx % (spec.kh * spec.kw)
    dh, dw = rem // spec.kw, rem % spec.kw
    # vals[i, k] = x[c_k, oy_i + dh_k, ox_i + dw_k]
    vals = x[c[None, :], oy[:, None] + dh[None, :], ox[:, None] + dw[None, :]]
    ns = -(-mcur // mr)
    out = np.zeros((ns, kcur, mr))
    for s in range(ns):
        lo, hi = s * mr, min((s + 1) * mr, mcur)
        out[s, :, : hi - lo] = vals[lo:hi, :].T
    return out


def conv_direct(
    x: np.ndarray,
    w: np.ndarray,
    blocking: Optional[CacheBlocking] = None,
) -> np.ndarray:
    """Directly-blocked convolution: the Goto nest without the scratch
    matrix.

    Runs :func:`~repro.gemm.driver.goto_nest` (with ``alpha = 1``,
    ``beta = 0``), the nest :func:`~repro.gemm.driver.dgemm` runs, with
    :func:`_gather_packed_a` as its A packer: every packed A block is
    gathered from the image. Bit-equal to :func:`conv_im2col` under the
    same blocking.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    f, cin, kh, kw = w.shape
    if x.shape[0] != cin:
        raise SimulationError(
            f"channel mismatch: image {x.shape[0]}, filters {cin}"
        )
    spec = ConvSpec(cin=cin, height=x.shape[1], width=x.shape[2],
                    kh=kh, kw=kw, filters=f)
    blk = blocking or DEFAULT_BLOCKING
    out = np.zeros((spec.p, f), order="F")
    goto_nest(
        lambda ii, mcur, kk, kcur, _: _gather_packed_a(
            x, spec, ii, mcur, kk, kcur, blk.mr
        ),
        filter_matrix(w), out, 1.0, 0.0, blk, range(0, f, blk.nc),
    )
    return np.ascontiguousarray(out.T).reshape(f, spec.out_height,
                                               spec.out_width)


def solve_conv_blocking(chip: ChipParams, spec: ConvSpec) -> CacheBlocking:
    """Block the convolution GEMM against the Table III machinery.

    The paper's 8x6 solve, clamped to the problem: ``kc`` to the
    reduction length, ``mc``/``nc`` to the (register-tile-rounded)
    problem extents — keeping ``mc % mr == 0`` and ``nc % nr == 0`` so
    the result stays comparable (bit-equal) with its
    :func:`unblocked_conv_blocking` counterpart.
    """
    blk = solve_cache_blocking(chip, 8, 6)
    mr, nr = blk.mr, blk.nr
    kc = min(blk.kc, spec.k)
    mc = min(blk.mc, -(-spec.p // mr) * mr)
    nc = min(blk.nc - blk.nc % nr, -(-spec.filters // nr) * nr)
    return CacheBlocking(
        mr=mr, nr=nr, kc=kc, mc=max(mc, mr), nc=max(nc, nr),
        k1=blk.k1, k2=blk.k2, k3=blk.k3,
    )


def unblocked_conv_blocking(
    spec: ConvSpec, blocking: CacheBlocking
) -> CacheBlocking:
    """The "one giant block" configuration comparable to ``blocking``.

    Keeps ``mr``/``nr``/``kc`` (register tiles and the k-split are part
    of the bit-equality contract) and opens ``mc``/``nc`` to cover the
    whole problem in one layer-2/3 iteration.
    """
    mr, nr = blocking.mr, blocking.nr
    return CacheBlocking(
        mr=mr, nr=nr, kc=blocking.kc,
        mc=-(-spec.p // mr) * mr,
        nc=-(-spec.filters // nr) * nr,
        k1=blocking.k1, k2=blocking.k2, k3=blocking.k3,
    )


class ConvWorkload(Workload):
    """One convolution execution: problem, lowering, and blocking.

    Args:
        spec: The convolution problem.
        lowering: ``"im2col"`` (materialize patches, then DGEMM) or
            ``"direct"`` (gather packed blocks from the image).
        blocking: The GEMM blocking; required (solve one with
            :func:`solve_conv_blocking`).
        seed: Image/filter initialization seed.
    """

    name = "conv"
    LOWERINGS = ("im2col", "direct")

    def __init__(
        self,
        spec: ConvSpec,
        lowering: str,
        blocking: CacheBlocking,
        seed: int = 0,
    ) -> None:
        if lowering not in self.LOWERINGS:
            raise SimulationError(
                f"unknown lowering {lowering!r}; choose from {self.LOWERINGS}"
            )
        self.spec = spec
        self.lowering = lowering
        self.blocking = blocking
        self.seed = seed

    def make_operands(self) -> Tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.seed)
        s = self.spec
        x = rng.standard_normal((s.cin, s.height, s.width))
        w = rng.standard_normal((s.filters, s.cin, s.kh, s.kw))
        return x, w

    @property
    def flops(self) -> int:
        return self.spec.flops

    def run(self) -> WorkloadResult:
        x, w = self.make_operands()
        fn = conv_im2col if self.lowering == "im2col" else conv_direct
        out = fn(x, w, blocking=self.blocking)
        return WorkloadResult(output=out, flops=self.flops)

    # -- machine-model faces -------------------------------------------------

    def _patch_source_addresses(self, p: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Image byte addresses of ``patches[p, k]`` (direct gather)."""
        s = self.spec
        oy, ox = p // s.out_width, p % s.out_width
        c, rem = k // (s.kh * s.kw), k % (s.kh * s.kw)
        dh, dw = rem // s.kw, rem % s.kw
        return X_BASE + (
            (c * s.height + oy + dh) * s.width + ox + dw
        ) * _ELEM

    def _patches_addresses(self, p: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Scratch-matrix byte addresses of ``patches[p, k]`` (im2col)."""
        return PATCHES_BASE + (p * self.spec.k + k) * _ELEM

    def _pack_rows(
        self, source, dst_base: int, r: int, lo: int, cur: int,
        kk: int, kcur: int,
    ) -> BatchTrace:
        """Pack phase: per sliver of ``r`` lanes, (k-major, lane-minor) a
        load of ``source(row, k)`` then a store into the packed buffer.

        Rows ``lo .. lo + cur`` of the operand (A rows or filter
        columns) fill ``ceil(cur / r)`` slivers; the ragged last
        sliver's missing lanes are masked out.
        """
        sl, k, lane = np.ogrid[0:-(-cur // r), 0:kcur, 0:r]
        row = sl * r + lane
        src = source(lo + row, kk + k)
        dst = dst_base + ((sl * kcur + k) * r + lane) * _ELEM
        return _copies(src, dst, where=row < cur)

    def _gebp_rows(
        self, jj: int, ncur: int, kk: int, kcur: int, ii: int, mcur: int
    ) -> BatchTrace:
        """GEBP streaming rows, one register tile after another.

        A ``(tile col j, tile row i, ...)`` grid: each tile is its C
        loads (column-major over the ``(P, F)`` output), ``kcur`` times
        ``mr`` packed-A then ``nr`` packed-B loads, and its C stores.
        The C elements past the panel are masked out; C order gives the
        loop's j-major, i-minor tile order.
        """
        mr, nr = self.blocking.mr, self.blocking.nr
        j, i, e = np.ogrid[0:-(-ncur // nr), 0:-(-mcur // mr), 0:nr * mr]
        col, row = j * nr + e // mr, i * mr + e % mr
        c = C_BASE + ((jj + col) * self.spec.p + ii + row) * _ELEM
        c_keep = (col < ncur) & (row < mcur)
        k, lane = np.ogrid[0:kcur, 0:mr + nr]
        ab = np.where(
            lane < mr,
            PACKA_BASE + ((i[..., None] * kcur + k) * mr + lane) * _ELEM,
            PACKB_BASE + ((j[..., None] * kcur + k) * nr + lane - mr) * _ELEM,
        ).reshape(j.size, i.size, -1)
        return BatchTrace.of(
            np.concatenate([c, ab, c], axis=-1),
            np.repeat([CODE_LOAD, CODE_LOAD, CODE_STORE],
                      [c.shape[-1], ab.shape[-1], c.shape[-1]]),
            where=np.concatenate(
                [c_keep, np.ones_like(ab, dtype=bool), c_keep], axis=-1
            ),
        )

    def _loop_nest(self):
        """(jj, ncur, kk, kcur, ii, mcur) in dgemm's iteration order;
        ii=None rows mark the per-(jj, kk) pack-B step."""
        s, blk = self.spec, self.blocking
        for jj in range(0, s.filters, blk.nc):
            ncur = min(blk.nc, s.filters - jj)
            for kk in range(0, s.k, blk.kc):
                kcur = min(blk.kc, s.k - kk)
                yield jj, ncur, kk, kcur, None, None
                for ii in range(0, s.p, blk.mc):
                    mcur = min(blk.mc, s.p - ii)
                    yield jj, ncur, kk, kcur, ii, mcur

    def traces(
        self, chip: ChipParams, core: int = 0
    ) -> Tuple[BatchTrace, BatchTrace]:
        """Compile ``(warm, main)`` access streams.

        Warm-up installs the just-written image and filter tensors
        (:meth:`BatchTrace.line_stores`). The main stream follows the
        loop nest: an im2col workload first materializes the patches
        matrix (image load + scratch store per element), then both
        lowerings run pack-B/pack-A/GEBP per cache block — with pack-A
        reading the scratch matrix (im2col) or gathering from the image
        (direct). Inside a block every phase is one array expression
        over its slivers or register tiles (:meth:`_pack_rows`,
        :meth:`_gebp_rows`); the GEBP streaming rows are identical in
        both lowerings.
        """
        s, mr, nr = self.spec, self.blocking.mr, self.blocking.nr
        warm = BatchTrace.line_stores(
            ((X_BASE, s.cin * s.height * s.width * _ELEM),
             (W_BASE, s.k * s.filters * _ELEM)),
            chip.l1d.line_bytes,
        )
        parts: List[BatchTrace] = []
        if self.lowering == "im2col":
            p, k = np.ogrid[0:s.p, 0:s.k]
            parts.append(_copies(self._patch_source_addresses(p, k),
                                 self._patches_addresses(p, k)))
            a_source = self._patches_addresses
        else:
            a_source = self._patch_source_addresses
        for jj, ncur, kk, kcur, ii, mcur in self._loop_nest():
            if ii is None:
                parts.append(self._pack_rows(
                    lambda j, k: W_BASE + (k * s.filters + j) * _ELEM,
                    PACKB_BASE, nr, jj, ncur, kk, kcur,
                ))
            else:
                parts.append(self._pack_rows(a_source, PACKA_BASE, mr, ii,
                                             mcur, kk, kcur))
                parts.append(self._gebp_rows(jj, ncur, kk, kcur, ii, mcur))

        shift = core * CORE_STRIDE
        return warm.shifted(shift), BatchTrace.concat(parts).shifted(shift)

    def kernel_segments(
        self, chip: ChipParams
    ) -> List[Tuple[List[Instruction], int]]:
        """The loop nest as ISA segments, one LDR per trace demand load.

        Segment bodies are cached per shape and reused (the same list
        object), so the compiled engine's per-template memo collapses
        the thousands of identical register tiles.
        """
        mr, nr = self.blocking.mr, self.blocking.nr
        src_ptr, dst_ptr = XReg(0), XReg(1)
        a_ptr, b_ptr, c_ptr = XReg(2), XReg(3), XReg(4)

        copy_body: List[Instruction] = [
            Ldr(VReg(0), src_ptr, post_increment=_ELEM, tag="copy"),
            Str(VReg(0), dst_ptr, post_increment=_ELEM, tag="copy"),
        ]

        # fmla micro-kernel body per k: mr A + nr B loads, mr*nr/2 FMAs.
        k_body: List[Instruction] = []
        a_regs = [VReg(i) for i in range(8)]
        b_regs = [VReg(8 + i) for i in range(6)]
        accs = [VReg(14 + i) for i in range(18)]
        for i in range(mr):
            k_body.append(Ldr(a_regs[i % 8], a_ptr, tag="A"))
        for j in range(nr):
            k_body.append(Ldr(b_regs[j % 6], b_ptr, tag="B"))
        n_fma = max(1, (mr * nr) // 2)
        for t in range(n_fma):
            k_body.append(
                Fmla(
                    accs[t % len(accs)],
                    a_regs[t % 8],
                    b_regs[t % 6].lane(t % 2),
                )
            )

        c_load_cache: dict = {}
        c_store_cache: dict = {}

        def c_load(n: int) -> List[Instruction]:
            if n not in c_load_cache:
                c_load_cache[n] = [
                    Ldr(accs[t % len(accs)], c_ptr, tag="C") for t in range(n)
                ]
            return c_load_cache[n]

        def c_store(n: int) -> List[Instruction]:
            if n not in c_store_cache:
                c_store_cache[n] = [
                    Str(accs[t % len(accs)], c_ptr, tag="C") for t in range(n)
                ]
            return c_store_cache[n]

        segments: List[Tuple[List[Instruction], int]] = []
        s = self.spec
        if self.lowering == "im2col":
            segments.append((copy_body, s.p * s.k))
        for jj, ncur, kk, kcur, ii, mcur in self._loop_nest():
            if ii is None:
                segments.append((copy_body, kcur * ncur))
                continue
            segments.append((copy_body, kcur * mcur))
            na, nb = -(-mcur // mr), -(-ncur // nr)
            for j in range(nb):
                nrv = min(nr, ncur - j * nr)
                for i in range(na):
                    mrv = min(mr, mcur - i * mr)
                    segments.append((c_load(mrv * nrv), 1))
                    segments.append((k_body, kcur))
                    segments.append((c_store(mrv * nrv), 1))
        return segments
