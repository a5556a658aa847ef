"""Inverses and views that only the test suite needs.

- ``unpack_a``/``unpack_b`` invert :func:`repro.gemm.packing.pack_a` and
  :func:`repro.gemm.packing.pack_b`, dropping the zero padding.
- ``reconstruct`` rebuilds ``P^{-1} L U`` from a blocked LU factorization.
- ``single_core`` is a one-core view of a chip for serial experiments.
- ``conv_reference`` is the plain einsum convolution, the numeric
  (allclose) reference of the conv lowerings.
- ``conv_trace_reference`` is the conv workload's access stream built
  one record at a time by a plain loop nest, the reference of
  ``ConvWorkload.traces``.
- ``interpreted_pipeline`` runs a workload's kernel segments through
  the scoreboard interpreter, the reference of ``timed_workload``.
- ``num_lines``/``lines_for`` count a cache's lines and the lines a byte
  range needs; ``contains_line`` asks a cache for one line without
  touching its state; ``trace_of`` compiles ``Access`` records into a
  ``BatchTrace``.
- ``flops_per_fmla``/``lane_efficiency``/``flops_per_body`` read a
  kernel's useful flops per FMLA, FMLA lane use and useful flops per
  unrolled body; ``efficiency_from_gamma`` prices a
  compute-to-memory ratio with the load-interference model.
"""

from dataclasses import replace

import numpy as np

from repro.apps.lu import LuResult
from repro.arch import XGENE, CacheParams, ChipParams
from repro.errors import ArchitectureError, SimulationError
from repro.kernels.kernel_spec import LANES
from repro.memory.batch import BatchTrace
from repro.memory.cache import CODE_LOAD, CODE_STORE, KIND_TO_CODE
from repro.pipeline.scoreboard import PipelineResult, ScoreboardCore


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


def conv_trace_reference(workload, line_bytes: int):
    """``(warm, main)`` record tuples of a ``ConvWorkload`` at core 0.

    Each record is ``(address, nbytes, kind, level)``, built per element
    by the plain Goto loop nest: the im2col copy, then per cache block
    pack-B slivers, pack-A slivers and the GEBP register tiles (C loads,
    per k the ``mr`` packed-A then ``nr`` packed-B loads, C stores).
    """
    from repro.workloads import conv

    s, blk = workload.spec, workload.blocking
    mr, nr, e = blk.mr, blk.nr, 8
    warm = [
        (base + off, 1, CODE_STORE, 1)
        for base, nbytes in ((conv.X_BASE, s.cin * s.height * s.width * e),
                             (conv.W_BASE, s.k * s.filters * e))
        for off in range(0, nbytes, line_bytes)
    ]
    main = []

    def copy(src, dst):
        main.extend([(src, e, CODE_LOAD, 1), (dst, e, CODE_STORE, 1)])

    def image(p, k):
        oy, ox = divmod(p, s.out_width)
        c, rem = divmod(k, s.kh * s.kw)
        dh, dw = divmod(rem, s.kw)
        return conv.X_BASE + ((c * s.height + oy + dh) * s.width
                              + ox + dw) * e

    def patches(p, k):
        return conv.PATCHES_BASE + (p * s.k + k) * e

    def pack(source, dst_base, r, cur, kcur):
        for sliver in range(-(-cur // r)):
            for k in range(kcur):
                for lane in range(r):
                    if sliver * r + lane < cur:
                        copy(source(sliver * r + lane, k), dst_base
                             + ((sliver * kcur + k) * r + lane) * e)

    if workload.lowering == "im2col":
        for p in range(s.p):
            for k in range(s.k):
                copy(image(p, k), patches(p, k))
    a_source = patches if workload.lowering == "im2col" else image
    for jj in range(0, s.filters, blk.nc):
        ncur = min(blk.nc, s.filters - jj)
        for kk in range(0, s.k, blk.kc):
            kcur = min(blk.kc, s.k - kk)
            pack(lambda j, k: conv.W_BASE + ((kk + k) * s.filters + jj + j) * e,
                 conv.PACKB_BASE, nr, ncur, kcur)
            for ii in range(0, s.p, blk.mc):
                mcur = min(blk.mc, s.p - ii)
                pack(lambda i, k: a_source(ii + i, kk + k),
                     conv.PACKA_BASE, mr, mcur, kcur)
                for tj in range(-(-ncur // nr)):
                    for ti in range(-(-mcur // mr)):
                        cells = [
                            conv.C_BASE + ((jj + col) * s.p + ii + row) * e
                            for col in range(tj * nr, min(tj * nr + nr, ncur))
                            for row in range(ti * mr, min(ti * mr + mr, mcur))
                        ]
                        main.extend((a, e, CODE_LOAD, 1) for a in cells)
                        for k in range(kcur):
                            main.extend(
                                (conv.PACKA_BASE
                                 + ((ti * kcur + k) * mr + lane) * e,
                                 e, CODE_LOAD, 1)
                                for lane in range(mr)
                            )
                            main.extend(
                                (conv.PACKB_BASE
                                 + ((tj * kcur + k) * nr + lane) * e,
                                 e, CODE_LOAD, 1)
                                for lane in range(nr)
                            )
                        main.extend((a, e, CODE_STORE, 1) for a in cells)
    return warm, main


def interpreted_pipeline(workload, chip: ChipParams, cache) -> PipelineResult:
    """``workload``'s kernel segments run instruction by instruction
    through :meth:`ScoreboardCore.run`, each demand load at its latency
    from the cache replay ``cache``."""
    flat = [instr for body, repeat in workload.kernel_segments(chip)
            for instr in list(body) * repeat]
    lats = iter(cache.load_latencies.tolist())
    lat_of = {i: next(lats) for i, instr in enumerate(flat) if instr.is_load}
    return ScoreboardCore(chip.core).run(
        flat, repeat=1, latency_fn=lambda instr, i: lat_of.get(i, 0)
    )


def num_lines(params: CacheParams) -> int:
    """Total number of lines in a cache of geometry ``params``."""
    return params.size_bytes // params.line_bytes


def lines_for(params: CacheParams, nbytes: int) -> int:
    """Number of cache lines needed to hold ``nbytes`` contiguous bytes."""
    if nbytes < 0:
        raise ArchitectureError("nbytes must be non-negative")
    return -(-nbytes // params.line_bytes)


def contains_line(cache, line: int) -> bool:
    """True if ``line`` is resident in ``cache`` (no state update)."""
    return line in cache.set_contents(line % cache.params.num_sets)


def trace_of(accesses) -> BatchTrace:
    """Compile an iterable of ``Access`` records (a generator trace from
    ``repro.memory.trace``, a list, ...) into a ``BatchTrace``."""
    rows = []
    for acc in accesses:
        try:
            code = KIND_TO_CODE[acc.kind]
        except KeyError:
            raise SimulationError(
                f"unknown access kind: {acc.kind!r}"
            ) from None
        rows.append((acc.address, acc.nbytes, code, acc.level))
    return BatchTrace.from_rows(rows)


def flops_per_fmla(spec) -> float:
    """Useful flops per FMLA of a kernel spec (4.0 when no lanes are
    wasted)."""
    return spec.flops_per_group / spec.fmla_per_group


def lane_efficiency(spec) -> float:
    """Fraction of a kernel spec's FMLA lanes doing useful work."""
    return flops_per_fmla(spec) / (2 * LANES)


def flops_per_body(kernel) -> int:
    """Useful flops of one unrolled body of a generated kernel."""
    return kernel.spec.flops_per_iter * kernel.plan.unroll


def efficiency_from_gamma(model, gamma: float) -> float:
    """The load-interference model's efficiency at ``gamma`` flops per
    word moved from L1 to registers (eq. (8) of the paper). For this ISA
    ``gamma = 2*F/L``, so ``L/F = 2/gamma``."""
    if gamma <= 0:
        raise SimulationError("gamma must be positive")
    return model.efficiency(2.0 / gamma, 1.0)
