"""The Goto loop nest — layers 1-3 of the paper's Fig. 2 — and DGEMM on it.

``dgemm`` computes ``C := alpha * A @ B + beta * C`` for column-major
float64 matrices through the exact blocking/packing structure of the paper:

- layer 1: partition C and B into ``nc``-column panels (loop ``jj``);
- layer 2: partition A into ``kc``-deep column panels and B into ``kc x nc``
  row panels (loop ``kk``) — C is updated by a sequence of rank-kc GEPPs,
  with ``beta`` applied on the first one;
- layer 3: partition each A panel into ``mc x kc`` blocks (loop ``ii``) —
  GEPP becomes a series of GEBP calls.

This module is the only home of that nest: :func:`prepare_operands`
(coerce, validate, the ``alpha == 0 or k == 0`` shortcut), the layer-2
:func:`panel_step`, the layer-3 :func:`block_step` (A packed through a
packer callable) and :func:`goto_nest` over a set of column panels.
``dgemm``, :func:`~repro.gemm.sgemm.sgemm`,
:func:`~repro.workloads.conv.conv_direct` and each ``axis="n"`` task of
:func:`~repro.gemm.parallel.parallel_dgemm` run :func:`goto_nest`; the
``axis="m"`` split puts its barrier between the two steps.

B panels are packed once per (jj, kk) iteration; A blocks once per
(jj, kk, ii). The optional :class:`~repro.gemm.trace.GemmTrace` records the
loop structure for the performance simulator.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Optional, Tuple

import numpy as np

from repro.blocking.cache_blocking import CacheBlocking
from repro.errors import GemmError
from repro.gemm.gebp import gebp
from repro.gemm.packing import pack_a, pack_b
from repro.gemm.pool import ThreadCounters
from repro.gemm.trace import GemmTrace
from repro.gemm.workspace import GemmWorkspace

_clock = time.perf_counter

#: The paper's headline configuration (Table III, serial).
DEFAULT_BLOCKING = CacheBlocking(
    mr=8, nr=6, kc=512, mc=56, nc=1920, k1=1, k2=2, k3=1
)

#: Layer-3 A packer: ``(ii, mcur, kk, kcur, out) -> packed mcur x kcur
#: block``; ``out`` is a reusable buffer or ``None``.
Packer = Callable[
    [int, int, int, int, Optional["np.ndarray"]], "np.ndarray"
]


def _validate_operands(
    a: "np.ndarray", b: "np.ndarray", c: "np.ndarray"
) -> None:
    if a.ndim != 2 or b.ndim != 2 or c.ndim != 2:
        raise GemmError("A, B and C must be 2-D")
    m, k = a.shape
    k2, n = b.shape
    if k != k2:
        raise GemmError(f"inner dimensions differ: A is {a.shape}, B is {b.shape}")
    if c.shape != (m, n):
        raise GemmError(f"C has shape {c.shape}, expected {(m, n)}")


def _scale(c: "np.ndarray", beta: float) -> None:
    """``c *= beta`` in c's dtype; BLAS semantics: ``beta = 0`` overwrites
    C without reading it (NaN/Inf in C must not leak through)."""
    if beta == 0.0:
        c[:] = 0.0
    else:
        c *= c.dtype.type(beta)


def prepare_operands(
    a: "np.ndarray",
    b: "np.ndarray",
    c: "np.ndarray",
    alpha: float,
    beta: float,
    trace: Optional[GemmTrace] = None,
    threads: int = 1,
    dtype: type = np.float64,
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray", bool]:
    """Coerce to ``dtype``, validate and record the trace dimensions.

    C is updated in place when it already is a writable ``dtype`` array,
    otherwise a copy is made. Returns ``(a, b, c, done)``; ``done`` means
    the ``alpha == 0 or k == 0`` shortcut already left ``beta * C`` in C.
    """
    a = np.asarray(a, dtype=dtype)
    b = np.asarray(b, dtype=dtype)
    c_arr = np.asarray(c)
    if c_arr.dtype != dtype or not c_arr.flags.writeable:
        c_arr = np.array(c_arr, dtype=dtype)
    _validate_operands(a, b, c_arr)
    m, k = a.shape
    if trace is not None:
        trace.m, trace.n, trace.k, trace.threads = m, b.shape[1], k, threads
    done = alpha == 0.0 or k == 0
    if done:
        _scale(c_arr, beta)
    return a, b, c_arr, done


def a_packer(a: "np.ndarray", mr: int) -> Packer:
    """The packer of a stored A: :func:`pack_a` over its (ii, kk) block."""
    return lambda ii, mcur, kk, kcur, out: pack_a(
        a[ii : ii + mcur, kk : kk + kcur], mr, dtype=a.dtype, out=out
    )


def panel_step(
    b: "np.ndarray",
    c: "np.ndarray",
    jj: int,
    ncur: int,
    kk: int,
    kcur: int,
    alpha: float,
    beta: float,
    blk: CacheBlocking,
    out: Optional["np.ndarray"] = None,
    thread: int = 0,
    trace: Optional[GemmTrace] = None,
    counters: Optional[ThreadCounters] = None,
) -> "np.ndarray":
    """Layer 2: ``beta`` on the first ``kk``, then the packed B panel.

    ``alpha`` is folded into the packed ``kcur x ncur`` panel once,
    converted to the panel's dtype first (a float64 scalar must not
    promote a float32 product).
    """
    if kk == 0 and beta != 1.0:
        _scale(c[:, jj : jj + ncur], beta)
    t0 = _clock() if counters is not None else 0.0
    packed_b = pack_b(
        b[kk : kk + kcur, jj : jj + ncur], blk.nr, dtype=b.dtype, out=out
    )
    if alpha != 1.0:
        packed_b *= packed_b.dtype.type(alpha)
    if counters is not None:
        counters.pack_b_seconds += _clock() - t0
        counters.pack_b_calls += 1
    if trace is not None:
        trace.record_pack("B", kcur, ncur, thread=thread)
    return packed_b


def block_step(
    pack: Packer,
    packed_b: "np.ndarray",
    c: "np.ndarray",
    jj: int,
    ncur: int,
    kk: int,
    kcur: int,
    ii: int,
    blk: CacheBlocking,
    ws: Optional[GemmWorkspace] = None,
    thread: int = 0,
    trace: Optional[GemmTrace] = None,
    counters: Optional[ThreadCounters] = None,
) -> None:
    """Layer 3: pack the ``mc x kc`` A block at ``(ii, kk)`` (into
    ``thread``'s workspace buffer, if any), then GEBP it into C."""
    mcur = min(blk.mc, c.shape[0] - ii)
    if trace is not None:
        trace.record_pack("A", mcur, kcur, thread=thread)
        trace.record_gebp(mcur, kcur, ncur, thread=thread, beta_pass=kk == 0)
    t0 = _clock() if counters is not None else 0.0
    packed_a = pack(
        ii, mcur, kk, kcur,
        None if ws is None else ws.a_buffer(thread, mcur, kcur, blk.mr),
    )
    if counters is not None:
        t1 = _clock()
        counters.pack_a_seconds += t1 - t0
        counters.pack_a_calls += 1
    gebp(packed_a, packed_b, c[ii : ii + mcur, jj : jj + ncur], blk.mr, blk.nr)
    if counters is not None:
        counters.gebp_seconds += _clock() - t1
        counters.gebp_calls += 1


def goto_nest(
    pack: Packer,
    b: "np.ndarray",
    c: "np.ndarray",
    alpha: float,
    beta: float,
    blk: CacheBlocking,
    panels: Iterable[int],
    ws: Optional[GemmWorkspace] = None,
    thread: int = 0,
    private_b: bool = False,
    trace: Optional[GemmTrace] = None,
    counters: Optional[ThreadCounters] = None,
) -> None:
    """Layers 2-3 over the column panels starting at ``panels`` (layer 1).

    ``C[:, jj:jj+nc] := alpha * A @ B[:, jj:jj+nc] + beta * C[...]`` for
    each ``jj``, with A reached only through ``pack``. The B panel buffer
    is the workspace's shared one, or ``thread``'s own with
    ``private_b``.
    """
    k, n = b.shape
    for jj in panels:
        ncur = min(blk.nc, n - jj)
        for kk in range(0, k, blk.kc):
            kcur = min(blk.kc, k - kk)
            out = None if ws is None else ws.b_buffer(
                kcur, ncur, blk.nr, thread=thread if private_b else None
            )
            packed_b = panel_step(
                b, c, jj, ncur, kk, kcur, alpha, beta, blk, out,
                thread, trace, counters,
            )
            for ii in range(0, c.shape[0], blk.mc):
                block_step(
                    pack, packed_b, c, jj, ncur, kk, kcur, ii, blk, ws,
                    thread, trace, counters,
                )


def dgemm(
    a: "np.ndarray",
    b: "np.ndarray",
    c: "np.ndarray",
    alpha: float = 1.0,
    beta: float = 1.0,
    blocking: Optional[CacheBlocking] = None,
    trace: Optional[GemmTrace] = None,
    workspace: Optional["GemmWorkspace"] = None,
) -> "np.ndarray":
    """Blocked, packed DGEMM: ``C := alpha * A @ B + beta * C``.

    Args:
        a: ``M x K`` matrix.
        b: ``K x N`` matrix.
        c: ``M x N`` matrix, updated in place (a float64 copy is made and
            returned if ``c`` is not float64/writable).
        alpha, beta: Scalars of the BLAS interface.
        blocking: Block sizes; defaults to the paper's 8x6 serial blocking.
        trace: Optional structural trace collector.
        workspace: Optional :class:`~repro.gemm.workspace.GemmWorkspace`
            whose cached buffers replace the per-iteration packed-array
            allocations (numerics are unchanged).

    Returns:
        The updated C (same object as ``c`` when possible).
    """
    a, b, c_arr, done = prepare_operands(a, b, c, alpha, beta, trace)
    if not done:
        blk = blocking or DEFAULT_BLOCKING
        goto_nest(
            a_packer(a, blk.mr), b, c_arr, alpha, beta, blk,
            range(0, b.shape[1], blk.nc), ws=workspace, trace=trace,
        )
    return c_arr
