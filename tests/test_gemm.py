"""Unit and integration tests for the functional Goto DGEMM."""

import numpy as np
import pytest

from repro.blocking import CacheBlocking, solve_cache_blocking
from repro.arch import XGENE
from repro.errors import GemmError
from repro.gemm import (
    DEFAULT_BLOCKING,
    GemmTrace,
    PackEvent,
    WorkerPool,
    dgemm,
    gebp,
    gess,
    naive_dgemm,
    num_slivers,
    numpy_dgemm,
    pack_a,
    pack_b,
    parallel_dgemm,
)
from tests.helpers import unpack_a, unpack_b

RNG = np.random.default_rng(12345)


def fmat(m, n):
    """Column-major random matrix (the paper's storage order)."""
    return np.asfortranarray(RNG.standard_normal((m, n)))


SMALL_BLOCKING = CacheBlocking(
    mr=8, nr=6, kc=64, mc=24, nc=48, k1=1, k2=2, k3=1
)


class TestPacking:
    def test_pack_a_layout(self):
        a = fmat(16, 4)
        packed = pack_a(a, 8)
        assert packed.shape == (2, 4, 8)
        # out[s, k, i] == A[s*8 + i, k]
        assert packed[0, 2, 3] == a[3, 2]
        assert packed[1, 1, 5] == a[13, 1]

    def test_pack_a_padding(self):
        a = fmat(10, 3)
        packed = pack_a(a, 8)
        assert packed.shape == (2, 3, 8)
        assert np.all(packed[1, :, 2:] == 0.0)

    def test_pack_b_layout(self):
        b = fmat(5, 12)
        packed = pack_b(b, 6)
        assert packed.shape == (2, 5, 6)
        assert packed[0, 3, 4] == b[3, 4]
        assert packed[1, 2, 1] == b[2, 7]

    def test_pack_b_padding(self):
        b = fmat(4, 8)
        packed = pack_b(b, 6)
        assert np.all(packed[1, :, 2:] == 0.0)

    def test_pack_unpack_roundtrip(self):
        a = fmat(21, 13)
        assert np.array_equal(unpack_a(pack_a(a, 8), 21), a)
        b = fmat(13, 31)
        assert np.array_equal(unpack_b(pack_b(b, 6), 31), b)

    def test_packed_buffer_is_contiguous(self):
        packed = pack_a(fmat(16, 8), 8)
        assert packed.flags.c_contiguous

    def test_num_slivers(self):
        assert num_slivers(56, 8) == 7
        assert num_slivers(57, 8) == 8
        assert num_slivers(0, 8) == 0
        with pytest.raises(GemmError):
            num_slivers(10, 0)

    def test_pack_rejects_bad_input(self):
        with pytest.raises(GemmError):
            pack_a(np.zeros(5), 8)
        with pytest.raises(GemmError):
            pack_b(np.zeros((4, 4)), -1)


class TestGess:
    def test_rank_update(self):
        kc, mr, nr = 32, 8, 6
        a = RNG.standard_normal((kc, mr))
        b = RNG.standard_normal((kc, nr))
        c = np.zeros((mr, nr))
        gess(a, b, c)
        assert np.allclose(c, a.T @ b)

    def test_partial_tile(self):
        a = RNG.standard_normal((16, 8))
        b = RNG.standard_normal((16, 6))
        c = np.zeros((5, 4))  # ragged C tile
        gess(a, b, c)
        assert np.allclose(c, a[:, :5].T @ b[:, :4])

    def test_kc_mismatch(self):
        with pytest.raises(GemmError):
            gess(np.zeros((4, 8)), np.zeros((5, 6)), np.zeros((8, 6)))


class TestGebp:
    def test_block_panel_product(self):
        mc, kc, nc = 24, 32, 30
        a = fmat(mc, kc)
        b = fmat(kc, nc)
        c = np.zeros((mc, nc), order="F")
        gebp(pack_a(a, 8), pack_b(b, 6), c, 8, 6)
        assert np.allclose(c, a @ b)

    def test_ragged_extents(self):
        mc, kc, nc = 21, 17, 25
        a, b = fmat(mc, kc), fmat(kc, nc)
        c = np.zeros((mc, nc), order="F")
        gebp(pack_a(a, 8), pack_b(b, 6), c, 8, 6)
        assert np.allclose(c, a @ b)

    def test_accumulates(self):
        a, b = fmat(8, 4), fmat(4, 6)
        c0 = fmat(8, 6)
        c = c0.copy(order="F")
        gebp(pack_a(a, 8), pack_b(b, 6), c, 8, 6)
        assert np.allclose(c, c0 + a @ b)

    def test_mismatched_buffers(self):
        with pytest.raises(GemmError):
            gebp(pack_a(fmat(8, 4), 8), pack_b(fmat(5, 6), 6),
                 np.zeros((8, 6)), 8, 6)
        with pytest.raises(GemmError):
            gebp(pack_a(fmat(8, 4), 4), pack_b(fmat(4, 6), 6),
                 np.zeros((8, 6)), 8, 6)


class TestDgemm:
    @pytest.mark.parametrize("shape", [
        (1, 1, 1), (8, 6, 1), (64, 64, 64), (65, 67, 63),
        (130, 97, 150), (16, 200, 16),
    ])
    def test_matches_numpy(self, shape):
        m, n, k = shape
        a, b, c = fmat(m, k), fmat(k, n), fmat(m, n)
        ref = numpy_dgemm(a, b, c)
        got = dgemm(a, b, c.copy(order="F"), blocking=SMALL_BLOCKING)
        assert np.allclose(got, ref, atol=1e-10)

    def test_alpha_beta(self):
        a, b, c = fmat(40, 30), fmat(30, 20), fmat(40, 20)
        ref = numpy_dgemm(a, b, c, alpha=2.5, beta=-0.5)
        got = dgemm(a, b, c.copy(order="F"), alpha=2.5, beta=-0.5,
                    blocking=SMALL_BLOCKING)
        assert np.allclose(got, ref, atol=1e-10)

    def test_alpha_zero_scales_only(self):
        a, b, c = fmat(8, 8), fmat(8, 8), fmat(8, 8)
        got = dgemm(a, b, c.copy(order="F"), alpha=0.0, beta=3.0)
        assert np.allclose(got, 3.0 * c)

    def test_beta_applied_once_across_k_blocks(self):
        """K spans several kc blocks; beta must scale C exactly once."""
        m, n, k = 16, 12, 200  # k > 3 * kc for the small blocking
        a, b, c = fmat(m, k), fmat(k, n), fmat(m, n)
        ref = numpy_dgemm(a, b, c, beta=0.25)
        got = dgemm(a, b, c.copy(order="F"), beta=0.25,
                    blocking=SMALL_BLOCKING)
        assert np.allclose(got, ref, atol=1e-10)

    def test_default_blocking_is_papers(self):
        assert (DEFAULT_BLOCKING.kc, DEFAULT_BLOCKING.mc,
                DEFAULT_BLOCKING.nc) == (512, 56, 1920)

    def test_matches_naive_reference(self):
        a, b, c = fmat(9, 7), fmat(7, 11), fmat(9, 11)
        ref = naive_dgemm(a, b, c, alpha=1.5, beta=0.5)
        got = dgemm(a, b, c.copy(order="F"), alpha=1.5, beta=0.5,
                    blocking=SMALL_BLOCKING)
        assert np.allclose(got, ref, atol=1e-10)

    def test_shape_validation(self):
        with pytest.raises(GemmError):
            dgemm(fmat(4, 5), fmat(6, 4), fmat(4, 4))
        with pytest.raises(GemmError):
            dgemm(fmat(4, 5), fmat(5, 4), fmat(3, 4))

    def test_trace_records_structure(self):
        m, n, k = 100, 100, 100
        trace = GemmTrace()
        dgemm(fmat(m, k), fmat(k, n), fmat(m, n), blocking=SMALL_BLOCKING,
              trace=trace)
        assert trace.m == m and trace.flops == 2 * m * n * k
        # jj panels: ceil(100/48)=3; kk blocks: ceil(100/64)=2;
        # ii blocks: ceil(100/24)=5.
        assert len(trace.gebps) == 3 * 2 * 5
        assert len([p for p in trace.packs if p.operand == "B"]) == 6
        assert len([p for p in trace.packs if p.operand == "A"]) == 30


class TestParallelDgemm:
    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    def test_matches_numpy(self, threads):
        m, n, k = 120, 90, 70
        a, b, c = fmat(m, k), fmat(k, n), fmat(m, n)
        ref = numpy_dgemm(a, b, c)
        got = parallel_dgemm(a, b, c.copy(order="F"), threads=threads,
                             blocking=SMALL_BLOCKING)
        assert np.allclose(got, ref, atol=1e-10)

    def test_os_threads_same_result(self):
        m, n, k = 96, 64, 48
        a, b, c = fmat(m, k), fmat(k, n), fmat(m, n)
        seq = parallel_dgemm(a, b, c.copy(order="F"), threads=4,
                             blocking=SMALL_BLOCKING)
        with WorkerPool(4) as pool:
            par = parallel_dgemm(a, b, c.copy(order="F"), threads=4,
                                 blocking=SMALL_BLOCKING, pool=pool)
        assert np.array_equal(seq, par)

    def test_alpha_beta(self):
        a, b, c = fmat(50, 40), fmat(40, 30), fmat(50, 30)
        ref = numpy_dgemm(a, b, c, alpha=-1.0, beta=2.0)
        got = parallel_dgemm(a, b, c.copy(order="F"), threads=2,
                             alpha=-1.0, beta=2.0, blocking=SMALL_BLOCKING)
        assert np.allclose(got, ref, atol=1e-10)

    def test_round_robin_distribution(self):
        trace = GemmTrace()
        m = 24 * 7  # 7 row blocks over 3 threads -> 3,2,2
        a, b, c = fmat(m, 32), fmat(32, 48), fmat(m, 48)
        parallel_dgemm(a, b, c, threads=3, blocking=SMALL_BLOCKING,
                       trace=trace)
        counts = [
            len([g for g in trace.gebps if g.thread == t]) for t in range(3)
        ]
        assert counts == [3, 2, 2]

    def test_default_blocking_derived_for_threads(self):
        trace = GemmTrace()
        a, b, c = fmat(64, 64), fmat(64, 64), fmat(64, 64)
        got = parallel_dgemm(a, b, c.copy(order="F"), threads=8, trace=trace)
        assert np.allclose(got, numpy_dgemm(a, b, c), atol=1e-10)
        assert trace.threads == 8

    def test_thread_validation(self):
        a, b, c = fmat(8, 8), fmat(8, 8), fmat(8, 8)
        with pytest.raises(GemmError):
            parallel_dgemm(a, b, c, threads=0)
        with pytest.raises(GemmError):
            parallel_dgemm(a, b, c, threads=9)


class TestTraceAccounting:
    def test_flops_property(self):
        t = GemmTrace()
        t.record_gebp(8, 4, 6)
        t.record_gebp(8, 4, 6)
        assert t.flops == 2 * 2 * 8 * 4 * 6

    def test_pack_accounting(self):
        t = GemmTrace()
        t.record_pack("A", 56, 512, thread=1)
        t.record_pack("B", 512, 1920)
        assert t.packs == [PackEvent("A", 56, 512, 1),
                           PackEvent("B", 512, 1920, 0)]


class TestBetaZeroSemantics:
    """BLAS: beta = 0 overwrites C without reading it (NaN-safe)."""

    def test_dgemm_beta_zero_ignores_nan(self):
        a, b = fmat(8, 8), fmat(8, 8)
        c = np.full((8, 8), np.nan, order="F")
        out = dgemm(a, b, c, alpha=1.0, beta=0.0, blocking=SMALL_BLOCKING)
        assert not np.isnan(out).any()
        assert np.allclose(out, a @ b, atol=1e-12)

    def test_parallel_beta_zero_ignores_nan(self):
        a, b = fmat(30, 30), fmat(30, 30)
        c = np.full((30, 30), np.nan, order="F")
        out = parallel_dgemm(a, b, c, threads=3, alpha=1.0, beta=0.0,
                             blocking=SMALL_BLOCKING)
        assert not np.isnan(out).any()

    def test_alpha_zero_beta_zero_gives_zeros(self):
        a, b = fmat(4, 4), fmat(4, 4)
        c = np.full((4, 4), np.inf, order="F")
        out = dgemm(a, b, c, alpha=0.0, beta=0.0)
        assert np.array_equal(out, np.zeros((4, 4)))

    def test_sgemm_beta_zero_ignores_nan(self):
        from repro.gemm import sgemm

        a = np.ones((8, 8), dtype=np.float32)
        b = np.ones((8, 8), dtype=np.float32)
        c = np.full((8, 8), np.nan, dtype=np.float32)
        out = sgemm(a, b, c, alpha=1.0, beta=0.0)
        assert not np.isnan(out).any()


class TestParallelAxisN:
    """Layer-1 parallelization (the Fig. 9 ablation) — numerics."""

    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_axis_n_matches_numpy(self, threads):
        m, n, k = 110, 140, 60
        a, b, c = fmat(m, k), fmat(k, n), fmat(m, n)
        got = parallel_dgemm(a, b, c.copy(order="F"), threads=threads,
                             blocking=SMALL_BLOCKING, axis="n")
        assert np.allclose(got, numpy_dgemm(a, b, c), atol=1e-10)

    def test_axis_n_alpha_beta(self):
        a, b, c = fmat(40, 30), fmat(30, 50), fmat(40, 50)
        got = parallel_dgemm(a, b, c.copy(order="F"), threads=3,
                             alpha=2.0, beta=-1.0,
                             blocking=SMALL_BLOCKING, axis="n")
        assert np.allclose(got, 2 * (a @ b) - c, atol=1e-10)

    def test_axis_n_trace_ownership(self):
        """Each column panel's B pack belongs to its owning thread."""
        trace = GemmTrace()
        m, n, k = 48, 48 * 4, 32  # 4 column panels of nc=48
        parallel_dgemm(fmat(m, k), fmat(k, n), fmat(m, n), threads=2,
                       blocking=SMALL_BLOCKING, axis="n", trace=trace)
        b_threads = {p.thread for p in trace.packs if p.operand == "B"}
        assert b_threads == {0, 1}

    def test_axis_n_synthetic_trace_matches(self):
        from repro.sim import synthesize_trace

        m, n, k = 100, 200, 60
        trace = GemmTrace()
        parallel_dgemm(fmat(m, k), fmat(k, n), fmat(m, n), threads=3,
                       blocking=SMALL_BLOCKING, axis="n", trace=trace)
        synth = synthesize_trace(m, n, k, SMALL_BLOCKING, threads=3,
                                 axis="n")
        assert synth.gebps == trace.gebps
        assert synth.packs == trace.packs

    def test_invalid_axis(self):
        a, b, c = fmat(8, 8), fmat(8, 8), fmat(8, 8)
        with pytest.raises(GemmError):
            parallel_dgemm(a, b, c, threads=2, axis="k")
