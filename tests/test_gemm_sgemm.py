"""Tests for the single-precision extension (SGEMM)."""

import numpy as np
import pytest

from repro.arch import XGENE
from repro.blocking import CacheBlocking, RegisterBlockingProblem
from repro.errors import GemmError
from repro.gemm import (
    GemmTrace,
    sgemm,
    sgemm_blocking,
    sgemm_register_blocking,
)
from repro.sim import synthesize_trace

RNG = np.random.default_rng(32)
SMALL_BLK = CacheBlocking(mr=12, nr=8, kc=32, mc=24, nc=32, k1=1, k2=1, k3=1)


def rand32(m, n):
    return RNG.standard_normal((m, n)).astype(np.float32)


class TestSgemmBlocking:
    def test_register_optimum_is_12x8(self):
        """Four float32 lanes per register admit a 12x8 tile, gamma 9.6."""
        reg = sgemm_register_blocking()
        assert (reg.mr, reg.nr) == (12, 8)
        assert reg.gamma == pytest.approx(9.6)

    def test_lane_constraint_is_multiples_of_four(self):
        p = RegisterBlockingProblem.from_core(XGENE.core, element_size=4)
        assert p.lanes_ok(12, 8)
        assert not p.lanes_ok(8, 6)  # the DGEMM tile is not lane-legal

    def test_sgemm_gamma_beats_dgemm_gamma(self):
        """Halving the element size strictly increases the achievable
        compute-to-memory ratio."""
        sp = sgemm_register_blocking()
        dp = RegisterBlockingProblem.from_core(XGENE.core).solve()
        assert sp.gamma > dp.gamma

    def test_cache_blocking_keeps_l1_fraction(self):
        """The derived kc keeps the B sliver at 3/4 of the L1, exactly as
        the double-precision derivation does (the fraction is element-size
        invariant)."""
        blk = sgemm_blocking()
        assert blk.kc * blk.nr * 4 == XGENE.l1d.size_bytes * 3 // 4

    def test_threads_shrink_mc(self):
        assert sgemm_blocking(threads=8).mc < sgemm_blocking(threads=1).mc


class TestSgemmCorrectness:
    @pytest.mark.parametrize("shape", [(1, 1, 1), (12, 8, 32), (50, 70, 60),
                                       (97, 33, 41)])
    def test_matches_numpy(self, shape):
        m, n, k = shape
        a, b, c = rand32(m, k), rand32(k, n), rand32(m, n)
        got = sgemm(a, b, c.copy(), blocking=SMALL_BLK)
        want = a @ b + c
        assert got.dtype == np.float32
        assert np.allclose(got, want, atol=1e-3)

    def test_alpha_beta(self):
        a, b, c = rand32(30, 20), rand32(20, 25), rand32(30, 25)
        got = sgemm(a, b, c.copy(), alpha=2.0, beta=-1.0, blocking=SMALL_BLK)
        assert np.allclose(got, 2 * (a @ b) - c, atol=1e-3)

    def test_alpha_zero(self):
        a, b, c = rand32(8, 8), rand32(8, 8), rand32(8, 8)
        got = sgemm(a, b, c.copy(), alpha=0.0, beta=0.5)
        assert np.allclose(got, 0.5 * c)

    def test_default_blocking_used(self):
        a, b, c = rand32(16, 16), rand32(16, 16), rand32(16, 16)
        got = sgemm(a, b, c.copy())
        assert np.allclose(got, a @ b + c, atol=1e-3)

    def test_validation(self):
        with pytest.raises(GemmError):
            sgemm(rand32(4, 5), rand32(6, 4), rand32(4, 4))
        with pytest.raises(GemmError):
            sgemm(np.zeros(3, dtype=np.float32), rand32(3, 3), rand32(1, 3))

    def test_trace_recorded(self):
        trace = GemmTrace()
        a, b, c = rand32(40, 40), rand32(40, 40), rand32(40, 40)
        sgemm(a, b, c.copy(), blocking=SMALL_BLK, trace=trace)
        assert trace.flops == 2 * 40 * 40 * 40

    @pytest.mark.parametrize("shape", [(40, 40, 40), (25, 17, 70), (1, 9, 3)])
    def test_trace_matches_synthesized(self, shape):
        """The float32 nest records the serial driver's event structure,
        event for event."""
        m, n, k = shape
        trace = GemmTrace()
        sgemm(rand32(m, k), rand32(k, n), rand32(m, n), alpha=0.5,
              beta=0.0, blocking=SMALL_BLK, trace=trace)
        want = synthesize_trace(m, n, k, SMALL_BLK)
        assert (trace.m, trace.n, trace.k, trace.threads) == (m, n, k, 1)
        assert trace.packs == want.packs
        assert trace.gebps == want.gebps

    def test_float64_and_float32_scalars_agree(self):
        """Scalars are converted to float32 before they touch a float32
        operand: a float64 ``alpha``/``beta`` must not promote the
        products (that would change ~20% of the elements)."""
        a, b, c = rand32(30, 20), rand32(20, 25), rand32(30, 25)
        got = {
            kind: sgemm(a, b, c.copy(), alpha=kind(0.1), beta=kind(0.1),
                        blocking=SMALL_BLK).tobytes()
            for kind in (float, np.float64, np.float32)
        }
        assert got[np.float64] == got[np.float32] == got[float]
