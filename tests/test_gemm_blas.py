"""Tests for the BLAS-convention interface (transposes, syrk)."""

import sys
import threading

import numpy as np
import pytest

from repro.blocking import CacheBlocking
from repro.errors import GemmError
from repro.gemm import (
    GemmTrace,
    GemmWorkspace,
    PoolStats,
    WorkerPool,
    dgemm,
    get_shared_workspace,
    parallel_dgemm,
)
from repro.gemm.blas import gemm, syrk

RNG = np.random.default_rng(7)
BLK = CacheBlocking(mr=8, nr=6, kc=32, mc=24, nc=24, k1=1, k2=1, k3=1)


def rand(m, n):
    return np.asfortranarray(RNG.standard_normal((m, n)))


class TestGemmTranspose:
    @pytest.mark.parametrize("ta,tb", [("N", "N"), ("T", "N"),
                                       ("N", "T"), ("T", "T")])
    def test_all_transpose_combinations(self, ta, tb):
        m, n, k = 37, 29, 41
        a = rand(m, k) if ta == "N" else rand(k, m)
        b = rand(k, n) if tb == "N" else rand(n, k)
        c = rand(m, n)
        aa = a if ta == "N" else a.T
        bb = b if tb == "N" else b.T
        got = gemm(ta, tb, 1.5, a, b, 0.5, c.copy(order="F"), blocking=BLK)
        assert np.allclose(got, 1.5 * aa @ bb + 0.5 * c, atol=1e-10)

    def test_lowercase_accepted(self):
        a, b, c = rand(8, 8), rand(8, 8), rand(8, 8)
        got = gemm("t", "n", 1.0, a, b, 0.0, c.copy(order="F"), blocking=BLK)
        assert np.allclose(got, a.T @ b, atol=1e-11)

    def test_threads(self):
        m, n, k = 50, 40, 30
        a, b, c = rand(k, m), rand(k, n), rand(m, n)
        got = gemm("T", "N", 1.0, a, b, 1.0, c.copy(order="F"),
                   blocking=BLK, threads=4)
        assert np.allclose(got, a.T @ b + c, atol=1e-10)

    def test_invalid_trans(self):
        a, b, c = rand(4, 4), rand(4, 4), rand(4, 4)
        with pytest.raises(GemmError):
            gemm("C", "N", 1.0, a, b, 1.0, c)

    def test_nonconformant_after_transpose(self):
        a, b, c = rand(4, 5), rand(4, 5), rand(4, 5)
        with pytest.raises(GemmError):
            gemm("N", "N", 1.0, a, b, 1.0, c)


class TestGemmOneThread:
    """``threads=1`` honours the same arguments as the parallel driver."""

    def test_stats_recorded(self):
        a, b, c = rand(20, 16), rand(16, 12), rand(20, 12)
        stats, ref = PoolStats(), PoolStats()
        gemm("N", "N", 1.0, a, b, 1.0, c.copy(order="F"), blocking=BLK,
             stats=stats)
        parallel_dgemm(a, b, c.copy(order="F"), threads=1, blocking=BLK,
                       workspace=GemmWorkspace(), stats=ref)
        assert (stats.calls, stats.steps) == (ref.calls, ref.steps) == (1, 1)
        assert list(stats.counters) == [0]
        assert stats.thread(0).gebp_calls == ref.thread(0).gebp_calls == 1

    def test_bogus_pool_rejected(self):
        a, b, c = rand(8, 8), rand(8, 8), rand(8, 8)
        with pytest.raises(GemmError, match="pool must be"):
            gemm("N", "N", 1.0, a, b, 1.0, c, pool="bogus")
        with pytest.raises(GemmError, match="pool must be"):
            parallel_dgemm(a, b, c, threads=1, pool="bogus")

    def test_bit_identical_to_dgemm(self):
        a, b, c = rand(40, 30), rand(30, 35), rand(40, 35)
        got_trace, want_trace = GemmTrace(), GemmTrace()
        got = gemm("N", "N", 0.5, a, b, -2.0, c.copy(order="F"),
                   blocking=BLK, trace=got_trace)
        want = dgemm(a, b, c.copy(order="F"), alpha=0.5, beta=-2.0,
                     blocking=BLK, trace=want_trace)
        assert np.array_equal(got, want)
        assert got_trace == want_trace


class TestConcurrentCallers:
    def test_default_workspace_is_per_calling_thread(self):
        # Concurrent callers without workspace= must not overwrite each
        # other's packed buffers, while a call's pool workers pack into
        # their caller's workspace. All four callers share one pool.
        blk = CacheBlocking(mr=8, nr=6, kc=64, mc=24, nc=48, k1=1, k2=2,
                            k3=1)
        rng = np.random.default_rng(11)
        cases = [
            tuple(np.asfortranarray(rng.standard_normal(shape))
                  for shape in ((48, 36), (36, 40), (48, 40)))
            for _ in range(4)
        ]
        wants = [dgemm(a, b, c.copy(order="F"), blocking=blk)
                 for a, b, c in cases]
        wrong = [0] * len(cases)
        used = [None] * len(cases)

        def hammer(t):
            a, b, c = cases[t]
            for i in range(30):
                if i % 3 == 2:
                    got = gemm("N", "N", 1.0, a, b, 1.0, c.copy(order="F"),
                               blocking=blk)
                else:
                    got = parallel_dgemm(a, b, c.copy(order="F"), threads=2,
                                         blocking=blk,
                                         pool=pool if i % 3 == 1 else None)
                wrong[t] += not np.array_equal(got, wants[t])
            used[t] = get_shared_workspace()

        main_ws = get_shared_workspace()
        before = (main_ws.hits, main_ws.misses)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        pool = WorkerPool(2)
        try:
            threads = [threading.Thread(target=hammer, args=(t,))
                       for t in range(len(cases))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60.0)
                assert not th.is_alive()
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        assert wrong == [0] * len(cases)
        assert len({id(ws) for ws in used}) == len(cases)
        assert all(ws.misses > 0 for ws in used)
        assert (main_ws.hits, main_ws.misses) == before


class TestSyrk:
    @pytest.mark.parametrize("uplo", ["U", "L"])
    @pytest.mark.parametrize("trans", ["N", "T"])
    def test_matches_definition(self, uplo, trans):
        a = rand(20, 12)
        n = 20 if trans == "N" else 12
        c = rand(n, n)
        c = np.asfortranarray((c + c.T) / 2)  # symmetric input
        got = syrk(uplo, trans, 2.0, a, 0.5, c.copy(order="F"), blocking=BLK)
        aa = a if trans == "N" else a.T
        want = 2.0 * aa @ aa.T + 0.5 * c
        assert np.allclose(got, want, atol=1e-10)
        assert np.allclose(got, got.T, atol=1e-10)  # exactly symmetric

    def test_validation(self):
        a = rand(6, 4)
        with pytest.raises(GemmError):
            syrk("X", "N", 1.0, a, 1.0, rand(6, 6))
        with pytest.raises(GemmError):
            syrk("U", "N", 1.0, a, 1.0, rand(5, 5))
