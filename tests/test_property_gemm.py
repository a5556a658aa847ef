"""Property-based tests (hypothesis) for packing and DGEMM correctness."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.blocking import CacheBlocking
from repro.gemm import (
    WorkerPool,
    dgemm,
    pack_a,
    pack_b,
    parallel_dgemm,
)
from tests.helpers import unpack_a, unpack_b

DIMS = st.integers(min_value=1, max_value=40)
TILE = st.sampled_from([(8, 6), (8, 4), (4, 4), (2, 2), (5, 3)])
BLOCKS = st.sampled_from([
    (16, 16, 12), (8, 8, 6), (64, 24, 48), (7, 9, 11), (1, 8, 6),
])


def rand(m, n, seed):
    rng = np.random.default_rng(seed)
    return np.asfortranarray(rng.standard_normal((m, n)))


class TestPackingProperties:
    @given(DIMS, DIMS, st.integers(1, 12), st.integers(0, 2**16))
    @settings(max_examples=60)
    def test_pack_a_roundtrip(self, mc, kc, mr, seed):
        a = rand(mc, kc, seed)
        assert np.array_equal(unpack_a(pack_a(a, mr), mc), a)

    @given(DIMS, DIMS, st.integers(1, 12), st.integers(0, 2**16))
    @settings(max_examples=60)
    def test_pack_b_roundtrip(self, kc, nc, nr, seed):
        b = rand(kc, nc, seed)
        assert np.array_equal(unpack_b(pack_b(b, nr), nc), b)

    @given(DIMS, DIMS, st.integers(1, 12), st.integers(0, 2**16))
    @settings(max_examples=40)
    def test_pack_a_padding_is_zero(self, mc, kc, mr, seed):
        packed = pack_a(rand(mc, kc, seed), mr)
        pad = (-mc) % mr
        if pad:
            assert np.all(packed[-1, :, mr - pad:] == 0.0)

    @given(DIMS, DIMS, st.integers(1, 12), st.integers(0, 2**16))
    @settings(max_examples=40)
    def test_pack_preserves_element_count(self, mc, kc, mr, seed):
        a = rand(mc, kc, seed)
        packed = pack_a(a, mr)
        # Sum of packed equals sum of source (padding contributes zero).
        assert np.isclose(packed.sum(), a.sum())


class TestDgemmProperties:
    @given(DIMS, DIMS, DIMS, TILE, BLOCKS, st.integers(0, 2**16))
    @settings(max_examples=40)
    def test_matches_numpy_any_shape_any_blocking(
        self, m, n, k, tile, blocks, seed
    ):
        mr, nr = tile
        kc, mc, nc = blocks
        blk = CacheBlocking(mr=mr, nr=nr, kc=kc, mc=max(mc, mr),
                            nc=max(nc, nr), k1=1, k2=1, k3=1)
        a, b, c = rand(m, k, seed), rand(k, n, seed + 1), rand(m, n, seed + 2)
        got = dgemm(a, b, c.copy(order="F"), blocking=blk)
        assert np.allclose(got, a @ b + c, atol=1e-9)

    @given(DIMS, DIMS, DIMS, st.integers(1, 8), st.integers(0, 2**16))
    @settings(max_examples=30)
    def test_parallel_equals_serial(self, m, n, k, threads, seed):
        blk = CacheBlocking(mr=8, nr=6, kc=16, mc=16, nc=12, k1=1, k2=1, k3=1)
        a, b, c = rand(m, k, seed), rand(k, n, seed + 1), rand(m, n, seed + 2)
        serial = dgemm(a, b, c.copy(order="F"), blocking=blk)
        par = parallel_dgemm(a, b, c.copy(order="F"), threads=threads,
                             blocking=blk)
        assert np.allclose(serial, par, atol=1e-12)

    @given(DIMS, DIMS, DIMS,
           st.floats(-3, 3, allow_nan=False),
           st.floats(-3, 3, allow_nan=False),
           st.integers(0, 2**16))
    @settings(max_examples=30)
    def test_alpha_beta_linearity(self, m, n, k, alpha, beta, seed):
        blk = CacheBlocking(mr=4, nr=4, kc=16, mc=8, nc=8, k1=1, k2=1, k3=1)
        a, b, c = rand(m, k, seed), rand(k, n, seed + 1), rand(m, n, seed + 2)
        got = dgemm(a, b, c.copy(order="F"), alpha=alpha, beta=beta,
                    blocking=blk)
        assert np.allclose(got, alpha * (a @ b) + beta * c, atol=1e-8)

    @given(DIMS, DIMS, DIMS, st.integers(0, 2**16))
    @settings(max_examples=20)
    def test_identity_k_zero_effectively(self, m, n, k, seed):
        """With alpha=0 the result is beta*C regardless of A and B."""
        blk = CacheBlocking(mr=4, nr=4, kc=16, mc=8, nc=8, k1=1, k2=1, k3=1)
        a, b, c = rand(m, k, seed), rand(k, n, seed + 1), rand(m, n, seed + 2)
        got = dgemm(a, b, c.copy(order="F"), alpha=0.0, beta=2.0,
                    blocking=blk)
        assert np.allclose(got, 2.0 * c)


class TestThreadedEngineProperties:
    """The persistent-pool engine is bit-equivalent to the serial driver
    for any axis/engine/beta combination on arbitrary (edge) shapes."""

    @given(DIMS, DIMS, DIMS,
           st.integers(1, 8),
           st.sampled_from(["m", "n"]),
           st.booleans(),
           st.sampled_from([0.0, 1.0, 0.5]),
           st.integers(0, 2**16))
    @settings(max_examples=25)
    def test_threaded_bitwise_equals_serial(
        self, m, n, k, threads, axis, threaded, beta, seed
    ):
        blk = CacheBlocking(mr=8, nr=6, kc=16, mc=16, nc=12, k1=1, k2=1,
                            k3=1)
        a, b = rand(m, k, seed), rand(k, n, seed + 1)
        if beta == 0.0:
            # BLAS semantics: C is overwritten, NaN must not leak.
            c = np.asfortranarray(np.full((m, n), np.nan))
        else:
            c = rand(m, n, seed + 2)
        serial = dgemm(a, b, c.copy(order="F"), beta=beta, blocking=blk)
        with WorkerPool(threads) as pool:
            got = parallel_dgemm(a, b, c.copy(order="F"), threads=threads,
                                 beta=beta, blocking=blk, axis=axis,
                                 pool=pool if threaded else None)
        assert np.array_equal(got, serial)
        assert not np.isnan(got).any()
        assert np.allclose(got, a @ b + (0.0 if beta == 0.0 else beta * c),
                           atol=1e-9)


class TestTraceEquivalence:
    """The synthetic trace equals the functional trace for any shape,
    thread count and parallelization axis."""

    @given(DIMS, DIMS, DIMS, st.integers(1, 8),
           st.sampled_from(["m", "n"]), st.integers(0, 2**16))
    @settings(max_examples=30)
    def test_synthetic_matches_functional(self, m, n, k, threads, axis, seed):
        from repro.gemm import GemmTrace, parallel_dgemm
        from repro.sim import synthesize_trace

        blk = CacheBlocking(mr=8, nr=6, kc=16, mc=16, nc=12,
                            k1=1, k2=1, k3=1)
        real = GemmTrace()
        parallel_dgemm(
            rand(m, k, seed), rand(k, n, seed + 1), rand(m, n, seed + 2),
            threads=threads, blocking=blk, axis=axis, trace=real,
        )
        synth = synthesize_trace(m, n, k, blk, threads=threads, axis=axis)
        assert synth.gebps == real.gebps
        assert synth.packs == real.packs
