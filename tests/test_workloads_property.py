"""Property-based tests (hypothesis) for the workload families.

The devito ``test_cache_blocking`` pattern: cache-blocked and unblocked
executions must be **bit-equal** for every block shape, including blocks
that do not divide the iteration space (remainder tiles). The same
discipline applies to the convolution lowerings — im2col + DGEMM vs the
directly-blocked gather nest — and to the cache-walk engines.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import assume, given, settings

from repro.arch.presets import XGENE
from repro.blocking.cache_blocking import CacheBlocking
from repro.workloads import (
    ConvSpec,
    ConvWorkload,
    StencilSpec,
    StencilWorkload,
    conv_direct,
    conv_im2col,
    simulate_workload_cache,
    stencil_blocked,
    stencil_reference,
    unblocked_conv_blocking,
)
from tests.helpers import conv_reference

TILE = st.sampled_from([(8, 6), (8, 4), (4, 4), (2, 2), (5, 3)])
SEED = st.integers(0, 2**16)


def _grid(h, w, seed):
    return np.random.default_rng(seed).standard_normal((h, w))


def _conv_operands(spec, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((spec.cin, spec.height, spec.width))
    w = rng.standard_normal((spec.filters, spec.cin, spec.kh, spec.kw))
    return x, w


class TestStencilBlockedEqualsUnblocked:
    @given(st.integers(3, 20), st.integers(3, 20), st.integers(1, 2),
           st.integers(1, 9), st.integers(1, 9), st.integers(1, 3), SEED)
    @settings(max_examples=60)
    def test_bit_equal_any_block_shape(
        self, h, w, radius, bi, bj, iterations, seed
    ):
        assume(h > 2 * radius and w > 2 * radius)
        spec = StencilSpec(radius=radius, iterations=iterations)
        grid = _grid(h, w, seed)
        assert np.array_equal(
            stencil_blocked(grid, spec, (bi, bj)),
            stencil_reference(grid, spec),
        )

    @given(st.integers(4, 16), st.integers(4, 16),
           st.floats(-1.0, 1.0, allow_nan=False), SEED)
    @settings(max_examples=25)
    def test_blockings_agree_with_each_other(self, h, w, alpha, seed):
        """Any two blockings of the same sweep produce identical bits."""
        spec = StencilSpec(radius=1, alpha=alpha, iterations=2)
        grid = _grid(h, w, seed)
        a = stencil_blocked(grid, spec, (2, 3))
        b = stencil_blocked(grid, spec, (5, 7))
        assert np.array_equal(a, b)


class TestConvLoweringEquivalence:
    @given(st.integers(1, 3), st.integers(0, 6), st.integers(0, 6),
           st.integers(1, 3), st.integers(1, 3), st.integers(1, 7),
           TILE, st.sampled_from([2, 3, 5, 8]),
           st.sampled_from([4, 6, 10]), st.sampled_from([4, 6, 9]), SEED)
    @settings(max_examples=30)
    def test_direct_bit_equals_im2col_any_blocking(
        self, cin, dh, dw, kh, kw, filters, tile, kc, mc, nc, seed
    ):
        spec = ConvSpec(cin=cin, height=kh + dh, width=kw + dw,
                        kh=kh, kw=kw, filters=filters)
        mr, nr = tile
        blocking = CacheBlocking(mr=mr, nr=nr, kc=kc, mc=max(mc, mr),
                                 nc=max(nc, nr), k1=1, k2=1, k3=1)
        x, w = _conv_operands(spec, seed)
        direct = conv_direct(x, w, blocking)
        lowered = conv_im2col(x, w, blocking)
        assert np.array_equal(direct, lowered)
        assert np.allclose(lowered, conv_reference(x, w), atol=1e-9)

    @given(st.integers(1, 2), st.integers(0, 5), st.integers(0, 5),
           st.integers(1, 3), st.integers(1, 3), st.integers(1, 7),
           TILE, st.sampled_from([2, 4, 7]), st.integers(1, 3),
           st.integers(1, 3), SEED)
    @settings(max_examples=30)
    def test_blocked_bit_equals_unblocked_conforming(
        self, cin, dh, dw, kh, kw, filters, tile, kc, mtiles, ntiles, seed
    ):
        """Splitting mc/nc is invisible when mr/nr/kc are shared and the
        block extents are whole multiples of the register tile."""
        spec = ConvSpec(cin=cin, height=kh + dh, width=kw + dw,
                        kh=kh, kw=kw, filters=filters)
        mr, nr = tile
        blocking = CacheBlocking(mr=mr, nr=nr, kc=kc, mc=mtiles * mr,
                                 nc=ntiles * nr, k1=1, k2=1, k3=1)
        unblocked = unblocked_conv_blocking(spec, blocking)
        x, w = _conv_operands(spec, seed)
        assert np.array_equal(conv_im2col(x, w, blocking),
                              conv_im2col(x, w, unblocked))


class TestCacheWalkIdentity:
    """The batched cache walk is bit-identical to the scalar oracle on
    workload-shaped streams (strided grids, packing interleaves)."""

    @given(st.integers(4, 10), st.integers(4, 14), st.integers(1, 6),
           st.integers(1, 6), SEED)
    @settings(max_examples=10)
    def test_stencil_walk(self, h, w, bi, bj, seed):
        wl = StencilWorkload(h, w, StencilSpec(radius=1, iterations=1),
                             block=(bi, bj), seed=seed)
        batched = simulate_workload_cache(wl, XGENE, engine="batched", seed=0)
        scalar = simulate_workload_cache(wl, XGENE, engine="scalar", seed=0)
        assert batched == scalar

    @given(st.sampled_from(["im2col", "direct"]), st.integers(0, 3),
           st.integers(1, 4), TILE, SEED)
    @settings(max_examples=8)
    def test_conv_walk(self, lowering, extent, filters, tile, seed):
        spec = ConvSpec(cin=1, height=3 + extent, width=3 + extent,
                        kh=3, kw=3, filters=filters)
        mr, nr = tile
        blocking = CacheBlocking(mr=mr, nr=nr, kc=4, mc=2 * mr, nc=2 * nr,
                                 k1=1, k2=1, k3=1)
        wl = ConvWorkload(spec, lowering, blocking, seed=seed)
        batched = simulate_workload_cache(wl, XGENE, engine="batched", seed=0)
        scalar = simulate_workload_cache(wl, XGENE, engine="scalar", seed=0)
        assert batched == scalar
