"""Tests for the blocked LU application (the LINPACK motif)."""

import numpy as np
import pytest

from repro.apps import (
    linpack_residual,
    lu_factor,
    lu_solve,
)
from repro.blocking import CacheBlocking
from repro.errors import GemmError
from tests.helpers import reconstruct

RNG = np.random.default_rng(11)


def well_conditioned(n):
    return RNG.standard_normal((n, n)) + 0.2 * n * np.eye(n)


class TestLuFactor:
    @pytest.mark.parametrize("n,nb", [(1, 1), (8, 4), (50, 16), (129, 32),
                                      (96, 96), (64, 100)])
    def test_reconstruction(self, n, nb):
        a = well_conditioned(n)
        res = lu_factor(a, nb=nb)
        assert np.allclose(reconstruct(res), a, atol=1e-8 * n)

    def test_matches_numpy_solve(self):
        n = 120
        a = well_conditioned(n)
        b = RNG.standard_normal(n)
        res = lu_factor(a, nb=32)
        x = lu_solve(res, b)
        assert np.allclose(x, np.linalg.solve(a, b), atol=1e-8)

    def test_pivoting_handles_zero_leading_element(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        res = lu_factor(a, nb=1)
        assert np.allclose(reconstruct(res), a)

    def test_singular_like_matrix_does_not_crash(self):
        a = np.ones((8, 8))
        res = lu_factor(a, nb=4)
        assert res.lu.shape == (8, 8)

    def test_linpack_residual_passes_hpl_threshold(self):
        n = 150
        a = well_conditioned(n)
        b = RNG.standard_normal(n)
        x = lu_solve(lu_factor(a, nb=48), b)
        assert linpack_residual(a, x, b) < 16.0

    def test_gemm_flops_accounted(self):
        n, nb = 96, 32
        res = lu_factor(well_conditioned(n), nb=nb)
        # Two trailing updates: (64x64 rank-32) + (32x32 rank-32).
        expected = 2 * 64 * 64 * 32 + 2 * 32 * 32 * 32
        assert res.gemm_flops == expected

    def test_custom_blocking_same_answer(self):
        n = 80
        a = well_conditioned(n)
        blk = CacheBlocking(mr=4, nr=4, kc=16, mc=8, nc=8, k1=1, k2=1, k3=1)
        r1 = lu_factor(a, nb=24)
        r2 = lu_factor(a, nb=24, blocking=blk)
        assert np.allclose(r1.lu, r2.lu, atol=1e-12)

    def test_input_not_modified(self):
        a = well_conditioned(30)
        a0 = a.copy()
        lu_factor(a, nb=8)
        assert np.array_equal(a, a0)

    def test_validation(self):
        with pytest.raises(GemmError):
            lu_factor(np.zeros((3, 4)))
        with pytest.raises(GemmError):
            lu_factor(np.eye(4), nb=0)
        with pytest.raises(GemmError):
            lu_solve(lu_factor(np.eye(4)), np.zeros(5))
