"""Unit tests for the analytic block-size engine (paper Sec. IV).

The ground truth is the paper itself: Fig. 5 (register blocking surface),
the derivations in Sec. IV-B/IV-C, and every row of Table III.
"""

import pytest

from repro.arch import XGENE, CoreParams
from repro.blocking import (
    CacheBlocking,
    PrefetchPlan,
    RegisterBlockingProblem,
    goto_blocking,
    plan_prefetch,
    solve_cache_blocking,
    solve_kc,
    solve_mc,
    solve_nc,
)
from repro.errors import BlockingError
from tests.helpers import single_core


class TestRegisterBlocking:
    def problem(self):
        return RegisterBlockingProblem(nf=32, pf=16, element_size=8)

    def test_paper_optimum(self):
        """Fig. 5: the optimum is 8x6 with nrf=6 and gamma=6.857."""
        best = self.problem().solve()
        assert (best.mr, best.nr) == (8, 6)
        assert best.nrf == 6
        assert best.gamma == pytest.approx(6.857, abs=1e-3)

    def test_tie_breaker_prefers_line_aligned_mr(self):
        """6x8 has the same gamma; 8x6 wins because 8 doubles = 1 line."""
        best = self.problem().solve()
        assert best.mr * 8 % 64 == 0

    def test_register_accounting_8x6(self):
        """24 C registers (v8-v31) + 8 A/B registers (v0-v7), Sec. IV-A."""
        best = self.problem().solve()
        assert best.c_registers == 24
        assert best.ab_registers == 7  # per copy; 8 available, 6 reused

    def test_budget_constraint_eq9(self):
        p = self.problem()
        # (8*6 + 2*8 + 2*6) * 8 = 608 <= (32+6)*16 = 608: exactly tight.
        assert p.register_budget_ok(8, 6, 6)
        assert not p.register_budget_ok(8, 6, 5)

    def test_nrf_constraint_eq10(self):
        p = self.problem()
        assert p.max_nrf(8, 6) == 7
        assert not p.is_feasible(8, 6, 8)

    def test_lane_constraint_eq11(self):
        p = self.problem()
        assert not p.lanes_ok(5, 5)
        assert not p.is_feasible(5, 6, 0)
        assert p.lanes_ok(4, 4)

    def test_surface_contains_paper_peak(self):
        """Fig. 5 annotates X=8, Y=6, Z=6.857."""
        surf = {(mr, nrf): g for mr, nrf, g in self.problem().surface()}
        assert surf[(8, 6)] == pytest.approx(6.857, abs=1e-3)
        # Everything on the surface is bounded by the optimum.
        assert max(surf.values()) == pytest.approx(6.857, abs=1e-3)

    def test_surface_infeasible_floor(self):
        surf = {(mr, nrf): g for mr, nrf, g in self.problem().surface()}
        # mr=16 with nrf=0: 16*nr + 2*16 + 2*nr <= 64 has no even nr >= 2.
        assert surf[(16, 0)] == 0.0

    def test_from_core(self):
        p = RegisterBlockingProblem.from_core(XGENE.core)
        assert p.nf == 32 and p.pf == 16
        assert p.solve().mr == 8

    def test_fewer_registers_shrinks_tile(self):
        """With half the registers, the best tile must be smaller."""
        p16 = RegisterBlockingProblem(nf=16, pf=16, element_size=8)
        best = p16.solve()
        assert best.mr * best.nr < 48
        assert best.gamma < 6.857

    def test_invalid_problem(self):
        with pytest.raises(BlockingError):
            RegisterBlockingProblem(nf=0)

    def test_best_nr_for_infeasible(self):
        p = self.problem()
        assert p.best_nr_for(3, 0) is None  # odd mr violates (11)
        assert p.best_nr_for(-2, 0) is None


class TestCacheBlockingPaperValues:
    """Every row of Table III, plus the k values derived in Sec. IV."""

    def test_kc_8x6(self):
        kc, k1 = solve_kc(XGENE.l1d, 8, 6)
        assert (kc, k1) == (512, 1)  # B sliver fills 3/4 of L1

    def test_kc_8x4_and_4x4(self):
        assert solve_kc(XGENE.l1d, 8, 4)[0] == 768
        assert solve_kc(XGENE.l1d, 4, 4)[0] == 768

    def test_mc_serial_8x6(self):
        mc, k2 = solve_mc(XGENE.l2, 512, 6, 8)
        assert (mc, k2) == (56, 2)  # A block fills 7/8 of L2

    def test_nc_serial_8x6(self):
        nc, k3 = solve_nc(XGENE.l3, 512, 56)
        assert (nc, k3) == (1920, 1)  # B panel fills 15/16 of L3

    @pytest.mark.parametrize(
        "mr,nr,threads,expected",
        [
            (8, 6, 1, (512, 56, 1920)),
            (8, 4, 1, (768, 32, 1280)),
            (4, 4, 1, (768, 32, 1280)),
            (8, 6, 8, (512, 24, 1792)),
            (8, 4, 8, (768, 16, 1192)),
            (4, 4, 8, (768, 16, 1192)),
        ],
    )
    def test_table_iii(self, mr, nr, threads, expected):
        b = solve_cache_blocking(XGENE, mr, nr, threads=threads)
        assert (b.kc, b.mc, b.nc) == expected

    @pytest.mark.parametrize(
        "threads,expected",
        [
            (1, (512, 56, 1920)),
            (2, (512, 56, 1920)),
            (4, (512, 56, 1792)),
            (8, (512, 24, 1792)),
        ],
    )
    def test_fig14_thread_configs(self, threads, expected):
        """Fig. 14's per-thread-count block sizes for the 8x6 kernel."""
        b = solve_cache_blocking(XGENE, 8, 6, threads=threads)
        assert (b.kc, b.mc, b.nc) == expected

    def test_parallel_l2_occupancy(self):
        """8 threads: two A blocks of 24x512 fill 3/4 of a shared L2."""
        b = solve_cache_blocking(XGENE, 8, 6, threads=8)
        two_blocks = 2 * b.mc * b.kc * 8
        assert two_blocks <= XGENE.l2.size_bytes * (16 - b.k2) / 16

    def test_parallel_l3_occupancy(self):
        """8 threads: eight A blocks fit in the k3 reserved L3 ways."""
        b = solve_cache_blocking(XGENE, 8, 6, threads=8)
        eight_blocks = 8 * b.mc * b.kc * 8
        assert eight_blocks <= XGENE.l3.size_bytes * b.k3 / 16

    def test_str_and_label(self):
        b = solve_cache_blocking(XGENE, 8, 6)
        assert str(b) == "8x6x512x56x1920"
        assert b.label == "8x6"

    def test_thread_range_validated(self):
        with pytest.raises(BlockingError):
            solve_cache_blocking(XGENE, 8, 6, threads=0)
        with pytest.raises(BlockingError):
            solve_cache_blocking(XGENE, 8, 6, threads=9)

    def test_kc_override(self):
        b = solve_cache_blocking(XGENE, 8, 6, kc_override=320)
        assert b.kc == 320
        # mc grows when kc shrinks (same L2 budget).
        assert b.mc > 56

    def test_no_l3_chip(self):
        import dataclasses
        chip = dataclasses.replace(single_core(XGENE), l3=None)
        b = solve_cache_blocking(chip, 8, 6)
        assert b.nc % 6 == 0 and b.nc > 0

    def test_infeasible_tiny_cache(self):
        import dataclasses
        tiny = dataclasses.replace(
            XGENE.l1d, size_bytes=256, ways=2
        )
        with pytest.raises(BlockingError):
            solve_kc(tiny, 8, 6)

    def test_goto_blocking_half_cache(self):
        """The [5]-style heuristic: kc*nr*8 ~ half of L1 (paper: 320)."""
        g = goto_blocking(XGENE, 8, 6)
        assert g.kc == 320
        assert g.kc * 6 * 8 <= XGENE.l1d.size_bytes // 2
        # And it differs from the associativity-aware answer.
        ours = solve_cache_blocking(XGENE, 8, 6)
        assert (g.kc, g.mc) != (ours.kc, ours.mc)


class TestPrefetchPlan:
    def test_paper_distances(self):
        """Sec. IV-B: PREFB = 24576 bytes, PREFA = 1024 bytes."""
        p = plan_prefetch(8, 6, 512)
        assert p.prefb_bytes == 24576
        assert p.prefa_bytes == 1024
        assert p.unroll == 8

    def test_validation(self):
        with pytest.raises(BlockingError):
            plan_prefetch(0, 6, 512)
