"""Tests for the timing-functional simulator (values AND time)."""

import numpy as np
import pytest

from repro.arch import XGENE
from repro.errors import SimulationError
from repro.kernels import get_variant
from repro.sim.timed_executor import run_timed_micro_tile

RNG = np.random.default_rng(77)


def operands(kernel, bodies=24):
    kc = kernel.plan.unroll * bodies
    a = RNG.standard_normal((kc, kernel.spec.mr))
    b = RNG.standard_normal((kc, kernel.spec.nr))
    c = RNG.standard_normal((kernel.spec.mr, kernel.spec.nr))
    return a, b, c


class TestCorrectness:
    @pytest.mark.parametrize(
        "name",
        ["OpenBLAS-8x6", "OpenBLAS-8x4", "OpenBLAS-4x4", "OpenBLAS-8x6-noRR"],
    )
    def test_numerics_exact(self, name):
        kernel = get_variant(name)
        a, b, c0 = operands(kernel, bodies=8)
        run = run_timed_micro_tile(kernel, a, b, c0)
        assert np.allclose(run.c_tile, c0 + a.T @ b, atol=1e-12)

    def test_kc_validation(self):
        kernel = get_variant("OpenBLAS-8x6")
        with pytest.raises(SimulationError):
            run_timed_micro_tile(
                kernel, np.zeros((9, 8)), np.zeros((9, 6))
            )


class TestKcBound:
    """kc past the fixed micro-tile layout is rejected before either
    engine runs (the packed A stream would run into the B stream)."""

    @pytest.mark.parametrize("engine", ["compiled", "interpreted"])
    def test_largest_valid_kc_runs_and_one_unroll_past_raises(self, engine):
        from repro.kernels.execute import largest_kc

        kernel = get_variant("OpenBLAS-8x6")
        largest = largest_kc(kernel)
        assert largest == 3064
        a = RNG.standard_normal((largest, 8))
        b = RNG.standard_normal((largest, 6))
        run = run_timed_micro_tile(kernel, a, b, engine=engine)
        assert np.allclose(run.c_tile, a.T @ b, atol=1e-10)
        past = largest + kernel.plan.unroll
        with pytest.raises(SimulationError,
                           match=f"kc={past} .* valid kc={largest}"):
            run_timed_micro_tile(
                kernel, np.zeros((past, 8)), np.zeros((past, 6)),
                engine=engine,
            )


class TestTiming:
    def test_8x6_close_to_fma_bound(self):
        """With prefetching and warmed L2, the 8x6 kernel runs within a
        few percent of the FMA-pipe bound (the Sec. IV-A design goal)."""
        kernel = get_variant("OpenBLAS-8x6")
        a, b, c0 = operands(kernel)
        run = run_timed_micro_tile(kernel, a, b, c0)
        assert run.efficiency > 0.90
        ideal = kernel.spec.fmla_per_iter * XGENE.core.fma_throughput_cycles
        assert run.cycles_per_iteration < 1.15 * ideal

    def test_kernel_ordering(self):
        """Structural efficiency orders 8x6 >= 8x4 > 4x4, like Table V."""
        effs = {}
        for name in ("OpenBLAS-8x6", "OpenBLAS-8x4", "OpenBLAS-4x4"):
            kernel = get_variant(name)
            a, b, c0 = operands(kernel)
            effs[name] = run_timed_micro_tile(kernel, a, b, c0).efficiency
        assert effs["OpenBLAS-8x6"] >= effs["OpenBLAS-8x4"]
        assert effs["OpenBLAS-8x4"] > effs["OpenBLAS-4x4"]

    def test_rotation_not_slower(self):
        rot = get_variant("OpenBLAS-8x6")
        no = get_variant("OpenBLAS-8x6-noRR")
        a, b, c0 = operands(rot)
        t_rot = run_timed_micro_tile(rot, a, b, c0).cycles_per_iteration
        t_no = run_timed_micro_tile(no, a, b, c0).cycles_per_iteration
        assert t_rot <= t_no

    def test_latency_histogram_dominated_by_l1(self):
        kernel = get_variant("OpenBLAS-8x6")
        a, b, c0 = operands(kernel)
        run = run_timed_micro_tile(kernel, a, b, c0)
        l1 = run.load_latencies.get(XGENE.l1d.latency_cycles, 0)
        total = sum(run.load_latencies.values())
        assert l1 / total > 0.9

    def test_cold_l2_slower_than_warm(self):
        kernel = get_variant("OpenBLAS-8x6")
        a, b, c0 = operands(kernel)
        warm = run_timed_micro_tile(kernel, a, b, c0, warm_l2=True)
        cold = run_timed_micro_tile(kernel, a, b, c0, warm_l2=False)
        assert cold.cycles >= warm.cycles
        # Cold run pulls more loads from DRAM.
        dram = XGENE.dram.latency_cycles
        assert cold.load_latencies.get(dram, 0) >= warm.load_latencies.get(
            dram, 0
        )

    def test_late_hw_prefetcher_hurts(self):
        kernel = get_variant("OpenBLAS-8x6")
        a, b, c0 = operands(kernel)
        good = run_timed_micro_tile(kernel, a, b, c0, hw_late=0.0)
        bad = run_timed_micro_tile(kernel, a, b, c0, hw_late=1.0)
        assert bad.cycles >= good.cycles

    def test_pipeline_result_exposed(self):
        kernel = get_variant("OpenBLAS-8x6")
        a, b, c0 = operands(kernel, bodies=4)
        run = run_timed_micro_tile(kernel, a, b, c0)
        assert run.pipeline.flops == a.shape[0] * 96 + 0  # kernel fmlas
        assert run.cycles == run.pipeline.cycles


class TestTimedGebp:
    def test_full_gebp_correct_and_timed(self):
        from repro.gemm import pack_a, pack_b
        from repro.sim import run_timed_gebp

        kernel = get_variant("OpenBLAS-8x6")
        mc, kc, nc = 24, 64, 18
        a = RNG.standard_normal((mc, kc))
        b = RNG.standard_normal((kc, nc))
        c = RNG.standard_normal((mc, nc))
        run = run_timed_gebp(kernel, pack_a(a, 8), pack_b(b, 6), c.copy())
        assert np.allclose(run.c_panel, c + a @ b, atol=1e-11)
        assert run.efficiency > 0.85
        assert len(run.tile_cycles) == 3 * 3

    def test_b_sliver_reuse_visible(self):
        """Within one j-column, later tiles reuse the warmed B sliver:
        the first tile of each column is the slowest."""
        from repro.gemm import pack_a, pack_b
        from repro.sim import run_timed_gebp

        kernel = get_variant("OpenBLAS-8x6")
        mc, kc, nc = 32, 64, 12
        a = RNG.standard_normal((mc, kc))
        b = RNG.standard_normal((kc, nc))
        run = run_timed_gebp(kernel, pack_a(a, 8), pack_b(b, 6))
        na = mc // 8
        for j in range(nc // 6):
            col = run.tile_cycles[j * na : (j + 1) * na]
            assert col[0] == max(col)

    def test_gebp_matches_micro_tile_scale(self):
        """Per-iteration cycles at GEBP scale stay close to the isolated
        micro-tile's (shared-buffer reuse compensates the C traffic)."""
        from repro.gemm import pack_a, pack_b
        from repro.sim import run_timed_gebp

        kernel = get_variant("OpenBLAS-8x6")
        kc = 64
        a = RNG.standard_normal((16, kc))
        b = RNG.standard_normal((kc, 12))
        run = run_timed_gebp(kernel, pack_a(a, 8), pack_b(b, 6))
        ideal = kernel.spec.fmla_per_iter * XGENE.core.fma_throughput_cycles
        assert run.cycles_per_iteration < 1.25 * ideal

    def test_validation(self):
        from repro.gemm import pack_a, pack_b
        from repro.sim import run_timed_gebp

        kernel = get_variant("OpenBLAS-8x6")
        with pytest.raises(SimulationError):
            run_timed_gebp(
                kernel,
                pack_a(RNG.standard_normal((16, 32)), 8),
                pack_b(RNG.standard_normal((24, 12)), 6),
            )
        with pytest.raises(SimulationError):
            run_timed_gebp(
                kernel,
                pack_a(RNG.standard_normal((16, 32)), 8),
                pack_b(RNG.standard_normal((32, 12)), 6),
                c_panel=np.zeros((4, 4)),
            )


class TestDualCoreSharedL2:
    def test_correctness_and_overflow_signal(self):
        """Both cores compute exact products; with the serial mc their A
        blocks thrash the shared L2 (eq. (19)'s motivation) while the
        parallel mc coexists cleanly."""
        from repro.gemm import pack_a, pack_b
        from repro.memory import MemoryHierarchy
        from repro.sim import run_timed_gebp_dual

        kernel = get_variant("OpenBLAS-8x6")
        kc, nc = 256, 12
        b = RNG.standard_normal((kc, nc))
        pb = pack_b(b, 6)
        rates = {}
        for mc in (112, 48):  # 2x112x256x8 = 458 KiB vs 196 KiB
            a0 = RNG.standard_normal((mc, kc))
            a1 = RNG.standard_normal((mc, kc))
            h = MemoryHierarchy(XGENE)
            r0, r1 = run_timed_gebp_dual(
                kernel, pack_a(a0, 8), pack_a(a1, 8), pb, hierarchy=h
            )
            assert np.allclose(r0.c_panel, a0 @ b, atol=1e-11)
            assert np.allclose(r1.c_panel, a1 @ b, atol=1e-11)
            l2 = h.l2_stats(0)
            rates[mc] = l2.misses / max(1, l2.accesses)
        assert rates[112] > 2 * rates[48]

    def test_core_validation(self):
        from repro.gemm import pack_a, pack_b
        from repro.sim import run_timed_gebp_dual

        kernel = get_variant("OpenBLAS-8x6")
        a = pack_a(RNG.standard_normal((16, 8)), 8)
        b = pack_b(RNG.standard_normal((8, 6)), 6)
        with pytest.raises(SimulationError):
            run_timed_gebp_dual(kernel, a, a, b, cores=(0, 2))  # modules
        with pytest.raises(SimulationError):
            run_timed_gebp_dual(
                kernel, a, pack_a(RNG.standard_normal((24, 8)), 8), b
            )


class TestGebpLayout:
    """Every A block, the B panel and every C panel of a timed GEBP run
    occupy their own cache lines, however large the blocks are."""

    @staticmethod
    def _stream_lines(monkeypatch, run, mc):
        """Run ``run()`` and collect the lines each (core, stream) of its
        micro-tiles touches (B is shared, so its key has no core; C
        panels are column-major with ``mc`` rows)."""
        import repro.sim.timed_executor as te
        from repro.kernels.codegen import A_POINTER, B_POINTER, C_POINTER

        line = XGENE.l1d.line_bytes
        real = te.run_timed_micro_tile
        lines = {}

        def span(key, start, nbytes):
            lines.setdefault(key, set()).update(
                range(start // line, -(-(start + nbytes) // line))
            )

        def spy(kernel, a, b, c, **kw):
            bases, cid = kw["timing_bases"], kw["core_id"]
            kc, mr = a.shape
            nr = b.shape[1]
            span(("A", cid), bases[A_POINTER.index], kc * mr * 8)
            span(("B",), bases[B_POINTER.index], kc * nr * 8)
            for col in range(nr):
                span(("C", cid), bases[C_POINTER.index] + col * mc * 8,
                     mr * 8)
            return real(kernel, a, b, c, **kw)

        monkeypatch.setattr(te, "run_timed_micro_tile", spy)
        run()
        return lines

    @staticmethod
    def _assert_disjoint(lines):
        keys = sorted(lines)
        for i, k1 in enumerate(keys):
            for k2 in keys[i + 1:]:
                shared = lines[k1] & lines[k2]
                assert not shared, f"{k1} and {k2} share {len(shared)} lines"

    def test_a_block_larger_than_the_gap_below_b(self, monkeypatch):
        # 7 slivers x kc=512 x 8 doubles = 224 KiB of A starting 192 KiB
        # below the B panel.
        from repro.gemm import pack_a, pack_b
        from repro.sim import run_timed_gebp

        kernel = get_variant("OpenBLAS-8x6")
        a = RNG.standard_normal((56, 512))
        b = RNG.standard_normal((512, 6))
        out = {}

        def run():
            out["run"] = run_timed_gebp(kernel, pack_a(a, 8), pack_b(b, 6))

        self._assert_disjoint(self._stream_lines(monkeypatch, run, 56))
        assert np.allclose(out["run"].c_panel, a @ b, atol=1e-11)

    def test_c_panel_larger_than_the_gap_below_the_second_a_block(
        self, monkeypatch
    ):
        # A 16 x 540 C panel is 67.5 KiB; core 1's A block is requested
        # 64 KiB above core 0's C panel.
        from repro.gemm import pack_a, pack_b
        from repro.sim import run_timed_gebp_dual

        kernel = get_variant("OpenBLAS-8x6")
        a0 = RNG.standard_normal((16, 8))
        a1 = RNG.standard_normal((16, 8))
        b = RNG.standard_normal((8, 540))
        out = {}

        def run():
            out["runs"] = run_timed_gebp_dual(
                kernel, pack_a(a0, 8), pack_a(a1, 8), pack_b(b, 6)
            )

        self._assert_disjoint(self._stream_lines(monkeypatch, run, 16))
        r0, r1 = out["runs"]
        assert np.allclose(r0.c_panel, a0 @ b, atol=1e-11)
        assert np.allclose(r1.c_panel, a1 @ b, atol=1e-11)
