"""Unit tests for the performance simulator (residency, traces, cost model)."""

import math

import pytest

from repro.arch import XGENE
from repro.blocking import CacheBlocking, solve_cache_blocking
from repro.errors import GemmError, SimulationError
from repro.kernels import (
    KERNEL_4X4,
    KERNEL_5X5_ATLAS,
    KERNEL_8X4,
    KERNEL_8X6,
)
from repro.sim import (
    DEFAULT_SIM_PARAMS,
    GemmSimulator,
    SimParams,
    analyze_residency,
    build_mix,
    fill_latency,
    micro_tiles,
    run_microbench,
    stream_costs,
    synthesize_trace,
)

BLK_1T = solve_cache_blocking(XGENE, 8, 6, threads=1)
BLK_8T = solve_cache_blocking(XGENE, 8, 6, threads=8)


class TestResidency:
    def test_paper_blocking_all_resident(self):
        """The derived 8x6 blockings keep every stream at its design level."""
        r = analyze_residency(XGENE, BLK_1T, threads=1)
        assert r.b_sliver_level == 1
        assert r.a_block_level == 2
        assert r.b_panel_level == 3

        r8 = analyze_residency(XGENE, BLK_8T, threads=8)
        assert r8.b_sliver_level == 1
        assert r8.a_block_level == 2
        assert r8.b_panel_level == 3

    def test_serial_mc_overflows_shared_l2(self):
        """Table VI's bad case: mc=56 with 8 threads spills A to L3."""
        blk = CacheBlocking(8, 6, 512, 56, 1792, 1, 2, 1)
        r = analyze_residency(XGENE, blk, threads=8)
        assert r.a_block_level == 3

    def test_oversized_nc_overflows_l3(self):
        blk = CacheBlocking(8, 6, 512, 56, 8192, 1, 2, 1)
        r = analyze_residency(XGENE, blk, threads=8)
        assert r.b_panel_level == 4

    def test_oversized_kc_overflows_l1(self):
        blk = CacheBlocking(8, 6, 4096, 56, 1920, 1, 2, 1)
        r = analyze_residency(XGENE, blk, threads=1)
        assert r.b_sliver_level == 2

    def test_problem_size_clamps_blocks(self):
        """A 64-wide problem cannot overflow anything."""
        blk = CacheBlocking(8, 6, 512, 56, 8192, 1, 2, 1)
        r = analyze_residency(XGENE, blk, threads=8, m=64, n=64)
        assert r.b_panel_level == 3

    def test_thread_validation(self):
        with pytest.raises(SimulationError):
            analyze_residency(XGENE, BLK_1T, threads=0)

    def test_fill_latency_levels(self):
        assert fill_latency(XGENE, 1) == XGENE.l1d.latency_cycles
        assert fill_latency(XGENE, 3) == XGENE.l3.latency_cycles
        assert fill_latency(XGENE, 4) == XGENE.dram.latency_cycles


class TestStreamCosts:
    def test_resident_streams_cheap(self):
        r = analyze_residency(XGENE, BLK_1T, threads=1)
        sc = stream_costs(XGENE, KERNEL_8X6, BLK_1T, r, hide=0.88,
                          hide_b=0.99)
        # A: one line per iteration from L2, 88% hidden.
        assert sc.a_fill == pytest.approx(
            (XGENE.l2.latency_cycles - XGENE.l1d.latency_cycles) * 0.12,
            rel=1e-6,
        )
        assert sc.b_fill < sc.a_fill
        assert sc.total < 3.0

    def test_l3_spill_costs_more(self):
        blk = CacheBlocking(8, 6, 512, 56, 1792, 1, 2, 1)
        r_good = analyze_residency(XGENE, BLK_8T, threads=8)
        r_bad = analyze_residency(XGENE, blk, threads=8)
        good = stream_costs(XGENE, KERNEL_8X6, BLK_8T, r_good, hide=0.88)
        bad = stream_costs(XGENE, KERNEL_8X6, blk, r_bad, hide=0.88)
        assert bad.a_fill > good.a_fill

    def test_lower_hide_costs_more(self):
        r = analyze_residency(XGENE, BLK_1T, threads=1)
        full = stream_costs(XGENE, KERNEL_8X6, BLK_1T, r, hide=0.88)
        part = stream_costs(XGENE, KERNEL_8X6, BLK_1T, r, hide=0.70)
        assert part.a_fill > full.a_fill

    def test_c_update_amortized_by_kc(self):
        r = analyze_residency(XGENE, BLK_1T, threads=1)
        big = stream_costs(XGENE, KERNEL_8X6, BLK_1T, r, hide=0.88)
        small_blk = CacheBlocking(8, 6, 64, 56, 1920, 1, 2, 1)
        small = stream_costs(XGENE, KERNEL_8X6, small_blk, r, hide=0.88)
        assert small.c_update > big.c_update

    def test_hide_validation(self):
        r = analyze_residency(XGENE, BLK_1T, threads=1)
        with pytest.raises(SimulationError):
            stream_costs(XGENE, KERNEL_8X6, BLK_1T, r, hide=1.5)
        with pytest.raises(SimulationError):
            stream_costs(XGENE, KERNEL_8X6, BLK_1T, r, hide=0.5, hide_b=-1)


class TestSyntheticTrace:
    def test_matches_functional_serial(self):
        """The synthetic trace equals the one the real driver records."""
        import numpy as np
        from repro.gemm import GemmTrace, dgemm

        m, n, k = 150, 130, 140
        blk = CacheBlocking(8, 6, 64, 24, 48, 1, 2, 1)
        rng = np.random.default_rng(7)
        real = GemmTrace()
        dgemm(
            np.asfortranarray(rng.standard_normal((m, k))),
            np.asfortranarray(rng.standard_normal((k, n))),
            np.asfortranarray(rng.standard_normal((m, n))),
            blocking=blk,
            trace=real,
        )
        synth = synthesize_trace(m, n, k, blk, threads=1)
        assert synth.gebps == real.gebps
        assert synth.packs == real.packs

    def test_matches_functional_parallel(self):
        import numpy as np
        from repro.gemm import GemmTrace, parallel_dgemm

        m, n, k = 150, 130, 70
        blk = CacheBlocking(8, 6, 64, 24, 48, 1, 2, 1)
        rng = np.random.default_rng(8)
        real = GemmTrace()
        parallel_dgemm(
            np.asfortranarray(rng.standard_normal((m, k))),
            np.asfortranarray(rng.standard_normal((k, n))),
            np.asfortranarray(rng.standard_normal((m, n))),
            threads=5,
            blocking=blk,
            trace=real,
        )
        synth = synthesize_trace(m, n, k, blk, threads=5)
        assert synth.gebps == real.gebps
        assert synth.packs == real.packs

    def test_flops_exact(self):
        t = synthesize_trace(123, 77, 95, BLK_1T, threads=1)
        assert t.flops == 2 * 123 * 77 * 95

    def test_empty_problem(self):
        t = synthesize_trace(0, 10, 10, BLK_1T)
        assert not t.gebps

    def test_validation(self):
        with pytest.raises(GemmError):
            synthesize_trace(-1, 2, 3, BLK_1T)

    def test_micro_tiles(self):
        assert micro_tiles(56, 1920, 8, 6) == 7 * 320
        assert micro_tiles(57, 1921, 8, 6) == 8 * 321


class TestGemmSimulator:
    SIM = GemmSimulator()

    def test_upper_bound_8x6(self):
        """The Table IV 7:24 upper bound: 91.5%."""
        ub = self.SIM.kernel_upper_bound(KERNEL_8X6)
        assert ub == pytest.approx(0.915, abs=0.005)

    def test_upper_bound_ordering(self):
        ubs = {
            s.name: self.SIM.kernel_upper_bound(s)
            for s in (KERNEL_8X6, KERNEL_8X4, KERNEL_4X4)
        }
        assert ubs["8x6"] > ubs["8x4"] > ubs["4x4"]

    def test_serial_peaks_match_paper_shape(self):
        """Table V serial peaks within 2 points of the paper."""
        paper = {
            "OpenBLAS-8x6": 0.872,
            "OpenBLAS-8x4": 0.846,
            "OpenBLAS-4x4": 0.782,
            "ATLAS-5x5": 0.809,
        }
        for name, expected in paper.items():
            p = self.SIM.simulate(name, 5120, 5120, 5120, threads=1)
            assert p.efficiency == pytest.approx(expected, abs=0.02), name

    def test_serial_ordering(self):
        effs = [
            self.SIM.simulate(k, 3072, 3072, 3072).efficiency
            for k in ("OpenBLAS-8x6", "OpenBLAS-8x4", "ATLAS-5x5",
                      "OpenBLAS-4x4")
        ]
        assert effs == sorted(effs, reverse=True)

    def test_parallel_peaks_match_paper_shape(self):
        """8-thread peaks within 5 points; OpenBLAS ordering preserved."""
        paper = {
            "OpenBLAS-8x6": 0.853,
            "OpenBLAS-8x4": 0.810,
            "OpenBLAS-4x4": 0.737,
        }
        for name, expected in paper.items():
            p = self.SIM.simulate(name, 5120, 5120, 5120, threads=8)
            assert p.efficiency == pytest.approx(expected, abs=0.05), name

    def test_8x6_beats_atlas_by_about_8_percent(self):
        """The paper's headline: +7.79% serial, +7.70% on eight cores."""
        for threads in (1, 8):
            ours = self.SIM.simulate(
                "OpenBLAS-8x6", 5120, 5120, 5120, threads=threads
            )
            atlas = self.SIM.simulate(
                "ATLAS-5x5", 5120, 5120, 5120, threads=threads
            )
            gain = ours.gflops / atlas.gflops - 1.0
            assert 0.04 < gain < 0.20

    def test_rotation_ablation(self):
        """Fig. 13: no-rotation costs a few percent at every size."""
        for size in (512, 2048, 4096):
            rot = self.SIM.simulate("OpenBLAS-8x6", size, size, size)
            no = self.SIM.simulate("OpenBLAS-8x6-noRR", size, size, size)
            assert 1.01 < rot.gflops / no.gflops < 1.10

    def test_parallel_slower_than_serial_per_core(self):
        p1 = self.SIM.simulate("OpenBLAS-8x6", 4096, 4096, 4096, threads=1)
        p8 = self.SIM.simulate("OpenBLAS-8x6", 4096, 4096, 4096, threads=8)
        assert p8.efficiency < p1.efficiency
        assert p8.gflops > 6 * p1.gflops  # but still scales well

    def test_scaling_monotone_in_threads(self):
        """Fig. 14: more threads, more Gflops at a fixed large size."""
        gf = [
            self.SIM.simulate("OpenBLAS-8x6", 4096, 4096, 4096, threads=t).gflops
            for t in (1, 2, 4, 8)
        ]
        assert gf == sorted(gf)

    def test_small_sizes_ramp_up(self):
        """Figs. 11/12: efficiency grows with matrix size."""
        e = [
            self.SIM.simulate("OpenBLAS-8x6", s, s, s).efficiency
            for s in (256, 1024, 4096)
        ]
        assert e[0] < e[1] < e[2]

    def test_blocking_sensitivity_table_vi(self):
        """Derived 8T blocking beats the serial blocking reused at 8T."""
        good = self.SIM.simulate(
            "OpenBLAS-8x6", 5120, 5120, 5120, threads=8,
            blocking=CacheBlocking(8, 6, 512, 24, 1792, 1, 3, 2),
        )
        bad = self.SIM.simulate(
            "OpenBLAS-8x6", 5120, 5120, 5120, threads=8,
            blocking=CacheBlocking(8, 6, 512, 56, 1920, 1, 2, 1),
        )
        assert good.efficiency - bad.efficiency > 0.03

    def test_l1_loads_ordering_fig15(self):
        """8x6 performs the fewest L1 loads (Fig. 15)."""
        loads = {
            k: self.SIM.simulate(k, 2048, 2048, 2048).l1_loads
            for k in ("OpenBLAS-8x6", "OpenBLAS-8x4", "OpenBLAS-4x4")
        }
        assert (loads["OpenBLAS-8x6"] < loads["OpenBLAS-8x4"]
                < loads["OpenBLAS-4x4"])

    def test_prefetch_off_slower(self):
        on = self.SIM.simulate("OpenBLAS-8x6", 2048, 2048, 2048)
        off = self.SIM.simulate(
            "OpenBLAS-8x6", 2048, 2048, 2048, prefetch=False
        )
        assert off.gflops < on.gflops

    def test_breakdown_sums_sensibly(self):
        p = self.SIM.simulate("OpenBLAS-8x6", 1024, 1024, 1024)
        assert p.breakdown["kernel"] > 0
        assert p.breakdown["kernel"] > p.breakdown["pack"]
        assert p.cycles >= p.breakdown["bandwidth_floor"]

    def test_validation(self):
        with pytest.raises(SimulationError):
            self.SIM.simulate("OpenBLAS-8x6", 0, 10, 10)
        with pytest.raises(SimulationError):
            self.SIM.simulate("OpenBLAS-8x6", 10, 10, 10, threads=99)
        with pytest.raises(SimulationError):
            self.SIM.simulate("nonesuch", 10, 10, 10)

    def test_int64_overflow_rejected(self):
        """One GEBP whose extents multiply past int64 (the pricing's
        integer products) is refused, not silently wrapped."""
        huge = 3_000_000
        blk = CacheBlocking(8, 6, huge, huge, huge, 1, 1, 1)
        with pytest.raises(SimulationError):
            self.SIM.simulate(
                "OpenBLAS-8x6", huge, huge, huge, blocking=blk
            )

    def test_gflops_efficiency_consistent(self):
        p = self.SIM.simulate("OpenBLAS-8x6", 1024, 1024, 1024, threads=8)
        assert p.gflops * 1e9 == pytest.approx(
            p.efficiency * XGENE.peak_flops_for(8)
        )


class TestExplicitTrace:
    """``simulate(trace=...)`` with a trace the functional driver recorded
    prices exactly what the synthesized path prices."""

    BLK = CacheBlocking(8, 6, 64, 24, 48, 1, 2, 1)

    def _recorded(self, m, n, k, threads, axis):
        import numpy as np
        from repro.gemm import GemmTrace, dgemm, parallel_dgemm

        rng = np.random.default_rng(11)
        a, b, c = (
            np.asfortranarray(rng.standard_normal(shape))
            for shape in ((m, k), (k, n), (m, n))
        )
        trace = GemmTrace()
        if threads == 1:
            dgemm(a, b, c, blocking=self.BLK, trace=trace)
        else:
            parallel_dgemm(a, b, c, threads=threads, blocking=self.BLK,
                           axis=axis, trace=trace)
        return trace

    @pytest.mark.parametrize("threads,axis", [(1, "m"), (3, "m"), (3, "n")])
    def test_recorded_trace_equals_synthesized(self, threads, axis):
        m, n, k = 150, 130, 140
        trace = self._recorded(m, n, k, threads, axis)
        sim = GemmSimulator()
        for kernel in ("OpenBLAS-8x6", "ATLAS-5x5"):
            synthesized = sim.simulate(
                kernel, m, n, k, threads=threads, blocking=self.BLK,
                parallel_axis=axis,
            )
            explicit = sim.simulate(
                kernel, m, n, k, threads=threads, blocking=self.BLK,
                trace=trace, parallel_axis=axis,
            )
            assert repr(explicit) == repr(synthesized)

    def test_trace_arrays_roundtrip(self):
        from repro.gemm import GemmTrace

        trace = self._recorded(100, 200, 60, 3, "n")
        back = GemmTrace.from_arrays(100, 200, 60, 3, trace.to_arrays())
        assert back.gebps == trace.gebps and back.packs == trace.packs

    def test_foreign_thread_ids_rejected(self):
        trace = self._recorded(150, 130, 140, 3, "m")
        with pytest.raises(SimulationError):
            GemmSimulator().simulate(
                "OpenBLAS-8x6", 150, 130, 140, threads=2, blocking=self.BLK,
                trace=trace,
            )

    @pytest.mark.parametrize("explicit", [False, True])
    def test_gebp_events_histogram(self, explicit):
        """The ``gemm_sim.gebp_events`` observation counts GEBP events
        (``baseline_simulate.json`` pins 10 for this run)."""
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        sim = GemmSimulator(metrics=metrics)
        blk = sim.default_blocking("OpenBLAS-8x6", 2)
        trace = synthesize_trace(512, 512, 512, blk, 2) if explicit else None
        sim.simulate("OpenBLAS-8x6", 512, 512, 512, threads=2, trace=trace)
        hist = metrics.as_dict()["histograms"]["gemm_sim.gebp_events"]
        assert (hist["count"], hist["total"]) == (1, 10.0)
        assert metrics.as_dict()["counters"]["gemm_sim.simulations"] == 1


class TestArrayPricingOracle:
    """The ``tune.analytic`` oracle over a wider sweep than CI's smoke
    budget: array pricing equals the per-event loop exactly."""

    def test_sweep_matches_and_covers_the_space(self):
        from repro.kernels.variants import VARIANTS
        from repro.verify import fuzz_params, get_oracle, run_case

        oracle = get_oracle("tune.analytic")
        cases = [
            params
            for seed in range(3)
            for params in fuzz_params(oracle, seed, "deep")
        ]
        seen = set()
        for params in cases:
            outcome = run_case(oracle, params)
            assert outcome.ok, (params, outcome.mismatches)
            machine, blk = params["machine"], params["blocking"]
            seen.add(params["kernel"])
            seen.add(("axis", params["axis"]))
            seen.add(("explicit", params["explicit_trace"]))
            if isinstance(machine, dict) and machine.get("clusters"):
                seen.add("two-cluster")
            if blk is not None:
                spec = VARIANTS[params["kernel"]]
                if (blk["mr"], blk["nr"]) != (spec.mr, spec.nr):
                    seen.add("foreign-tile")
                if params["threads"] > -(-params["m"] // blk["mc"]):
                    seen.add("surplus-threads")
        assert seen >= set(VARIANTS) | {
            ("axis", "m"), ("axis", "n"), ("explicit", True),
            "two-cluster", "foreign-tile", "surplus-threads",
        }


class TestMicrobench:
    def test_table_iv_model_within_two_points(self):
        for row in run_microbench():
            if not math.isnan(row.paper_efficiency):
                assert row.model_efficiency == pytest.approx(
                    row.paper_efficiency, abs=0.02
                ), row.ratio_label

    def test_monotone_ladder(self):
        rows = run_microbench(
            ratios=[(1, 1), (1, 2), (1, 3), (1, 4), (1, 5)]
        )
        effs = [r.model_efficiency for r in rows]
        assert effs == sorted(effs)

    def test_structural_bound_dominates_model(self):
        """The clean-port scoreboard can only be faster than reality."""
        for row in run_microbench():
            assert row.structural_efficiency >= row.model_efficiency - 1e-9

    def test_build_mix_counts(self):
        mix = build_mix(7, 24)
        loads = sum(1 for i in mix if i.is_load)
        fmas = sum(1 for i in mix if i.is_fma)
        assert loads * 24 == fmas * 7

    def test_build_mix_validation(self):
        with pytest.raises(SimulationError):
            build_mix(1, 0)
