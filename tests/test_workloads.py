"""Tests for the workloads package.

Covers the numeric kernels (stencil sweeps, conv lowerings), the machine
faces (traces, cache walk, timed kernel), the blocking solvers, the
exhibits, and the ``repro stencil`` / ``repro conv`` CLI surface.
"""

import json
from collections import Counter

import numpy as np
import pytest

from repro.arch.presets import XGENE, get_preset
from repro.blocking.cache_blocking import CacheBlocking
from repro.cli import main
from repro.errors import SimulationError
from repro.gemm import dgemm
from repro.isa.instructions import Str
from repro.isa.registers import VReg, XReg
from repro.memory.cache import CODE_LOAD, CODE_STORE
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs import validate_report
from repro.workloads import (
    ConvSpec,
    ConvWorkload,
    StencilSpec,
    StencilWorkload,
    conv_direct,
    conv_exhibit,
    conv_im2col,
    filter_matrix,
    im2col,
    simulate_workload_cache,
    solve_conv_blocking,
    solve_stencil_blocking,
    stencil_blocked,
    stencil_exhibit,
    stencil_reference,
    tap_offsets,
    timed_workload,
    traced_dgemm,
    unblocked_conv_blocking,
)
from tests.helpers import (
    conv_reference,
    conv_trace_reference,
    interpreted_pipeline,
)

SMALL_BLOCKING = CacheBlocking(mr=4, nr=4, kc=8, mc=8, nc=8,
                               k1=1, k2=1, k3=1)


def _grid(h, w, seed=0):
    return np.random.default_rng(seed).standard_normal((h, w))


class TestStencilNumerics:
    def test_constant_field_is_a_fixed_point(self):
        grid = np.full((9, 11), 3.5)
        out = stencil_reference(grid, StencilSpec(radius=1, iterations=3))
        assert np.array_equal(out, grid)

    def test_radius1_matches_independent_formula(self):
        grid = _grid(10, 12)
        spec = StencilSpec(radius=1, alpha=0.25)
        out = stencil_reference(grid, spec)
        a = spec.alpha
        interior = (
            spec.center_weight * grid[1:-1, 1:-1]
            + a * (grid[:-2, 1:-1] + grid[2:, 1:-1]
                   + grid[1:-1, :-2] + grid[1:-1, 2:])
        )
        assert np.allclose(out[1:-1, 1:-1], interior)
        assert np.array_equal(out[0, :], grid[0, :])
        assert np.array_equal(out[:, -1], grid[:, -1])

    @pytest.mark.parametrize("block", [(1, 1), (3, 7), (4, 5), (5, 5),
                                       (100, 100)])
    def test_blocked_bit_equal_including_remainders(self, block):
        grid = _grid(13, 17, seed=3)
        spec = StencilSpec(radius=2, iterations=2)
        assert np.array_equal(
            stencil_blocked(grid, spec, block),
            stencil_reference(grid, spec),
        )

    def test_tap_offsets_radius_two(self):
        assert tap_offsets(2) == [
            (0, 0), (-1, 0), (1, 0), (0, -1), (0, 1),
            (-2, 0), (2, 0), (0, -2), (0, 2),
        ]

    def test_spec_validation(self):
        with pytest.raises(SimulationError):
            StencilSpec(radius=0)
        with pytest.raises(SimulationError):
            StencilSpec(iterations=0)

    def test_no_interior_raises(self):
        with pytest.raises(SimulationError):
            StencilWorkload(2, 10)

    def test_solver_on_xgene(self):
        bi, bj = solve_stencil_blocking(XGENE, radius=1)
        assert (bi, bj) == (58, 56)
        # Tile + halo (reads) plus the tile itself (writes) fit the same
        # L1 streaming budget the GEMM solver allots the 8x6 slivers.
        from repro.blocking.cache_blocking import solve_cache_blocking

        budget = solve_cache_blocking(XGENE, 8, 6).kc * 14
        assert (bi + 2) ** 2 + bi ** 2 <= budget
        assert bj % (XGENE.l1d.line_bytes // 8) == 0


class TestStencilMachineFaces:
    def _workload(self, **kw):
        kw.setdefault("spec", StencilSpec(radius=1, iterations=2))
        kw.setdefault("block", (3, 4))
        return StencilWorkload(8, 12, **kw)

    def test_trace_shape(self):
        wl = self._workload()
        warm, main_trace = wl.traces(XGENE)
        spec = wl.spec
        n = (wl.height - 2) * (wl.width - 2)
        assert len(main_trace) == n * (spec.taps + 1) * spec.iterations
        kinds = main_trace.records["kind"]
        # Each element: taps loads then one store, in that rhythm.
        per = spec.taps + 1
        assert np.all(kinds.reshape(-1, per)[:, :-1] == CODE_LOAD)
        assert np.all(kinds.reshape(-1, per)[:, -1] == CODE_STORE)
        assert np.all(warm.records["kind"] == CODE_STORE)
        assert np.all(main_trace.records["address"] % 8 == 0)

    def test_cache_walk_batched_equals_scalar(self):
        wl = self._workload()
        batched = simulate_workload_cache(wl, XGENE, engine="batched", seed=0)
        scalar = simulate_workload_cache(wl, XGENE, engine="scalar", seed=0)
        assert batched == scalar
        assert batched.l1_loads == batched.trace_records * 5 // 6

    def test_load_latencies_batched_equal_scalar(self):
        wl = self._workload()
        batched = simulate_workload_cache(wl, XGENE, engine="batched", seed=0)
        scalar = simulate_workload_cache(wl, XGENE, engine="scalar", seed=0)
        assert batched.load_latencies.size == batched.l1_loads
        assert np.array_equal(batched.load_latencies, scalar.load_latencies)

    def test_timed_compiled_equals_interpreted(self):
        wl = self._workload()
        cache = simulate_workload_cache(wl, XGENE, seed=0)
        timed = timed_workload(wl, XGENE, cache)
        assert timed.pipeline == interpreted_pipeline(wl, XGENE, cache)
        assert timed.cycles == timed.pipeline.cycles
        assert timed.gflops > 0
        assert 0 < timed.efficiency <= 1

    def test_unknown_engines_rejected(self):
        wl = self._workload()
        with pytest.raises(SimulationError):
            simulate_workload_cache(wl, XGENE, engine="nope")

    def test_misaligned_kernel_segments_raise(self):
        class Broken(StencilWorkload):
            def kernel_segments(self, chip):
                return [([Str(VReg(1), XReg(0))], 1)]

        wl = Broken(8, 12, spec=StencilSpec(radius=1))
        with pytest.raises(SimulationError, match="misaligned"):
            timed_workload(wl, XGENE, simulate_workload_cache(wl, XGENE))


class TestConvNumerics:
    def _operands(self, spec, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((spec.cin, spec.height, spec.width))
        w = rng.standard_normal((spec.filters, spec.cin, spec.kh, spec.kw))
        return x, w

    def test_im2col_layout(self):
        x = np.arange(2 * 3 * 4, dtype=np.float64).reshape(2, 3, 4)
        patches = im2col(x, 2, 2)
        spec = ConvSpec(cin=2, height=3, width=4, kh=2, kw=2, filters=1)
        assert patches.shape == (spec.p, spec.k)
        # k index is (c*kh + dh)*kw + dw; p index is oy*OW + ox.
        assert patches[0, 0] == x[0, 0, 0]
        assert patches[1, 3] == x[0, 1, 2]
        assert patches[spec.out_width, 4] == x[1, 1, 0]

    def test_filter_matrix_layout(self):
        w = np.arange(3 * 2 * 2 * 2, dtype=np.float64).reshape(3, 2, 2, 2)
        wmat = filter_matrix(w)
        assert wmat.shape == (8, 3)
        assert np.array_equal(wmat[:, 1], w[1].ravel())

    def test_im2col_matches_reference(self):
        spec = ConvSpec(cin=3, height=9, width=8, kh=3, kw=2, filters=5)
        x, w = self._operands(spec)
        assert np.allclose(conv_im2col(x, w, SMALL_BLOCKING),
                           conv_reference(x, w))

    @pytest.mark.parametrize("blocking", [
        None,
        SMALL_BLOCKING,
        CacheBlocking(mr=8, nr=6, kc=4, mc=16, nc=12, k1=1, k2=1, k3=1),
        CacheBlocking(mr=2, nr=2, kc=3, mc=6, nc=4, k1=1, k2=1, k3=1),
        CacheBlocking(mr=5, nr=3, kc=7, mc=10, nc=9, k1=1, k2=1, k3=1),
    ])
    def test_direct_bit_equals_im2col(self, blocking):
        spec = ConvSpec(cin=2, height=10, width=9, kh=3, kw=3, filters=7)
        x, w = self._operands(spec, seed=5)
        assert np.array_equal(conv_direct(x, w, blocking),
                              conv_im2col(x, w, blocking))

    def test_blocked_bit_equals_unblocked(self):
        spec = ConvSpec(cin=2, height=12, width=11, kh=3, kw=3, filters=9)
        x, w = self._operands(spec, seed=7)
        blocking = CacheBlocking(mr=4, nr=3, kc=6, mc=8, nc=6,
                                 k1=1, k2=1, k3=1)
        unblocked = unblocked_conv_blocking(spec, blocking)
        assert unblocked.mc >= spec.p and unblocked.nc >= spec.filters
        assert np.array_equal(conv_im2col(x, w, blocking),
                              conv_im2col(x, w, unblocked))

    def test_channel_mismatch_raises(self):
        x = np.zeros((2, 5, 5))
        w = np.zeros((3, 1, 3, 3))
        with pytest.raises(SimulationError):
            conv_reference(x, w)
        with pytest.raises(SimulationError):
            conv_direct(x, w)

    def test_solver_clamps_to_problem(self):
        spec = ConvSpec(cin=1, height=10, width=10, kh=3, kw=3, filters=4)
        blocking = solve_conv_blocking(XGENE, spec)
        assert blocking.kc <= spec.k
        assert blocking.mc % blocking.mr == 0
        assert blocking.nc % blocking.nr == 0
        assert blocking.nc >= spec.filters


class TestConvMachineFaces:
    def _workload(self, lowering):
        spec = ConvSpec(cin=1, height=8, width=8, kh=3, kw=3, filters=4)
        return ConvWorkload(spec, lowering, SMALL_BLOCKING, seed=0)

    @pytest.mark.parametrize("lowering", ["im2col", "direct"])
    def test_cache_walk_batched_equals_scalar(self, lowering):
        wl = self._workload(lowering)
        batched = simulate_workload_cache(wl, XGENE, engine="batched", seed=0)
        scalar = simulate_workload_cache(wl, XGENE, engine="scalar", seed=0)
        assert batched == scalar

    @pytest.mark.parametrize("lowering", ["im2col", "direct"])
    def test_load_latencies_batched_equal_scalar(self, lowering):
        wl = self._workload(lowering)
        batched = simulate_workload_cache(wl, XGENE, engine="batched", seed=0)
        scalar = simulate_workload_cache(wl, XGENE, engine="scalar", seed=0)
        assert batched.load_latencies.size > 0
        assert np.array_equal(batched.load_latencies, scalar.load_latencies)

    @pytest.mark.parametrize("lowering", ["im2col", "direct"])
    def test_timed_compiled_equals_interpreted(self, lowering):
        wl = self._workload(lowering)
        cache = simulate_workload_cache(wl, XGENE, seed=0)
        timed = timed_workload(wl, XGENE, cache)
        assert timed.pipeline == interpreted_pipeline(wl, XGENE, cache)
        assert timed.cycles == timed.pipeline.cycles

    @pytest.mark.parametrize("lowering", ["im2col", "direct"])
    @pytest.mark.parametrize("shape,tile,kc,mc,nc", [
        # 5x3 tiles; mc, nc not multiples of mr, nr; kc not dividing K=12.
        ((2, 7, 6, 3, 2, 7), (5, 3), 5, 7, 4),
        # 2x2 tiles; odd mc, nc; kc=3 over K=4.
        ((1, 5, 5, 2, 2, 5), (2, 2), 3, 3, 3),
        # The paper's 8x6 tile with ragged blocks on every axis.
        ((3, 6, 7, 3, 3, 11), (8, 6), 7, 20, 10),
        # One block covering the problem, ragged register tiles.
        ((1, 6, 6, 3, 3, 5), (4, 4), 9, 16, 5),
    ])
    def test_trace_records_match_loop_nest(self, lowering, shape, tile,
                                           kc, mc, nc):
        """The streams are array expressions over slivers and register
        tiles; a per-element loop nest must give the same records in the
        same order."""
        cin, h, w, kh, kw, f = shape
        spec = ConvSpec(cin=cin, height=h, width=w, kh=kh, kw=kw, filters=f)
        blocking = CacheBlocking(mr=tile[0], nr=tile[1], kc=kc, mc=mc, nc=nc,
                                 k1=1, k2=1, k3=1)
        wl = ConvWorkload(spec, lowering, blocking)
        warm, main = wl.traces(XGENE)
        ref_warm, ref_main = conv_trace_reference(wl, XGENE.l1d.line_bytes)
        assert warm.records.tolist() == ref_warm
        assert main.records.tolist() == ref_main

    def test_im2col_pays_the_patches_round_trip(self):
        im = simulate_workload_cache(self._workload("im2col"), XGENE, seed=0)
        d = simulate_workload_cache(self._workload("direct"), XGENE, seed=0)
        assert im.dram_accesses > d.dram_accesses
        assert im.trace_records > d.trace_records

    def test_unknown_lowering_rejected(self):
        spec = ConvSpec(cin=1, height=8, width=8, kh=3, kw=3, filters=4)
        with pytest.raises(SimulationError):
            ConvWorkload(spec, "winograd", SMALL_BLOCKING)


class TestTracedDgemm:
    def test_matches_dgemm_and_counts_flops(self):
        rng = np.random.default_rng(0)
        a = np.asfortranarray(rng.standard_normal((7, 5)))
        b = np.asfortranarray(rng.standard_normal((5, 6)))
        c = np.asfortranarray(rng.standard_normal((7, 6)))
        out, flops = traced_dgemm(a, b, c.copy(order="F"), alpha=-1.0,
                                  beta=1.0, blocking=SMALL_BLOCKING)
        expect = dgemm(a, b, c.copy(order="F"), alpha=-1.0, beta=1.0,
                       blocking=SMALL_BLOCKING)
        assert np.array_equal(out, expect)
        assert flops == 2 * 7 * 6 * 5


class TestExhibits:
    def test_stencil_smoke_doc(self):
        doc = stencil_exhibit(XGENE, smoke=True)
        assert doc["bit_identical"] is True
        assert doc["block"] == {"bi": 58, "bj": 56}
        # Rows exceed the L1: blocking must win the miss-rate contest.
        assert doc["miss_rate_ratio"] > 1.5
        json.dumps(doc)  # serve-layer cacheable

    def test_conv_smoke_doc(self):
        doc = conv_exhibit(XGENE, smoke=True)
        assert doc["bit_identical"] is True
        assert doc["bit_identical_unblocked"] is True
        assert doc["dram_ratio"] > 1.0
        assert doc["speedup"] > 1.0
        json.dumps(doc)

    def test_stencil_exhibit_replays_each_variant_once(self, monkeypatch):
        """Per variant: one ``traces()`` call and two hierarchy replays,
        ``run_batch`` for the warm stream and ``run_batch_levels`` for
        the main one. The timed face prices the cache walk's replay
        instead of replaying the stream again."""
        calls = Counter()

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(StencilWorkload, "traces")
        counted(MemoryHierarchy, "run_batch")
        counted(MemoryHierarchy, "run_batch_levels")
        stencil_exhibit(XGENE, smoke=True)
        assert calls == {"traces": 2, "run_batch": 2, "run_batch_levels": 2}

    def test_stencil_exhibit_overrides(self):
        doc = stencil_exhibit(get_preset("xgene"), height=10, width=64,
                              iterations=1)
        assert doc["params"]["height"] == 10
        assert doc["bit_identical"] is True


class TestWorkloadCli:
    def test_stencil_cli_with_report(self, tmp_path, capsys):
        out = tmp_path / "stencil.json"
        assert main(["stencil", "--height", "12", "--width", "64",
                     "--iterations", "1", "--json", str(out)]) == 0
        text = capsys.readouterr().out
        assert "bit-identical outputs: True" in text
        assert "miss-rate ratio" in text
        report = json.loads(out.read_text())
        validate_report(report)
        assert report["command"] == "stencil"
        assert report["stats"]["bit_identical"] is True
        assert report["params"]["height"] == 12

    def test_conv_cli_with_report(self, tmp_path, capsys):
        out = tmp_path / "conv.json"
        assert main(["conv", "--cin", "1", "--height", "10", "--width", "10",
                     "--filters", "4", "--json", str(out)]) == 0
        text = capsys.readouterr().out
        assert "bit-identical lowerings: True; vs unblocked: True" in text
        assert "DRAM ratio" in text
        report = json.loads(out.read_text())
        validate_report(report)
        assert report["command"] == "conv"
        assert report["stats"]["bit_identical"] is True
        assert report["stats"]["bit_identical_unblocked"] is True

    def test_bad_machine_rejected(self):
        with pytest.raises(SystemExit):
            main(["stencil", "--machine", "nope"])
