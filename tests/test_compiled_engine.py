"""Differential tests: compiled timed-execution engine vs the interpreter.

The compiled engine's contract is bit-identity on every observable —
cycles, raw/structural/WAR stall counts, issue cycles, load-latency
histograms and C values — across all compilable kernel variants. These
tests enforce that contract at each layer: the scoreboard template
stepper, the micro-tile, full GEBPs and the dual-core shared-L2 run,
plus hypothesis sweeps over random kernels, shapes and operand seeds.
"""

import dataclasses
import hashlib
import sys
import threading
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import XGENE
from repro.errors import SimulationError
from repro.gemm import pack_a, pack_b
from repro.gemm.reference import naive_dgemm
from repro.kernels import compilability, compile_kernel, get_variant
from repro.kernels import compiled as compiled_module
from repro.memory import MemoryHierarchy
from repro.pipeline import ScoreboardCore, ScoreboardTemplate
from repro.pipeline import scoreboard as scoreboard_module
from repro.sim import (
    TIMED_ENGINES,
    run_timed_gebp,
    run_timed_gebp_dual,
    run_timed_micro_tile,
)
from repro.sim import timed_executor

COMPILABLE = ["OpenBLAS-8x6", "OpenBLAS-8x4", "OpenBLAS-4x4",
              "OpenBLAS-8x6-noRR", "ATLAS-5x5", "ATLAS-5x5-kvec"]

RNG = np.random.default_rng(42)


def micro_operands(kernel, bodies, rng=RNG):
    kc = kernel.plan.unroll * bodies
    a = rng.standard_normal((kc, kernel.spec.mr))
    b = rng.standard_normal((kc, kernel.spec.nr))
    c = rng.standard_normal((kernel.spec.mr, kernel.spec.nr))
    return a, b, c


def assert_tile_identical(ri, rc):
    assert rc.pipeline == ri.pipeline
    assert rc.load_latencies == ri.load_latencies
    assert np.array_equal(rc.c_tile, ri.c_tile)
    assert rc.cycles == ri.cycles and rc.efficiency == ri.efficiency


def _noncompilable_kernel():
    """A by-element kernel whose body smuggles a full-vector FMLA — the
    compiled engine must refuse it with a reason."""
    from dataclasses import replace

    from repro.isa.instructions import FmlaVec
    from repro.isa.program import Program
    from repro.isa.registers import VReg

    base = get_variant("OpenBLAS-4x4")
    bad = Program(name="bad-body")
    for instr in base.body:
        bad.append(instr)
    bad.append(
        FmlaVec(acc=VReg(0), multiplicand=VReg(1), multiplier=VReg(2))
    )
    return replace(base, body=bad)


class TestEngineSelection:
    def test_engines_exported(self):
        assert TIMED_ENGINES == ("auto", "compiled", "interpreted")

    @pytest.mark.parametrize("name", COMPILABLE)
    def test_paper_kernels_compile(self, name):
        assert compilability(get_variant(name)) is None

    def test_atlas_variants_compile(self):
        """Both ATLAS forms — the odd-tile by-element rendering (lane
        padding) and the true k-vectorized kernel — now compile."""
        assert compilability(get_variant("ATLAS-5x5")) is None
        assert compilability(get_variant("ATLAS-5x5-kvec")) is None

    def test_compiled_engine_rejects_noncompilable(self):
        kernel = _noncompilable_kernel()
        reason = compilability(kernel)
        assert reason is not None and "full-vector" in reason
        a = RNG.standard_normal((kernel.plan.unroll, kernel.spec.mr))
        b = RNG.standard_normal((kernel.plan.unroll, kernel.spec.nr))
        with pytest.raises(SimulationError):
            run_timed_micro_tile(kernel, a, b, engine="compiled")

    def test_unknown_engine_rejected(self):
        kernel = get_variant("OpenBLAS-8x6")
        a, b, c = micro_operands(kernel, 2)
        with pytest.raises(SimulationError):
            run_timed_micro_tile(kernel, a, b, c, engine="jit")

    def test_compile_cache_reuses_object(self):
        kernel = get_variant("OpenBLAS-8x6")
        assert compile_kernel(kernel) is compile_kernel(kernel)
        assert id(kernel) in compiled_module._CACHE


class TestAutoIsCompiled:
    """``engine="auto"`` names the compiled engine: a kernel the compiled
    engine cannot lower raises with the :func:`compilability` reason from
    every timed entry point; ``engine="interpreted"`` still runs it."""

    @staticmethod
    def _run(entry, kernel, engine):
        spec = kernel.spec
        kc = kernel.plan.unroll
        rng = np.random.default_rng(5)
        pa = rng.standard_normal((1, kc, spec.mr))
        pb = rng.standard_normal((1, kc, spec.nr))
        if entry == "micro_tile":
            return run_timed_micro_tile(kernel, pa[0], pb[0], engine=engine)
        if entry == "gebp":
            return run_timed_gebp(kernel, pa, pb, engine=engine)
        return run_timed_gebp_dual(kernel, pa, pa, pb, engine=engine)[0]

    @pytest.mark.parametrize("entry", ["micro_tile", "gebp", "gebp_dual"])
    def test_auto_raises_with_reason(self, entry):
        kernel = _noncompilable_kernel()
        reason = compilability(kernel)
        with pytest.raises(SimulationError) as err:
            self._run(entry, kernel, "auto")
        assert reason in str(err.value)

    @pytest.mark.parametrize("entry", ["micro_tile", "gebp", "gebp_dual"])
    def test_interpreted_runs_noncompilable(self, entry):
        run = self._run(entry, _noncompilable_kernel(), "interpreted")
        assert run.engine == "interpreted"
        assert run.cycles > 0

    def test_compilability_runs_once_per_compiled_kernel(self, monkeypatch):
        calls = []
        real = compiled_module.compilability

        def counting(kernel):
            calls.append(kernel)
            return real(kernel)

        # Wrap it wherever it is bound, so no caller escapes the count.
        for module in list(sys.modules.values()):
            if getattr(module, "compilability", None) is real:
                monkeypatch.setattr(module, "compilability", counting)
        kernel = dataclasses.replace(get_variant("OpenBLAS-8x6"))
        a, b, c = micro_operands(kernel, 2)
        for _ in range(3):
            assert run_timed_micro_tile(kernel, a, b, c).engine == "compiled"
        pa = np.stack([a, a])
        pb = np.stack([b, b])
        assert run_timed_gebp(kernel, pa, pb).engine == "compiled"
        assert len(calls) == 1


class TestScoreboardCompiled:
    """run_compiled vs run on the same flat instruction stream."""

    def _flat(self, kernel, bodies):
        return (
            list(kernel.prologue)
            + list(kernel.body) * bodies
            + list(kernel.epilogue)
        )

    @pytest.mark.parametrize("name", COMPILABLE)
    @pytest.mark.parametrize("enforce_war", [False, True])
    def test_bit_identical(self, name, enforce_war):
        kernel = get_variant(name)
        bodies = 5
        stream = self._flat(kernel, bodies)
        segments = [
            (ScoreboardTemplate(kernel.prologue), 1),
            (ScoreboardTemplate(kernel.body), bodies),
            (ScoreboardTemplate(kernel.epilogue), 1),
        ]
        n_loads = sum(t.n_loads * rep for t, rep in segments)
        rng = np.random.default_rng(7)
        lats = [int(x) for x in rng.choice([4, 4, 4, 12, 40, 180], n_loads)]
        per_dyn = {}
        cursor = 0
        for idx, instr in enumerate(stream):
            if instr.mnemonic.value == "ldr":
                per_dyn[idx] = lats[cursor]
                cursor += 1
        core = ScoreboardCore(XGENE.core, enforce_war=enforce_war)
        ref = core.run(stream, latency_fn=lambda _i, d: per_dyn.get(d, 0))
        got = core.run_compiled(segments, lats)
        assert got == ref

    def test_memo_shared_across_calls(self):
        kernel = get_variant("OpenBLAS-8x6")
        segments = [(ScoreboardTemplate(kernel.body), 8)]
        n_loads = segments[0][0].n_loads * 8
        core = ScoreboardCore(XGENE.core)
        memo = {}
        first = core.run_compiled(segments, [4] * n_loads, memo=memo)
        assert memo  # steady-state iterations hit the memo
        again = core.run_compiled(segments, [4] * n_loads, memo=memo)
        assert again == first

    def test_short_latency_list_rejected(self):
        kernel = get_variant("OpenBLAS-8x6")
        core = ScoreboardCore(XGENE.core)
        with pytest.raises(SimulationError):
            core.run_compiled([(ScoreboardTemplate(kernel.body), 2)], [4])


class TestScoreboardMemo:
    """The automaton a shared memo carries: thread-safe and bounded."""

    def test_threads_racing_one_kernel_match_serial(self):
        rng = np.random.default_rng(3)
        cases = [
            (micro_operands(get_variant("OpenBLAS-8x6"), bodies, rng), late)
            for bodies in (2, 5, 9) for late in (0.0, 0.5, 1.0)
        ]

        def run_all(kernel):
            return [
                run_timed_micro_tile(kernel, *ops, hw_late=late)
                for ops, late in cases
            ]

        serial = run_all(dataclasses.replace(get_variant("OpenBLAS-8x6")))
        shared = dataclasses.replace(get_variant("OpenBLAS-8x6"))
        results = {}
        errors = []

        def worker(tid):
            try:
                results[tid] = run_all(shared)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(t,)) for t in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        for runs in results.values():
            for got, want in zip(runs, serial):
                assert_tile_identical(want, got)
        auto = compile_kernel(shared).memo_for(XGENE.core)["automaton"]
        # Every state was interned once: ids are dense and unique.
        assert sorted(auto.ids.values()) == list(range(len(auto.sigs)))

    def test_memo_past_the_limit_stops_growing(self, monkeypatch):
        monkeypatch.setattr(scoreboard_module, "MEMO_LIMIT", 12)
        kernel = get_variant("OpenBLAS-8x6")
        template = ScoreboardTemplate(kernel.body)
        bodies = 40
        rng = np.random.default_rng(11)
        lats = [int(x) for x in rng.choice([4, 12, 40, 180],
                                           template.n_loads * bodies)]
        per_dyn = {}
        loads = iter(lats)
        stream = list(kernel.body) * bodies
        for idx, instr in enumerate(stream):
            if instr.is_load:
                per_dyn[idx] = next(loads)
        core = ScoreboardCore(XGENE.core)
        ref = core.run(stream, latency_fn=lambda _i, d: per_dyn.get(d, 0))
        memo = {}
        assert core.run_compiled([(template, bodies)], lats, memo=memo) == ref
        auto = memo["automaton"]
        size = len(auto.sigs) + len(auto.steps)
        assert size == 12
        assert core.run_compiled([(template, bodies)], lats, memo=memo) == ref
        assert len(auto.sigs) + len(auto.steps) == size


class TestMicroTileDifferential:
    @pytest.mark.parametrize("name", COMPILABLE)
    def test_bit_identical(self, name):
        kernel = get_variant(name)
        a, b, c0 = micro_operands(kernel, 12)
        ri = run_timed_micro_tile(kernel, a, b, c0, engine="interpreted")
        rc = run_timed_micro_tile(kernel, a, b, c0, engine="compiled")
        assert_tile_identical(ri, rc)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"warm_l2": False},
            {"hw_late": 0.0},
            {"hw_late": 1.0},
        ],
    )
    def test_bit_identical_across_memory_settings(self, kwargs):
        kernel = get_variant("OpenBLAS-8x6")
        a, b, c0 = micro_operands(kernel, 8)
        ri = run_timed_micro_tile(
            kernel, a, b, c0, engine="interpreted", **kwargs
        )
        rc = run_timed_micro_tile(kernel, a, b, c0, engine="compiled", **kwargs)
        assert_tile_identical(ri, rc)

    def test_auto_picks_compiled_path(self):
        kernel = get_variant("OpenBLAS-8x6")
        a, b, c0 = micro_operands(kernel, 8)
        ra = run_timed_micro_tile(kernel, a, b, c0, engine="auto")
        rc = run_timed_micro_tile(kernel, a, b, c0, engine="compiled")
        assert_tile_identical(ra, rc)


class TestGebpDifferential:
    def test_bit_identical(self):
        kernel = get_variant("OpenBLAS-8x6")
        mc, kc, nc = 24, 64, 18
        a = RNG.standard_normal((mc, kc))
        b = RNG.standard_normal((kc, nc))
        c = RNG.standard_normal((mc, nc))
        runs = {
            e: run_timed_gebp(
                kernel, pack_a(a, 8), pack_b(b, 6), c.copy(), engine=e
            )
            for e in ("interpreted", "compiled")
        }
        ri, rc = runs["interpreted"], runs["compiled"]
        assert rc.cycles == ri.cycles
        assert rc.tile_cycles == ri.tile_cycles
        assert np.array_equal(rc.c_panel, ri.c_panel)
        assert np.allclose(rc.c_panel, c + a @ b, atol=1e-11)


class TestDualGebp:
    def test_panels_match_reference(self):
        """Both cores' C panels equal the naive reference product."""
        kernel = get_variant("OpenBLAS-8x6")
        mc, kc, nc = 16, 32, 12
        a0 = RNG.standard_normal((mc, kc))
        a1 = RNG.standard_normal((mc, kc))
        b = RNG.standard_normal((kc, nc))
        r0, r1 = run_timed_gebp_dual(
            kernel, pack_a(a0, 8), pack_a(a1, 8), pack_b(b, 6)
        )
        zero = np.zeros((mc, nc))
        assert np.allclose(
            r0.c_panel, naive_dgemm(a0, b, zero.copy()), atol=1e-11
        )
        assert np.allclose(
            r1.c_panel, naive_dgemm(a1, b, zero.copy()), atol=1e-11
        )

    def test_bit_identical_across_engines(self):
        kernel = get_variant("OpenBLAS-8x6")
        mc, kc, nc = 16, 64, 12
        a0 = RNG.standard_normal((mc, kc))
        a1 = RNG.standard_normal((mc, kc))
        pb = pack_b(RNG.standard_normal((kc, nc)), 6)
        runs = {}
        for e in ("interpreted", "compiled"):
            runs[e] = run_timed_gebp_dual(
                kernel, pack_a(a0, 8), pack_a(a1, 8), pb, engine=e
            )
        for ri, rc in zip(runs["interpreted"], runs["compiled"]):
            assert rc.cycles == ri.cycles
            assert rc.tile_cycles == ri.tile_cycles
            assert np.array_equal(rc.c_panel, ri.c_panel)

    def test_serial_mc_overflows_shared_l2(self):
        """The serial-algorithm mc thrashes the shared L2 where the
        parallel mc coexists — eq. (19)'s motivation — and the compiled
        engine reproduces the interpreter's miss rates exactly."""
        kernel = get_variant("OpenBLAS-8x6")
        kc, nc = 256, 12
        pb = pack_b(RNG.standard_normal((kc, nc)), 6)
        rates = {}
        for mc in (112, 48):  # 2 x 112 x 256 x 8B = 458 KiB vs 196 KiB
            per_engine = {}
            for e in ("interpreted", "compiled"):
                a0 = np.random.default_rng(mc).standard_normal((mc, kc))
                a1 = np.random.default_rng(mc + 1).standard_normal((mc, kc))
                h = MemoryHierarchy(XGENE)
                run_timed_gebp_dual(
                    kernel, pack_a(a0, 8), pack_a(a1, 8), pb,
                    hierarchy=h, engine=e,
                )
                l2 = h.l2_stats(0)
                per_engine[e] = (l2.accesses, l2.misses)
            assert per_engine["compiled"] == per_engine["interpreted"]
            accesses, misses = per_engine["compiled"]
            rates[mc] = misses / max(1, accesses)
        assert rates[112] > 2 * rates[48]


def _panel_sha(panel):
    return hashlib.sha256(np.ascontiguousarray(panel).tobytes()).hexdigest()


def _pin_operands(kernel, seed, kc, n_a):
    rng = np.random.default_rng(seed)
    spec = kernel.spec
    pas = [rng.standard_normal((2, kc, spec.mr)) for _ in range(n_a)]
    pb = rng.standard_normal((2, kc, spec.nr))
    c0 = rng.standard_normal((2 * spec.mr, 2 * spec.nr))
    return pas, pb, c0


class TestGebpPins:
    """Exact cycles, per-tile cycles and C-panel SHA-256 of the GEBP loop.

    The interpreted-vs-compiled differentials run both engines through
    the same tile loop, so a moved A/B/C placement would pass them; these
    pins (recorded before the single- and dual-core loops were merged)
    catch it, on both engines."""

    GEBP = {
        "OpenBLAS-8x6": (
            7068, [1785, 1749, 1785, 1749],
            "99497464f22536459ea9e585011a2912d6945c3165e8b9c3406a12b3e33371f1",
        ),
        "ATLAS-5x5-kvec": (
            4426, [1201, 963, 1299, 963],
            "3c121fb958abf6e867d4d7b1d90911718774d024fba052bcead1f13957211796",
        ),
    }
    DUAL = (
        (13284, [3357, 3285, 3357, 3285],
         "0b6c9049e551f617eec63c40a734d6e7260499668653a262c8435042bd90c03c"),
        (13140, [3285, 3285, 3285, 3285],
         "d91772ef1efbcdf8f0e98597d79dcad6d6ab79ec0c1570a7f301b8d624842090"),
    )
    #: Shared-L2 ``CacheStats`` of the dual run's module, as a tuple.
    DUAL_L2 = (84, 51, 0, 0, 938, 204, 0, 0)

    @pytest.mark.parametrize("engine", ["compiled", "interpreted"])
    @pytest.mark.parametrize("name", sorted(GEBP))
    def test_single_core(self, name, engine):
        kernel = get_variant(name)
        (pa,), pb, c0 = _pin_operands(kernel, 11, 32, 1)
        run = run_timed_gebp(kernel, pa, pb, c0, engine=engine)
        assert (run.cycles, run.tile_cycles, _panel_sha(run.c_panel)) == (
            self.GEBP[name]
        )

    @pytest.mark.parametrize("engine", ["compiled", "interpreted"])
    def test_dual_core(self, engine):
        kernel = get_variant("OpenBLAS-8x6")
        (pa0, pa1), pb, _ = _pin_operands(kernel, 12, 64, 2)
        h = MemoryHierarchy(XGENE)
        runs = run_timed_gebp_dual(
            kernel, pa0, pa1, pb, hierarchy=h, engine=engine
        )
        assert tuple(
            (r.cycles, r.tile_cycles, _panel_sha(r.c_panel)) for r in runs
        ) == self.DUAL
        assert dataclasses.astuple(h.l2_stats(0)) == self.DUAL_L2


class TestHypothesisDifferential:
    @settings(max_examples=12)
    @given(
        name=st.sampled_from(COMPILABLE),
        bodies=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
        hw_late=st.sampled_from([0.0, 0.25, 1.0]),
    )
    def test_micro_tile(self, name, bodies, seed, hw_late):
        kernel = get_variant(name)
        rng = np.random.default_rng(seed)
        a, b, c0 = micro_operands(kernel, bodies, rng)
        ri = run_timed_micro_tile(
            kernel, a, b, c0, hw_late=hw_late, engine="interpreted"
        )
        rc = run_timed_micro_tile(
            kernel, a, b, c0, hw_late=hw_late, engine="compiled"
        )
        assert_tile_identical(ri, rc)

    @settings(max_examples=6)
    @given(
        name=st.sampled_from(["OpenBLAS-8x6", "OpenBLAS-4x4"]),
        na=st.integers(min_value=1, max_value=2),
        nb=st.integers(min_value=1, max_value=2),
        bodies=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_gebp(self, name, na, nb, bodies, seed):
        kernel = get_variant(name)
        spec = kernel.spec
        kc = kernel.plan.unroll * bodies
        rng = np.random.default_rng(seed)
        pa = rng.standard_normal((na, kc, spec.mr))
        pb = rng.standard_normal((nb, kc, spec.nr))
        c0 = rng.standard_normal((na * spec.mr, nb * spec.nr))
        ri = run_timed_gebp(kernel, pa, pb, c0.copy(), engine="interpreted")
        rc = run_timed_gebp(kernel, pa, pb, c0.copy(), engine="compiled")
        assert rc.cycles == ri.cycles
        assert rc.tile_cycles == ri.tile_cycles
        assert np.array_equal(rc.c_panel, ri.c_panel)


class TestTraceCacheBound:
    """Tile traces are memoized per compiled kernel under a fixed bound:
    timed runs differing only in ``hw_late`` each build a trace, and the
    memoized kernel keeps at most ``TRACE_CACHE_LIMIT`` of them."""

    def test_distinct_hw_late_stops_growing_at_the_bound(self):
        kernel = get_variant("OpenBLAS-8x6")
        compiled = compile_kernel(kernel)
        compiled._trace_cache.clear()
        limit = 16
        a, b, c = micro_operands(kernel, bodies=2)
        runs = [
            run_timed_micro_tile(kernel, a, b, c, hw_late=i / 64,
                                 engine="compiled")
            for i in range(limit + 8)
        ]
        assert len(compiled._trace_cache) == limit
        assert compiled_module.TRACE_CACHE_LIMIT == limit
        # An evicted trace rebuilds to the same run.
        again = run_timed_micro_tile(kernel, a, b, c, hw_late=0.0,
                                     engine="compiled")
        assert_tile_identical(runs[0], again)


class TestModuleTypeHints:
    """Regression for the missing ``Tuple`` import: every public callable
    in the timed executor must resolve its annotations."""

    def test_public_functions_resolve(self):
        ns = vars(timed_executor)
        checked = 0
        for name in getattr(timed_executor, "__all__", None) or [
            "run_timed_micro_tile", "run_timed_gebp", "run_timed_gebp_dual"
        ]:
            obj = ns[name]
            if callable(obj):
                typing.get_type_hints(obj, include_extras=True)
                checked += 1
        assert checked >= 3
