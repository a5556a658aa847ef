"""Unit tests for the load scheduler (eq. (13), Fig. 7) and codegen (Fig. 8)."""

import pytest

from repro.arch import XGENE
from repro.isa import parse_program
from repro.kernels import (
    KernelSpec,
    KERNEL_4X4,
    KERNEL_5X5_ATLAS,
    KERNEL_8X4,
    KERNEL_8X6,
    generate_kernel,
    get_variant,
    paper_plan,
    schedule_body,
    solve_rotation,
    static_plan,
)
from repro.pipeline import ScoreboardCore
from tests.helpers import flops_per_body


class TestBodySchedule:
    def test_op_counts_8x6(self):
        sched = schedule_body(KERNEL_8X6, paper_plan())
        kinds = [op.kind for op in sched.ops]
        assert kinds.count("fmla") == 8 * 24
        assert kinds.count("ldr") == 8 * 7
        assert kinds.count("prfm") == 8 * 2

    def test_every_copy_gets_its_loads(self):
        sched = schedule_body(KERNEL_8X6, paper_plan())
        assert sched.loads_per_copy == (7,) * 8

    def test_loads_alternate_with_fmlas(self):
        """One load port: never two consecutive memory ops."""
        sched = schedule_body(KERNEL_8X6, paper_plan())
        prev_mem = False
        for op in sched.ops:
            mem = op.kind in ("ldr", "prfm")
            assert not (mem and prev_mem), "two adjacent memory ops"
            prev_mem = mem

    def test_stream_order_preserved(self):
        """Post-indexed addressing: A loads appear in slot order per wrap,
        i.e. slot indices cycle A0,A1,A2,A3,A0,... through the body."""
        sched = schedule_body(KERNEL_8X6, paper_plan())
        a_slots = [int(op.slot[1:]) for op in sched.ops
                   if op.kind == "ldr" and op.stream == "A"]
        for prev, cur in zip(a_slots, a_slots[1:]):
            assert cur == (prev + 1) % 4

    def test_paper_plan_distance_close_to_9(self):
        """The paper's Fig. 7 realizes distance 9; our greedy scheduler on
        the same rotation plan achieves 10 (same counting unit)."""
        sched = schedule_body(KERNEL_8X6, paper_plan())
        assert sched.min_load_use_distance >= 9

    def test_solved_plan_schedules_further_ahead(self):
        d_paper = schedule_body(KERNEL_8X6, paper_plan()).min_load_use_distance
        d_solved = schedule_body(
            KERNEL_8X6, solve_rotation(KERNEL_8X6)
        ).min_load_use_distance
        assert d_solved > d_paper

    def test_static_plan_short_window(self):
        d_static = schedule_body(
            KERNEL_8X6, static_plan(KERNEL_8X6)
        ).min_load_use_distance
        assert d_static < 9  # the rotation ablation's handicap

    def test_without_prefetch(self):
        sched = schedule_body(KERNEL_8X6, paper_plan(), with_prefetch=False)
        assert all(op.kind != "prfm" for op in sched.ops)

    @pytest.mark.parametrize(
        "spec", [KERNEL_8X4, KERNEL_4X4, KernelSpec(5, 5, "5x5-by-element")]
    )
    def test_other_kernels_schedule(self, spec):
        plan = solve_rotation(spec)
        sched = schedule_body(spec, plan)
        kinds = [op.kind for op in sched.ops]
        assert kinds.count("fmla") == plan.unroll * spec.fmla_per_iter
        assert kinds.count("ldr") == plan.unroll * spec.ldr_per_iter


class TestCodegen:
    def test_generated_8x6_matches_paper_budget(self):
        k = get_variant("OpenBLAS-8x6")
        assert k.body.num_fmla == 192
        assert k.body.num_loads == 56
        assert k.body.num_prefetches == 16
        assert k.body.ldr_fmla_ratio == (7, 24)
        assert k.body.arithmetic_fraction == pytest.approx(0.774, abs=1e-3)
        assert flops_per_body(k) == 8 * 96

    def test_body_round_trips_through_assembler(self):
        k = get_variant("OpenBLAS-8x6")
        text = k.body.to_text()
        assert parse_program(text) == k.body.instructions

    def test_prologue_epilogue(self):
        k = get_variant("OpenBLAS-8x6")
        assert len(k.prologue) == 24  # C tile loads
        assert len(k.epilogue) == 24  # C tile stores
        assert all(i.is_load for i in k.prologue)
        assert all(i.is_store for i in k.epilogue)

    def test_prefetch_distances_in_body(self):
        k = get_variant("OpenBLAS-8x6", kc=512)
        offs = {i.target.value: i.offset for i in k.body if i.is_prefetch}
        assert offs["PLDL1KEEP"] == 1024   # PREFA
        assert offs["PLDL2KEEP"] == 24576  # PREFB

    def test_c_registers_disjoint_from_pool(self):
        k = get_variant("OpenBLAS-8x6")
        accs = {i.acc.index for i in k.body if i.is_fma}
        pools = {i.multiplicand.index for i in k.body if i.is_fma}
        assert accs == set(range(8, 32))
        assert pools <= set(range(0, 8))

    def test_rotated_kernel_has_no_stalls_at_l1_latency(self):
        """The generated 8x6 achieves ideal FMA-bound cycles (Sec. IV-A's
        goal: loads fully hidden)."""
        k = get_variant("OpenBLAS-8x6")
        core = ScoreboardCore(XGENE.core)
        per_body = core.steady_state_cycles_per_iteration(k.body.instructions)
        ideal = k.body.num_fmla * XGENE.core.fma_throughput_cycles
        assert per_body == pytest.approx(ideal, rel=0.01)

    def test_rotation_hides_l2_latency_static_does_not(self):
        """The Fig. 13 mechanism: at L2-ish load latency the rotated kernel
        still runs at full speed while the static one stalls."""
        rot = get_variant("OpenBLAS-8x6")
        sta = get_variant("OpenBLAS-8x6-noRR")
        core = ScoreboardCore(XGENE.core, load_latency=XGENE.l2.latency_cycles)
        per_rot = core.steady_state_cycles_per_iteration(rot.body.instructions)
        per_sta = core.steady_state_cycles_per_iteration(sta.body.instructions)
        assert per_rot < per_sta

    @pytest.mark.parametrize(
        "name,fmla,ldr",
        [
            ("OpenBLAS-8x4", 16, 6),
            ("OpenBLAS-4x4", 8, 4),
            ("ATLAS-5x5", 15, 6),
        ],
    )
    def test_variant_budgets(self, name, fmla, ldr):
        k = get_variant(name)
        u = k.plan.unroll
        assert k.body.num_fmla == u * fmla
        assert k.body.num_loads == u * ldr

    def test_unknown_variant(self):
        with pytest.raises(KeyError):
            get_variant("OpenBLAS-16x16")

    def test_variant_memoization(self):
        assert get_variant("OpenBLAS-8x6") is get_variant("OpenBLAS-8x6")

    def test_generate_without_prefetch(self):
        k = generate_kernel(KERNEL_8X6, with_prefetch=False)
        assert k.body.num_prefetches == 0
        assert k.prefetch is None


class TestSchedulingStrategies:
    def test_latest_strategy_short_distances(self):
        from repro.kernels import KERNEL_8X6, paper_plan

        early = schedule_body(KERNEL_8X6, paper_plan(), strategy="earliest")
        late = schedule_body(KERNEL_8X6, paper_plan(), strategy="latest")
        assert late.min_load_use_distance < early.min_load_use_distance
        # Same instruction budget either way.
        assert len(late.ops) == len(early.ops)

    def test_latest_strategy_still_correct(self):
        """The naive schedule is slower, never wrong: functional execution
        still produces the exact product."""
        import numpy as np
        from repro.kernels import KERNEL_8X6
        from repro.kernels.execute import execute_micro_tile

        kernel = generate_kernel(KERNEL_8X6, schedule_strategy="latest")
        rng = np.random.default_rng(0)
        a = rng.standard_normal((32, 8))
        b = rng.standard_normal((32, 6))
        got = execute_micro_tile(kernel, a, b)
        assert np.allclose(got, a.T @ b, atol=1e-12)

    def test_unknown_strategy_rejected(self):
        import pytest as _pytest

        from repro.errors import SchedulingError
        from repro.kernels import KERNEL_8X6, paper_plan

        with _pytest.raises(SchedulingError):
            schedule_body(KERNEL_8X6, paper_plan(), strategy="random")
