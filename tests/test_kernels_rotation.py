"""Unit tests for the register-rotation solver (eq. (12), Table I)."""

import itertools

import pytest

from repro.arch.presets import BIG_LITTLE, MOBILE_SOC, XGENE
from repro.errors import RegisterAllocationError
from repro.kernels import (
    KERNEL_4X4,
    KERNEL_8X4,
    KERNEL_8X6,
    KERNEL_8X6_NO_ROTATION,
    PAPER_SIGMA_8X6,
    paper_plan,
    plan_from_cycle,
    slot_read_positions,
    solve_rotation,
    static_plan,
)
from repro.kernels.kernel_spec import KernelSpec
from repro.kernels.variants import VARIANTS
from repro.tune.space import candidate_tiles


class TestSlotReads:
    def test_8x6_read_windows(self):
        reads = slot_read_positions(KERNEL_8X6)
        # A row-groups are read over 6 consecutive FMLAs.
        assert (reads["A0"].first, reads["A0"].last) == (0, 5)
        assert (reads["A3"].first, reads["A3"].last) == (18, 23)
        # B registers are read in every row-group.
        assert (reads["B0"].first, reads["B0"].last) == (0, 19)
        assert (reads["B2"].first, reads["B2"].last) == (4, 23)


class TestPaperPlan:
    def test_reproduces_table_i(self):
        """The generated assignment equals Table I digit for digit."""
        plan = paper_plan()
        expected = {
            "A0": [0, 2, 4, 7, 6, 1, 3, 5],
            "A1": [1, 3, 5, 0, 2, 4, 7, 6],
            "A2": [2, 4, 7, 6, 1, 3, 5, 0],
            "A3": [3, 5, 0, 2, 4, 7, 6, 1],
            "B0": [4, 7, 6, 1, 3, 5, 0, 2],
            "B1": [5, 0, 2, 4, 7, 6, 1, 3],
            "B2": [6, 1, 3, 5, 0, 2, 4, 7],
        }
        for slot, regs in plan.table():
            assert regs == expected[slot], slot

    def test_paper_distance_is_7(self):
        """The paper reports 'the optimal distance 7 ... has been found'."""
        assert paper_plan().min_distance == 7

    def test_paper_plan_wraps_around(self):
        plan = paper_plan()
        # Copy 8 is copy 0 again (Table I's trailing '#0' column).
        for slot in KERNEL_8X6.slot_names():
            assert plan.register_for(slot, 8) == plan.register_for(slot, 0)

    def test_paper_plan_requires_8_register_pool(self):
        with pytest.raises(RegisterAllocationError):
            paper_plan(KERNEL_4X4)


class TestSolveRotation:
    def test_beats_or_matches_paper(self):
        """Our exhaustive search over rotation cycles finds distance 11,
        strictly better than the paper's 7 under the same objective."""
        plan = solve_rotation(KERNEL_8X6)
        assert plan.min_distance >= 7
        assert plan.min_distance == 11

    def test_assignment_is_valid(self):
        """No two live slots share a register within any copy."""
        plan = solve_rotation(KERNEL_8X6)
        for copy in range(plan.unroll):
            regs = [plan.register_for(s, copy) for s in KERNEL_8X6.slot_names()]
            assert len(set(regs)) == len(regs)
            assert all(0 <= r < plan.pool for r in regs)

    def test_rotation_closes_after_unroll(self):
        plan = solve_rotation(KERNEL_8X6)
        assert plan.unroll == 8
        for slot in KERNEL_8X6.slot_names():
            seq = [plan.register_for(slot, c) for c in range(plan.unroll)]
            # Over one body, each slot visits distinct registers (a cycle).
            assert len(set(seq)) == plan.unroll

    def test_solve_smaller_kernels(self):
        for spec in (KERNEL_8X4, KERNEL_4X4):
            plan = solve_rotation(spec)
            assert plan.min_distance > static_plan(spec).min_distance - 1
            assert plan.pool == spec.rotation_pool

    def test_unrotated_spec_gets_static_plan(self):
        plan = solve_rotation(KERNEL_8X6_NO_ROTATION)
        assert plan.sigma is None

    def test_previous_tenant_spare(self):
        """Exactly one register idles per copy; its next tenant sees None."""
        plan = paper_plan()
        spares = 0
        for copy in range(plan.unroll):
            for slot in KERNEL_8X6.slot_names():
                if plan.previous_tenant(slot, copy) is None:
                    spares += 1
        assert spares == plan.unroll  # one fresh register per copy


class TestStaticPlan:
    def test_static_distance_is_5(self):
        """Without rotation the B registers leave only a 5-FMLA window."""
        assert static_plan(KERNEL_8X6).min_distance == 5

    def test_static_assignment_constant(self):
        plan = static_plan(KERNEL_8X6)
        for slot in KERNEL_8X6.slot_names():
            regs = {plan.register_for(slot, c) for c in range(plan.unroll)}
            assert len(regs) == 1

    def test_rotation_strictly_better_than_static(self):
        assert (
            solve_rotation(KERNEL_8X6).min_distance
            > static_plan(KERNEL_8X6).min_distance
        )


class TestPlanFromCycle:
    def test_explicit_cycle(self):
        plan = plan_from_cycle(KERNEL_8X6, PAPER_SIGMA_8X6)
        assert plan.min_distance == 7
        assert plan.sigma == PAPER_SIGMA_8X6

    def test_bad_cycle_rejected(self):
        with pytest.raises(RegisterAllocationError):
            plan_from_cycle(KERNEL_8X6, (0, 1, 2))
        with pytest.raises(RegisterAllocationError):
            plan_from_cycle(KERNEL_8X6, (0, 1, 2, 3, 4, 5, 6, 6))


def _solve_by_loop(spec):
    """``solve_rotation`` as one scoring pass per cycle: the reference of
    the array scoring."""
    best = None
    for rest in itertools.permutations(range(1, spec.rotation_pool)):
        plan = plan_from_cycle(spec, (0,) + rest)
        if best is None or plan.min_distance > best.min_distance:
            best = plan
    return best


def _solved_specs():
    """Every rotated kernel variant, and every tile the tuner solves a
    rotation for on the presets (pools of at most 8 registers)."""
    specs = {(s.mr, s.nr, s.style): s for s in VARIANTS.values() if s.rotated}
    for chip in (XGENE, MOBILE_SOC, BIG_LITTLE):
        for mr, nr in candidate_tiles(chip):
            spec = KernelSpec(mr, nr, rotated=True)
            if spec.rotation_pool <= 8:
                specs.setdefault((mr, nr, spec.style), spec)
    return list(specs.values())


@pytest.mark.parametrize(
    "spec", _solved_specs(), ids=lambda s: f"{s.mr}x{s.nr}-{s.style.value}"
)
def test_solve_rotation_matches_the_per_cycle_loop(spec):
    # The first maximum in cycle order wins in both.
    assert solve_rotation(spec) == _solve_by_loop(spec)
