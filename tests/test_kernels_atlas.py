"""Tests for the k-vectorized ATLAS 5x5 kernel (real instructions)."""

import numpy as np
import pytest

from repro.arch import XGENE
from repro.errors import SimulationError
from repro.isa import parse_program
from repro.isa.executor import MachineState, Memory
from repro.kernels import (
    KERNEL_5X5_ATLAS,
    build_atlas_kernel,
    build_kvec_variant,
    get_variant,
)
from repro.kernels.execute import A_BASE, drive_kvec, execute_micro_tile
from repro.pipeline import LoadInterferenceModel, ScoreboardCore
from tests.helpers import flops_per_body

RNG = np.random.default_rng(55)
KVEC = build_kvec_variant()


class TestAtlasStructure:
    def test_instruction_budget_matches_cost_spec(self):
        """The emitted body realizes exactly the k-vectorized counts the
        cost spec assumes: 25 FMLA + 10 LDR per two k-iterations."""
        k = build_atlas_kernel()
        assert k.body.num_fmla == KERNEL_5X5_ATLAS.fmla_per_group == 25
        assert k.body.num_loads == KERNEL_5X5_ATLAS.ldr_per_group == 10
        assert k.groups_per_body == KERNEL_5X5_ATLAS.k_iters_per_group == 2

    def test_body_roundtrips_through_assembler(self):
        k = build_atlas_kernel()
        assert parse_program(k.body.to_text()) == k.body.instructions
        assert parse_program(k.epilogue.to_text()) == k.epilogue.instructions

    def test_epilogue_budget(self):
        """Per column: 3 faddp + 3 stores (rows padded to 6)."""
        k = build_atlas_kernel()
        faddps = sum(
            1 for i in k.epilogue if i.mnemonic.value == "faddp"
        )
        assert faddps == 15
        assert k.epilogue.num_stores == 15

    def test_register_budget_is_tight(self):
        """25 C partial sums + 5 pinned A + 2 B = all 32 registers."""
        k = build_atlas_kernel()
        regs = set()
        for instr in k.body:
            for r in instr.reads() | instr.writes():
                if hasattr(r, "q_name"):
                    regs.add(r.index)
        assert regs == set(range(32))


class TestAtlasSemantics:
    @pytest.mark.parametrize("kc", [2, 8, 32, 64])
    def test_computes_exact_product(self, kc):
        a = RNG.standard_normal((kc, 5))
        b = RNG.standard_normal((kc, 5))
        c0 = RNG.standard_normal((5, 5))
        got = execute_micro_tile(KVEC, a, b, c0)
        assert np.allclose(got, c0 + a.T @ b, atol=1e-12)

    def test_zero_c_default(self):
        a = RNG.standard_normal((16, 5))
        b = RNG.standard_normal((16, 5))
        assert np.allclose(
            execute_micro_tile(KVEC, a, b), a.T @ b, atol=1e-13
        )

    def test_packing_layout(self):
        # The k-vectorized driver lays A out one q-load per (group, row),
        # two k-iterations per load, plus one zero group of lookahead.
        a = RNG.standard_normal((4, 5))
        memory = Memory()
        drive_kvec(KVEC, a, RNG.standard_normal((4, 5)),
                   None, memory, MachineState(), lambda *_a, **_k: None)
        packed = memory.region_at(A_BASE).reshape(-1, 5, 2)
        assert packed.shape == (3, 5, 2)
        assert packed[1, 3, 0] == a[2, 3]
        assert packed[1, 3, 1] == a[3, 3]
        assert not packed[2].any()

    def test_validation(self):
        # The shared k-vectorized driver rejects malformed operands.
        with pytest.raises(SimulationError, match="multiple of unroll"):
            execute_micro_tile(  # odd kc
                KVEC, RNG.standard_normal((3, 5)), RNG.standard_normal((3, 5))
            )
        with pytest.raises(SimulationError, match="do not match"):
            execute_micro_tile(  # wrong width
                KVEC, RNG.standard_normal((4, 5)), RNG.standard_normal((4, 6))
            )
        with pytest.raises(SimulationError, match="C tile must be 5x5"):
            execute_micro_tile(
                KVEC,
                RNG.standard_normal((4, 5)),
                RNG.standard_normal((4, 5)),
                c_tile=np.zeros((4, 4)),
            )


class TestAtlasTiming:
    def test_structural_efficiency_matches_cost_model(self):
        """Two independent derivations of ATLAS's register-kernel
        efficiency — the scoreboard on the real instruction stream vs the
        calibrated interference model on the cost spec — must agree
        within a few points."""
        k = build_atlas_kernel()
        core = ScoreboardCore(XGENE.core)
        per_group = core.steady_state_cycles_per_iteration(
            k.body.instructions
        )
        structural = (100 / per_group) / XGENE.core.flops_per_cycle
        model = LoadInterferenceModel().efficiency(10, 25)
        assert structural == pytest.approx(model, abs=0.05)

    def test_group_boundary_stalls_exist(self):
        """The crammed A reloads at the group boundary cost real cycles:
        the body cannot reach the pure FMA bound."""
        k = build_atlas_kernel()
        core = ScoreboardCore(XGENE.core)
        per_group = core.steady_state_cycles_per_iteration(
            k.body.instructions
        )
        ideal = 25 * XGENE.core.fma_throughput_cycles
        assert per_group > ideal

    def test_worse_than_8x6_structurally(self):
        """The paper's bottom line at instruction level: the 8x6 kernel
        sustains its pipe; the register-starved 5x5 cannot."""
        atlas = build_atlas_kernel()
        core = ScoreboardCore(XGENE.core)
        atlas_eff = (
            100
            / core.steady_state_cycles_per_iteration(atlas.body.instructions)
        ) / XGENE.core.flops_per_cycle
        k86 = get_variant("OpenBLAS-8x6")
        eff86 = (
            flops_per_body(k86)
            / core.steady_state_cycles_per_iteration(k86.body.instructions)
        ) / XGENE.core.flops_per_cycle
        assert eff86 > atlas_eff
