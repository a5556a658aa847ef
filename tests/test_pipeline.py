"""Unit tests for the scoreboard pipeline and the calibrated overlap model."""

import pytest

from repro.arch import XGENE, CoreParams
from repro.errors import SimulationError
from repro.isa import Fmla, Ldr, Nop, VLane, VReg, XReg
from repro.pipeline import LoadInterferenceModel, PipelineResult, ScoreboardCore
from tests.helpers import efficiency_from_gamma


def fmla(acc, src=0, mul=4, lane=0):
    return Fmla(acc=VReg(acc), multiplicand=VReg(src),
                multiplier=VLane(VReg(mul), lane))


def ldr(dst, base=14):
    return Ldr(dst=VReg(dst), base=XReg(base))


class TestScoreboardStructural:
    def test_single_fma_pipe_throughput(self):
        """Independent FMAs are throughput-bound: 2 cycles each (4.8 Gflops
        at 2.4 GHz means one vector FMLA every other cycle)."""
        core = ScoreboardCore(XGENE.core)
        prog = [fmla(8 + i) for i in range(16)]
        per_iter = core.steady_state_cycles_per_iteration(prog)
        assert per_iter == pytest.approx(32, abs=1.0)

    def test_issue_width_limits_nops(self):
        core = ScoreboardCore(XGENE.core)
        prog = [Nop() for _ in range(16)]
        per_iter = core.steady_state_cycles_per_iteration(prog)
        # 4-wide issue: 16 nops take ~4 cycles.
        assert per_iter == pytest.approx(4, abs=0.5)

    def test_load_port_throughput(self):
        core = ScoreboardCore(XGENE.core)
        # Independent loads from different bases: serialized by the 1 port.
        prog = [ldr(i, base=i) for i in range(8)]
        per_iter = core.steady_state_cycles_per_iteration(prog)
        assert per_iter == pytest.approx(8, abs=0.5)

    def test_loads_and_fmas_overlap_structurally(self):
        """With separate pipes, a balanced mix is FMA-bound in the scoreboard
        (the calibrated interference model adds the empirical contention)."""
        core = ScoreboardCore(XGENE.core)
        prog = []
        for i in range(8):
            prog.append(ldr(i % 4, base=10 + i % 4))
            prog.append(fmla(8 + i, src=5, mul=6))
        # 8 fmla on 1 pipe at 2 cycles each = 16 cycles; loads fit alongside.
        per_iter = core.steady_state_cycles_per_iteration(prog)
        assert per_iter == pytest.approx(16, abs=1.5)


class TestScoreboardDependences:
    def test_raw_chain_pays_latency(self):
        """Serially dependent FMAs cost the full FMA latency each."""
        core = ScoreboardCore(XGENE.core)
        # Each fmla accumulates into the same register: RAW chain.
        prog = [fmla(8) for _ in range(8)]
        res = core.run(prog)
        assert res.raw_stall_cycles > 0
        per_iter = core.steady_state_cycles_per_iteration(prog)
        assert per_iter == pytest.approx(8 * XGENE.core.fma_latency, rel=0.1)

    def test_load_to_use_stall(self):
        """An FMA reading a just-loaded register waits for load latency."""
        core = ScoreboardCore(XGENE.core)
        prog = [ldr(0), fmla(8, src=0)]
        res = core.run(prog)
        assert res.raw_stall_cycles >= XGENE.core.load_latency - 1

    def test_distant_load_hides_latency(self):
        """If >= load_latency independent FMAs separate load and use, no stall."""
        core = ScoreboardCore(XGENE.core)
        prog = [ldr(0)]
        prog += [fmla(8 + i, src=1) for i in range(6)]  # independent work
        prog += [fmla(20, src=0)]  # consumer, far away
        res = core.run(prog)
        assert res.raw_stall_cycles == 0

    def test_war_not_enforced_by_default(self):
        """Overwriting a register that a slow consumer still reads is free
        when renaming is modeled (the paper's WAR observation)."""
        core = ScoreboardCore(XGENE.core, enforce_war=False)
        prog = [fmla(8, src=0), ldr(0)]
        res = core.run(prog)
        assert res.war_stall_cycles == 0

    def test_war_enforced_when_requested(self):
        core = ScoreboardCore(XGENE.core, enforce_war=True)
        # ldr writes v0 in the same cycle fmla reads it -> no stall needed;
        # but writing a register read *later* must wait.
        prog = [ldr(0), fmla(8, src=0), ldr(0)]
        res = core.run(prog)
        assert res.war_stall_cycles >= 0  # structural sanity

    def test_repeat_validation(self):
        core = ScoreboardCore(XGENE.core)
        with pytest.raises(SimulationError):
            core.run([], repeat=0)

    def test_result_properties(self):
        core = ScoreboardCore(XGENE.core)
        res = core.run([fmla(8), fmla(9)])
        assert res.instructions == 2
        assert res.flops == 8
        assert 0 < res.ipc <= XGENE.core.issue_width
        assert 0 < res.efficiency(XGENE.core) <= 1.0


class TestInterferenceModel:
    """The model must reproduce the paper's Table IV ladder."""

    TABLE_IV = {
        (1, 1): 0.630,
        (1, 2): 0.809,
        (6, 16): 0.877,
        (1, 3): 0.887,
        (7, 24): 0.915,
        (1, 4): 0.942,
        (1, 5): 0.952,
    }

    @pytest.mark.parametrize("ratio,expected", sorted(TABLE_IV.items()))
    def test_table_iv_within_two_points(self, ratio, expected):
        model = LoadInterferenceModel()
        ldr_n, fmla_n = ratio
        eff = model.efficiency(ldr_n, fmla_n)
        assert eff == pytest.approx(expected, abs=0.02)

    def test_monotone_in_gamma(self):
        model = LoadInterferenceModel()
        gammas = [2, 4, 5, 5.33, 6, 6.86, 8, 10]
        effs = [efficiency_from_gamma(model, g) for g in gammas]
        assert effs == sorted(effs)

    def test_psi_decreasing(self):
        model = LoadInterferenceModel()
        assert model.psi(2) > model.psi(4) > model.psi(8)

    def test_psi_limits(self):
        model = LoadInterferenceModel()
        assert model.psi(0.001) == pytest.approx(1.0, abs=0.01)
        assert model.psi(1e9) == pytest.approx(0.0, abs=0.01)

    def test_no_loads_full_efficiency(self):
        model = LoadInterferenceModel()
        assert model.efficiency(0, 10) == 1.0
        assert model.stall_per_load(0, 10) == 0.0

    def test_no_fmas_zero_efficiency(self):
        model = LoadInterferenceModel()
        assert model.efficiency(10, 0) == 0.0

    def test_invalid_inputs(self):
        model = LoadInterferenceModel()
        with pytest.raises(SimulationError):
            model.load_density(0, 0)
        with pytest.raises(SimulationError):
            efficiency_from_gamma(model, 0)
        with pytest.raises(SimulationError):
            model.psi(-1)

    def test_kernel_gammas_match_paper(self):
        """Register-kernel gammas from eq. (8): 6.86, 5.33, 4, 5."""
        model = LoadInterferenceModel()
        # eff ordering must match the paper's kernel ordering.
        e86 = efficiency_from_gamma(model, 6.86)
        e84 = efficiency_from_gamma(model, 5.33)
        e55 = efficiency_from_gamma(model, 5.0)
        e44 = efficiency_from_gamma(model, 4.0)
        assert e86 > e84 > e55 > e44
        # And the 8x6 upper bound is the paper's 91.5%.
        assert e86 == pytest.approx(0.915, abs=0.01)
