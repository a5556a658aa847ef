"""Extension — the ATLAS 5x5 kernel as real instructions.

Builds the k-vectorized 5x5 kernel (full-vector FMLAs, two-lane partial
sums, faddp reduction) and checks that two *independent* derivations of
its register-kernel efficiency agree:

- the scoreboard timing of the actual instruction stream (whose
  register starvation — 5 pinned A values + 2 B buffers in a 7-register
  pool — forces the A reloads into the group boundary);
- the calibrated interference model applied to the cost spec's counts
  (25 FMLA : 10 LDR per group).
"""

import numpy as np
from conftest import save_report

from repro.analysis import format_table
from repro.arch import XGENE
from repro.kernels import build_atlas_kernel, build_kvec_variant
from repro.kernels.execute import execute_micro_tile
from repro.pipeline import LoadInterferenceModel, ScoreboardCore

RNG = np.random.default_rng(11)


def run_atlas_study():
    kernel = build_atlas_kernel()
    core = ScoreboardCore(XGENE.core)
    per_group = core.steady_state_cycles_per_iteration(
        kernel.body.instructions
    )
    structural = (100 / per_group) / XGENE.core.flops_per_cycle
    model = LoadInterferenceModel().efficiency(10, 25)

    a = RNG.standard_normal((64, 5))
    b = RNG.standard_normal((64, 5))
    err = float(
        np.abs(execute_micro_tile(build_kvec_variant(), a, b) - a.T @ b).max()
    )
    return per_group, structural, model, err


def test_ablation_atlas(benchmark, report_dir):
    per_group, structural, model, err = benchmark(run_atlas_study)
    text = format_table(
        ["quantity", "value"],
        [
            ["cycles per 2-iteration group", per_group],
            ["structural efficiency %", structural * 100],
            ["interference-model efficiency %", model * 100],
            ["max numeric error vs numpy", err],
        ],
        title="ATLAS 5x5 k-vectorized kernel: instruction-level vs "
        "cost-model derivations",
    )
    save_report(report_dir, "ablation_atlas", text)

    assert err < 1e-12
    assert abs(structural - model) < 0.05
    ideal = 25 * XGENE.core.fma_throughput_cycles
    assert per_group > ideal  # the group-boundary A reloads cost cycles
