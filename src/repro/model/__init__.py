"""The paper's closed-form compute-to-memory ratios gamma per GEBP layer
(eqs. (7)/(8), (14) and (16)).

The Sec. III cost model itself is priced by :mod:`repro.sim.gemm_sim` and
:mod:`repro.pipeline.interference` (see ``docs/paper_map.md``).
"""

from repro.model.ratios import (
    RatioBreakdown,
    gebp_ratio,
    gess_ratio,
    register_kernel_ratio,
)

__all__ = [
    "register_kernel_ratio",
    "gess_ratio",
    "gebp_ratio",
    "RatioBreakdown",
]
