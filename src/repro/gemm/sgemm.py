"""Single-precision GEMM (SGEMM) — a natural extension of the paper.

The paper targets DGEMM, but everything in its method is parameterized by
the element size: with float32, each 128-bit NEON register holds **four**
lanes, so

- the lane constraint (11) becomes "multiples of 4";
- the register budget (9) admits a larger tile — the analytic optimum on
  the A64 register file is **12x8** with gamma = 9.6 (vs 8x6 / 6.857 for
  DGEMM), derivable from the same
  :class:`~repro.blocking.RegisterBlockingProblem` with
  ``element_size=4``;
- the cache constraints (15)/(17)/(18) yield proportionally deeper kc.

``sgemm`` runs the driver's Goto loop nest in float32;
``sgemm_blocking`` derives the single-precision block sizes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.arch.params import ChipParams
from repro.arch.presets import XGENE
from repro.blocking.cache_blocking import CacheBlocking, solve_cache_blocking
from repro.blocking.register_blocking import (
    RegisterBlocking,
    RegisterBlockingProblem,
)
from repro.gemm.driver import a_packer, goto_nest, prepare_operands
from repro.gemm.trace import GemmTrace

FLOAT32_BYTES = 4


def sgemm_register_blocking(
    chip: ChipParams = XGENE,
) -> RegisterBlocking:
    """The float32 register-blocking optimum (12x8, gamma 9.6 on A64)."""
    problem = RegisterBlockingProblem.from_core(
        chip.core, element_size=FLOAT32_BYTES
    )
    return problem.solve()


def sgemm_blocking(
    chip: ChipParams = XGENE, threads: int = 1
) -> CacheBlocking:
    """Derived cache blocking for single precision."""
    reg = sgemm_register_blocking(chip)
    return solve_cache_blocking(
        chip, reg.mr, reg.nr, threads=threads, element_size=FLOAT32_BYTES
    )


def sgemm(
    a: "np.ndarray",
    b: "np.ndarray",
    c: "np.ndarray",
    alpha: float = 1.0,
    beta: float = 1.0,
    blocking: Optional[CacheBlocking] = None,
    trace: Optional[GemmTrace] = None,
) -> "np.ndarray":
    """Blocked, packed SGEMM: ``C := alpha*A@B + beta*C`` in float32."""
    a, b, c_arr, done = prepare_operands(
        a, b, c, alpha, beta, trace, dtype=np.float32
    )
    if not done:
        blk = blocking or sgemm_blocking()
        goto_nest(
            a_packer(a, blk.mr), b, c_arr, alpha, beta, blk,
            range(0, b.shape[1], blk.nc), trace=trace,
        )
    return c_arr
