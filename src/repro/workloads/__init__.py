"""Workload families on the machine model (stencils, convolution).

The simulators consume address streams and ISA programs, not GEMM
specifically — this package makes that load-bearing. :mod:`~.base`
defines the workload API generalized from :mod:`repro.apps.lu`;
:mod:`~.stencil` and :mod:`~.conv` are the two concrete families, each
born with a bit-equality differential contract (blocked == unblocked,
im2col == direct) enforced by the property suite and the ``workloads``
oracle suite; :mod:`~.exhibit` packages the miss-rate/Gflops story for
the CLI, the serve layer and the committed baseline.
"""

from repro.workloads.base import (
    CACHE_ENGINES,
    TIMED_ENGINES,
    Workload,
    WorkloadCacheResult,
    WorkloadResult,
    WorkloadTimedResult,
    simulate_workload_cache,
    timed_workload,
    traced_dgemm,
)
from repro.workloads.conv import (
    ConvSpec,
    ConvWorkload,
    conv_direct,
    conv_im2col,
    filter_matrix,
    im2col,
    solve_conv_blocking,
    unblocked_conv_blocking,
)
from repro.workloads.exhibit import conv_exhibit, stencil_exhibit
from repro.workloads.stencil import (
    StencilSpec,
    StencilWorkload,
    solve_stencil_blocking,
    stencil_blocked,
    stencil_reference,
    tap_offsets,
)

__all__ = [
    "CACHE_ENGINES",
    "TIMED_ENGINES",
    "ConvSpec",
    "ConvWorkload",
    "StencilSpec",
    "StencilWorkload",
    "Workload",
    "WorkloadCacheResult",
    "WorkloadResult",
    "WorkloadTimedResult",
    "conv_direct",
    "conv_exhibit",
    "conv_im2col",
    "filter_matrix",
    "im2col",
    "simulate_workload_cache",
    "solve_conv_blocking",
    "solve_stencil_blocking",
    "stencil_blocked",
    "stencil_exhibit",
    "stencil_reference",
    "tap_offsets",
    "timed_workload",
    "traced_dgemm",
    "unblocked_conv_blocking",
]
