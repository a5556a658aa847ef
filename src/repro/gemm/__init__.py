"""Functional Goto-algorithm DGEMM (blocking, packing, GEBP, parallel)."""

from repro.gemm.driver import DEFAULT_BLOCKING, dgemm
from repro.gemm.gebp import gebp, gess
from repro.gemm.packing import (
    num_slivers,
    pack_a,
    pack_b,
)
from repro.gemm.parallel import apportion_blocks, parallel_dgemm
from repro.gemm.pool import (
    Job,
    PoolStats,
    ThreadCounters,
    WorkerPool,
)
from repro.gemm.workspace import GemmWorkspace, get_shared_workspace
from repro.gemm.blas import gemm, syrk
from repro.gemm.level3 import symm, trmm, trsm
from repro.gemm.reference import naive_dgemm, numpy_dgemm
from repro.gemm.sgemm import sgemm, sgemm_blocking, sgemm_register_blocking
from repro.gemm.trace import GebpEvent, GemmTrace, PackEvent

__all__ = [
    "dgemm",
    "parallel_dgemm",
    "apportion_blocks",
    "WorkerPool",
    "Job",
    "PoolStats",
    "ThreadCounters",
    "GemmWorkspace",
    "get_shared_workspace",
    "DEFAULT_BLOCKING",
    "gebp",
    "gess",
    "pack_a",
    "pack_b",
    "num_slivers",
    "naive_dgemm",
    "gemm",
    "syrk",
    "trsm",
    "symm",
    "trmm",
    "sgemm",
    "sgemm_blocking",
    "sgemm_register_blocking",
    "numpy_dgemm",
    "GemmTrace",
    "PackEvent",
    "GebpEvent",
]
