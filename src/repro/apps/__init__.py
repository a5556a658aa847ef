"""Downstream applications built on the reproduction's DGEMM.

The flop-counting DGEMM wrapper the LU update popularized now lives in
:mod:`repro.workloads.base`; it is re-exported here so application code
keeps one import root.
"""

from repro.apps.lu import (
    LuResult,
    linpack_residual,
    lu_factor,
    lu_solve,
)
from repro.workloads.base import traced_dgemm

__all__ = [
    "LuResult",
    "lu_factor",
    "lu_solve",
    "linpack_residual",
    "traced_dgemm",
]
