"""Execution-trace instrumentation for the GEMM driver.

The driver optionally records every structural event of the Goto loop nest
(B-panel packs, A-block packs, GEBP calls with their true edge-trimmed
sizes, micro-kernel invocations). The simulator consumes this trace to cost
exactly the work the functional implementation performed — including the
ragged boundary tiles that shape the small-size ramp of Figs. 11/12/14.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

#: Pack operands by their code in :attr:`TraceArrays.packs` column 0.
OPERANDS = ("A", "B")
OPERAND_CODES = {name: code for code, name in enumerate(OPERANDS)}


@dataclass(frozen=True)
class PackEvent:
    """One packing operation.

    Attributes:
        operand: ``"A"`` or ``"B"``.
        rows, cols: Shape of the packed sub-matrix (pre-padding).
        thread: Executing thread id.
    """

    operand: str
    rows: int
    cols: int
    thread: int = 0


@dataclass(frozen=True)
class GebpEvent:
    """One GEBP call: an (mc x kc) block times a (kc x nc) panel.

    Sizes are the actual, possibly edge-trimmed extents.
    """

    mc: int
    kc: int
    nc: int
    thread: int = 0
    beta_pass: bool = False


@dataclass(frozen=True)
class TraceArrays:
    """A trace's events as integer arrays, in trace order.

    The array form the analytic model prices (no per-event objects).

    Attributes:
        gebps: ``(N, 4)`` int64 rows ``(mc, kc, nc, thread)``.
        beta: ``(N,)`` bool ``beta_pass`` flag of each GEBP.
        packs: ``(P, 4)`` int64 rows ``(operand, rows, cols, thread)``,
            operand coded by :data:`OPERAND_CODES`.
    """

    gebps: np.ndarray
    beta: np.ndarray
    packs: np.ndarray


@dataclass
class GemmTrace:
    """Accumulated events of one DGEMM execution.

    A trace instance is not itself thread-safe: the parallel engine gives
    every worker a private per-step buffer (also a ``GemmTrace``) and
    merges the buffers through :meth:`absorb` in logical-thread order
    after each barrier, so the final event sequence is deterministic and
    identical to sequential execution regardless of OS-thread timing.
    """

    m: int = 0
    n: int = 0
    k: int = 0
    threads: int = 1
    packs: List[PackEvent] = field(default_factory=list)
    gebps: List[GebpEvent] = field(default_factory=list)
    #: Core-class name per logical thread (filled by the parallel engine
    #: when the chip declares clusters; empty on symmetric chips).
    thread_classes: Dict[int, str] = field(default_factory=dict)

    def record_pack(self, operand: str, rows: int, cols: int, thread: int = 0) -> None:
        self.packs.append(PackEvent(operand, rows, cols, thread))

    def record_gebp(
        self, mc: int, kc: int, nc: int, thread: int = 0, beta_pass: bool = False
    ) -> None:
        self.gebps.append(GebpEvent(mc, kc, nc, thread, beta_pass))

    @classmethod
    def from_arrays(
        cls, m: int, n: int, k: int, threads: int, arrays: TraceArrays
    ) -> "GemmTrace":
        """The event-object trace holding ``arrays``' events."""
        packs = arrays.packs.tolist()
        return cls(
            m=m, n=n, k=k, threads=threads,
            packs=[PackEvent(OPERANDS[op], r, c, t) for op, r, c, t in packs],
            gebps=list(map(
                GebpEvent, *arrays.gebps.T.tolist(), arrays.beta.tolist()
            )),
        )

    def to_arrays(self) -> TraceArrays:
        """This trace's events as :class:`TraceArrays`."""
        return TraceArrays(
            gebps=np.array(
                [(e.mc, e.kc, e.nc, e.thread) for e in self.gebps],
                dtype=np.int64,
            ).reshape(-1, 4),
            beta=np.array([e.beta_pass for e in self.gebps], dtype=bool),
            packs=np.array(
                [(OPERAND_CODES[p.operand], p.rows, p.cols, p.thread)
                 for p in self.packs],
                dtype=np.int64,
            ).reshape(-1, 4),
        )

    def absorb(self, other: "GemmTrace") -> None:
        """Append ``other``'s events (a per-thread buffer) to this trace."""
        self.packs.extend(other.packs)
        self.gebps.extend(other.gebps)

    @property
    def flops(self) -> int:
        """Useful flops implied by the GEBP events (2*m*k*n each)."""
        return sum(2 * e.mc * e.kc * e.nc for e in self.gebps)

    def class_flops(self) -> Dict[str, int]:
        """Useful flops per core class, from :attr:`thread_classes`.

        Threads without a recorded class (symmetric chips, old traces)
        are attributed to ``"all"``.
        """
        totals: Dict[str, int] = {}
        for e in self.gebps:
            name = self.thread_classes.get(e.thread, "all")
            totals[name] = totals.get(name, 0) + 2 * e.mc * e.kc * e.nc
        return totals

    @property
    def active_threads(self) -> List[int]:
        """Thread ids that performed any GEBP work, in id order.

        With ``threads > ceil(m/mc)`` the surplus workers receive no row
        blocks; they are never dispatched and must not be counted as
        active cores when deriving per-core efficiency from a trace.
        """
        return sorted({g.thread for g in self.gebps})
