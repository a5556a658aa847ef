"""Address-trace primitives.

A trace is an iterable of :class:`Access` records at byte granularity.
Generators here produce the streams the packed GEBP loop nest issues —
sliver reads of A, resident reads of B, and C tile read-modify-writes —
which the cost model replays through a :class:`~repro.memory.hierarchy.
MemoryHierarchy` to obtain per-level miss counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Tuple

import numpy as np

from repro.memory.cache import KIND_LOAD, KIND_PREFETCH
from repro.memory.hierarchy import MemoryHierarchy

DOUBLE = 8
QWORD = 16


@dataclass(frozen=True)
class Access:
    """One memory access.

    Attributes:
        address: Byte address.
        nbytes: Access width in bytes.
        kind: ``"load"``, ``"store"`` or ``"prefetch"``.
        level: For prefetches, the 1-based target cache level.
    """

    address: int
    nbytes: int = QWORD
    kind: str = KIND_LOAD
    level: int = 1


def strided_matrix_trace(
    base: int,
    rows: int,
    cols: int,
    ld: int,
    kind: str = KIND_LOAD,
    element_bytes: int = DOUBLE,
) -> Iterator[Access]:
    """Column-major walk over a ``rows x cols`` matrix with leading dim ``ld``.

    This is the access pattern of *packing*: reading a sub-matrix out of the
    big column-major operand.
    """
    for j in range(cols):
        col_base = base + j * ld * element_bytes
        for i in range(0, rows * element_bytes, QWORD):
            nbytes = min(QWORD, rows * element_bytes - i)
            yield Access(col_base + i, nbytes, kind)


def contiguous_trace(
    base: int,
    nbytes: int,
    kind: str = KIND_LOAD,
    step: int = QWORD,
) -> Iterator[Access]:
    """A linear walk over ``nbytes`` contiguous bytes in ``step`` chunks."""
    for off in range(0, nbytes, step):
        yield Access(base + off, min(step, nbytes - off), kind)


#: ``TraceCost.level_hits`` slots; the last also counts deeper levels.
MAX_LEVEL = 8


@dataclass
class TraceCost:
    """Aggregate result of replaying a trace: ``level_hits[i]`` counts
    demand accesses served at 1-based level ``i+1``."""

    accesses: int = 0
    latency_cycles: int = 0
    level_hits: List[int] = field(default_factory=list)

    @classmethod
    def of(cls, levels: np.ndarray, latencies: np.ndarray) -> "TraceCost":
        """Sum the per-demand-access ``(levels, latencies)`` arrays of
        :func:`run_trace_levels` or ``MemoryHierarchy.run_batch_levels``."""
        hits = np.bincount(
            np.minimum(levels, MAX_LEVEL) - 1, minlength=MAX_LEVEL
        )
        return cls(
            accesses=int(levels.size),
            latency_cycles=int(latencies.sum()),
            level_hits=hits.tolist(),
        )


def run_trace(
    hierarchy: MemoryHierarchy, core: int, trace: Iterable[Access]
) -> TraceCost:
    """Replay ``trace`` on ``core`` one access at a time; returns latency
    and per-level hit counts (see :class:`TraceCost`)."""
    return TraceCost.of(*run_trace_levels(hierarchy, core, trace))


def run_trace_levels(
    hierarchy: MemoryHierarchy,
    core: int,
    trace: Iterable[Access],
) -> Tuple[np.ndarray, np.ndarray]:
    """Replay ``trace`` on ``core`` one access at a time; returns the
    per-demand-line ``(levels, latencies)`` arrays that
    :meth:`~repro.memory.hierarchy.MemoryHierarchy.run_batch_levels`
    must reproduce."""
    lb = hierarchy.dram_line_bytes
    served: List[int] = []
    lats: List[int] = []
    for acc in trace:
        if acc.kind == KIND_PREFETCH:
            hierarchy.prefetch_line(core, acc.address // lb, acc.level)
            continue
        for res in hierarchy.access_bytes(
            core, acc.address, acc.nbytes, acc.kind
        ):
            served.append(res.level_hit)
            lats.append(res.latency_cycles)
    return (
        np.array(served, dtype=np.int64),
        np.array(lats, dtype=np.int64),
    )
