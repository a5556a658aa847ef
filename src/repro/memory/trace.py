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


@dataclass
class TraceCost:
    """Aggregate result of replaying a trace."""

    accesses: int = 0
    latency_cycles: int = 0
    level_hits: List[int] = field(default_factory=list)


def run_trace(
    hierarchy: MemoryHierarchy,
    core: int,
    trace: Iterable[Access],
    max_level: int = 8,
) -> TraceCost:
    """Replay ``trace`` on ``core``; returns latency and per-level hit counts.

    ``level_hits[i]`` counts accesses served at 1-based level ``i+1``
    (the last slot is DRAM).
    """
    cost = TraceCost(level_hits=[0] * max_level)
    for acc in trace:
        if acc.kind == KIND_PREFETCH:
            line = acc.address // hierarchy.dram_line_bytes
            hierarchy.prefetch_line(core, line, acc.level)
            continue
        for res in hierarchy.access_bytes(core, acc.address, acc.nbytes, acc.kind):
            cost.accesses += 1
            cost.latency_cycles += res.latency_cycles
            idx = min(res.level_hit - 1, max_level - 1)
            cost.level_hits[idx] += 1
    return cost


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
