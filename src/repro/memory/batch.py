"""Batched address-trace representation for the vectorized cache engine.

A :class:`BatchTrace` holds an access stream as a NumPy structured array of
``(address, nbytes, kind, level)`` records — the array analogue of the
generator-based :class:`~repro.memory.trace.Access` streams. This module
owns that record format (:data:`ACCESS_DTYPE`): the trace compilers build
streams through its constructors (:meth:`BatchTrace.of` for address
arrays, :meth:`BatchTrace.interleaved` for columns with hardware
prefetches folded in, :meth:`BatchTrace.line_stores` for warm-up
regions, :meth:`BatchTrace.from_rows` for tuples) and never fill records
by hand.

Compiling a stream once per GEBP shape and replaying it through
:meth:`~repro.memory.hierarchy.MemoryHierarchy.run_batch` removes the
per-access Python overhead that bounds the Table VII / Fig. 15 block-size
sweeps; the same object still iterates as ``Access`` records, so the scalar
:func:`~repro.memory.trace.run_trace` path replays it unchanged as the
differential-testing oracle.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Sequence, Tuple

import numpy as np

from repro.memory.cache import (
    CODE_LOAD,
    CODE_PREFETCH,
    CODE_STORE,
    CODE_TO_KIND,
)
from repro.memory.trace import Access

#: One access record: byte address, width, kind code, prefetch target level.
ACCESS_DTYPE = np.dtype(
    [
        ("address", np.int64),
        ("nbytes", np.int32),
        ("kind", np.int8),
        ("level", np.int8),
    ]
)


class BatchTrace:
    """An access stream materialized as one structured array.

    Args:
        records: Array of :data:`ACCESS_DTYPE` records in program order.

    The trace is immutable by convention: line expansions are cached per
    line size, so a trace compiled once per GEBP shape can be replayed
    across every sweep point and both engines without re-materializing.
    """

    __slots__ = ("records", "_line_cache")

    def __init__(self, records: np.ndarray) -> None:
        self.records = np.ascontiguousarray(records, dtype=ACCESS_DTYPE)
        self._line_cache: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(
        cls, rows: Sequence[Tuple[int, int, int, int]]
    ) -> "BatchTrace":
        """Build from ``(address, nbytes, kind_code, level)`` tuples."""
        return cls(np.array(rows, dtype=ACCESS_DTYPE))

    @classmethod
    def of(cls, address, kind, nbytes: int = 8, where=True) -> "BatchTrace":
        """Records in C order of the broadcast ``address``/``kind``/``where``.

        ``kind`` is a kind code or an array of them (``(CODE_LOAD,
        CODE_STORE)`` against a trailing axis of length 2 interleaves a
        load and a store per element); every record is ``nbytes`` wide
        with prefetch level 1. Elements where ``where`` is false are
        dropped (ragged tiles masked out of a rectangular grid).
        """
        address, kind, where = np.broadcast_arrays(address, kind, where)
        records = np.empty(int(np.count_nonzero(where)), dtype=ACCESS_DTYPE)
        records["address"] = address[where]
        records["nbytes"] = nbytes
        records["kind"] = kind[where]
        records["level"] = 1
        return cls(records)

    @classmethod
    def interleaved(
        cls, address, kind, level, installs, at
    ) -> "BatchTrace":
        """1-byte records of the ``address``/``kind``/``level`` columns
        (program order), with an L1 prefetch of each ``installs`` address
        at index ``at`` of the result; the columns fill the other indices
        in order. ``installs`` and ``at`` are what
        :func:`~repro.memory.prefetcher.sequential_installs` gives.
        """
        # Each install follows the record that issued it.
        copies = np.ones(len(address), dtype=np.intp)
        copies[at - np.arange(1, len(at) + 1)] = 2
        records = np.empty(len(address) + len(at), dtype=ACCESS_DTYPE)
        for field, column, install in (
            ("address", address, installs),
            ("kind", kind, CODE_PREFETCH),
            ("level", level, 1),
        ):
            values = np.repeat(column, copies)
            values[at] = install
            records[field] = values
        records["nbytes"] = 1
        return cls(records)

    @classmethod
    def line_stores(
        cls, regions: Iterable[Tuple[int, int]], line_bytes: int
    ) -> "BatchTrace":
        """One 1-byte store per line of each ``(base, nbytes)`` region, in
        order: the warm-up stream that installs freshly written data."""
        starts = [base + np.arange(0, nbytes, line_bytes, dtype=np.int64)
                  for base, nbytes in regions]
        return cls.of(np.concatenate(starts), CODE_STORE, nbytes=1)

    @staticmethod
    def concat(traces: Sequence["BatchTrace"]) -> "BatchTrace":
        """Concatenate traces in order."""
        if not traces:
            return BatchTrace(np.empty(0, dtype=ACCESS_DTYPE))
        return BatchTrace(np.concatenate([t.records for t in traces]))

    def shifted(self, offset: int) -> "BatchTrace":
        """A copy with every address moved by ``offset`` bytes.

        Lets one trace compiled at base 0 serve every core: per-core
        placement is a pure relocation of the same access pattern.
        """
        if offset == 0:
            return self
        records = self.records.copy()
        records["address"] += offset
        return BatchTrace(records)

    # -- views --------------------------------------------------------------

    def __len__(self) -> int:
        return self.records.size

    def __iter__(self) -> Iterator[Access]:
        """Iterate as scalar :class:`Access` records (the oracle path)."""
        for rec in self.records:
            yield Access(
                address=int(rec["address"]),
                nbytes=int(rec["nbytes"]),
                kind=CODE_TO_KIND[int(rec["kind"])],
                level=int(rec["level"]),
            )

    @property
    def addresses(self) -> np.ndarray:
        return self.records["address"]

    @property
    def kinds(self) -> np.ndarray:
        return self.records["kind"]

    # -- line expansion -----------------------------------------------------

    def expand_lines(
        self, line_bytes: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expand byte ranges to per-line accesses for ``line_bytes``.

        Returns ``(lines, kinds, levels)`` arrays, one entry per touched
        cache line, in program order. Demand accesses cover
        ``address .. address+nbytes-1`` (empty for ``nbytes <= 0``);
        prefetches touch exactly the line holding ``address``, matching the
        scalar :func:`~repro.memory.trace.run_trace` semantics. The result
        is cached per line size.
        """
        cached = self._line_cache.get(line_bytes)
        if cached is not None:
            return cached
        rec = self.records
        addr = rec["address"]
        nb = rec["nbytes"].astype(np.int64)
        kind = rec["kind"]
        first = addr // line_bytes
        last = (addr + nb - 1) // line_bytes
        counts = np.maximum(last - first + 1, 0)
        np.copyto(counts, 0, where=nb <= 0)
        np.copyto(counts, 1, where=kind == CODE_PREFETCH)
        total = int(counts.sum())
        if total == 0:
            out = (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int8),
                np.empty(0, dtype=np.int8),
            )
            self._line_cache[line_bytes] = out
            return out
        run_starts = np.repeat(np.cumsum(counts) - counts, counts)
        lines = np.repeat(first, counts) + (
            np.arange(total, dtype=np.int64) - run_starts
        )
        kinds = np.repeat(kind, counts)
        levels = np.repeat(rec["level"], counts)
        out = (lines, kinds, levels)
        self._line_cache[line_bytes] = out
        return out

    def line_count(self, line_bytes: int) -> int:
        """Number of per-line accesses the replay performs."""
        return self.expand_lines(line_bytes)[0].size


def warm_region(cache, base: int, nbytes: int, line_bytes: int) -> None:
    """Load every line of ``[base, base + nbytes)`` into one cache.

    The batched replacement for the per-line Python warm-up loops the
    timed executor runs before a measurement (GEBP's precondition that
    packing already placed A in the L2 and B in the L3): state and
    statistics end up exactly as if ``cache.access_line((base + off) //
    line_bytes)`` had been called for every ``off in range(0, nbytes,
    line_bytes)``.

    Args:
        cache: A :class:`~repro.memory.cache.Cache` (one level, not a
            hierarchy — warming targets a specific level directly).
        base: First byte of the region.
        nbytes: Region size; non-positive warms nothing.
        line_bytes: The cache's line size.
    """
    if nbytes <= 0:
        return
    lines = (
        base + np.arange(0, nbytes, line_bytes, dtype=np.int64)
    ) // line_bytes
    cache.access_lines_batched(
        lines, np.full(lines.size, CODE_LOAD, dtype=np.int8)
    )
