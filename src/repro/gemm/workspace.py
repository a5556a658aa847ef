"""Reusable packed-buffer workspace for the DGEMM drivers.

OpenBLAS allocates its packing buffers once (the ``sa``/``sb`` workspace
of ``level3_thread.c``) and reuses them for every panel iteration of every
GEMM call; the seed implementation instead allocated a fresh packed array
per ``pack_a``/``pack_b`` call — one allocation per A block and B panel,
thousands per mid-sized multiply.

:class:`GemmWorkspace` caches those buffers between iterations and between
calls:

- one **shared B panel** buffer per shape (the layer-3 split's single
  ``kc x nc`` panel all threads read from the L3);
- **per-thread A sliver** buffers (each worker packs its own ``mc x kc``
  block into its private L2), keyed by logical thread id so OS-thread
  workers never alias each other;
- per-thread B buffers for the layer-1 (``axis="n"``) split, where every
  thread owns a private panel.

Buffers are handed to :func:`repro.gemm.packing.pack_a` /
:func:`~repro.gemm.packing.pack_b` through their ``out=`` parameter, which
overwrites the buffer completely (padding included), so reuse is exact.
Distinct shapes (the ragged edge blocks of a non-multiple problem size)
get distinct cache slots; memory held is bounded by the blocking sizes
and is visible through :attr:`GemmWorkspace.bytes_held`.

A workspace may be shared by the worker threads of one DGEMM call (slot
keys are disjoint per thread), but not by two *concurrent* DGEMM calls.
The default one (:func:`get_shared_workspace`) is therefore kept per
calling thread: concurrent callers never share buffers, while a call's
pool workers pack into their caller's workspace.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

import numpy as np

from repro.gemm.packing import num_slivers

_Key = Tuple[object, ...]


class GemmWorkspace:
    """Cache of packed A/B buffers reused across panel iterations."""

    def __init__(self) -> None:
        self._buffers: Dict[_Key, np.ndarray] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _get(self, key: _Key, shape: Tuple[int, ...]) -> np.ndarray:
        full_key = key + shape
        with self._lock:
            buf = self._buffers.get(full_key)
            if buf is None:
                self.misses += 1
                buf = np.empty(shape, dtype=np.float64)
                self._buffers[full_key] = buf
            else:
                self.hits += 1
        return buf

    def a_buffer(self, thread: int, mc: int, kc: int, mr: int) -> np.ndarray:
        """The packed-A buffer of logical ``thread`` for an mc x kc block."""
        return self._get(("A", thread), (num_slivers(mc, mr), kc, mr))

    def b_buffer(
        self, kc: int, nc: int, nr: int, thread: Optional[int] = None
    ) -> np.ndarray:
        """A packed-B panel buffer: shared (``thread=None``, the layer-3
        split) or private to ``thread`` (the layer-1 split)."""
        return self._get(("B", thread), (num_slivers(nc, nr), kc, nr))

    @property
    def bytes_held(self) -> int:
        with self._lock:
            return sum(buf.nbytes for buf in self._buffers.values())

    @property
    def num_buffers(self) -> int:
        with self._lock:
            return len(self._buffers)

    def clear(self) -> None:
        with self._lock:
            self._buffers.clear()
            self.hits = 0
            self.misses = 0

    def __repr__(self) -> str:
        return (
            f"GemmWorkspace(buffers={self.num_buffers}, "
            f"bytes={self.bytes_held}, hits={self.hits}, "
            f"misses={self.misses})"
        )


_local = threading.local()


def get_shared_workspace() -> GemmWorkspace:
    """The calling thread's workspace, used by the library entry points.

    One per thread, created on first use and reused by every later call
    from that thread, so repeated calls allocate nothing while
    concurrent callers on other threads get buffers of their own.
    """
    workspace = getattr(_local, "workspace", None)
    if workspace is None:
        workspace = _local.workspace = GemmWorkspace()
    return workspace
