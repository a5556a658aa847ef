"""Host-speed reference: a fixed slice of work timed between requests.

The benchmark runs on shared 2-vCPU hosts whose speed changes for
seconds at a time (another tenant on the same core): a fixed piece of
interpreter work then takes 1.6-2.5x as long. Timings of the program
alone spread by 30-40% across runs. :class:`Reference` times a
fixed slice that imports nothing from the program, next to each block of
requests, and ``run.py`` scales each request's time by
``NOMINAL_SLICE_S / slice time``: host-speed-normalized seconds, as on a
host that runs the slice in ``NOMINAL_SLICE_S``. A change to the program
moves them; a change in the host's momentary speed mostly does not.

The slice mixes the kinds of work the program does: a JSON round trip
and SHA-256 (the serve layer and store), a dict-and-list LRU loop (the
cache and pipeline simulators), NumPy element-wise passes (trace
generation, the batched walk) and a small file read (store hits). It
avoids BLAS, whose threads would measure the other core too.

A slice runs where the workload does its work: on the client thread, or
split across a worker pool's threads when the workload computes on the
pool, so it meets the same CPUs and the same interpreter-lock handoffs.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from pathlib import Path
from typing import Any, List, Optional

import numpy as np

#: Slice time of the uncontended state of a 2-vCPU Xeon VM (contended,
#: it runs the slice in 10-20 ms).
NOMINAL_SLICE_S = 0.0065
#: Units per slice.
UNITS = 20
_DOC = {f"k{i:03d}": {"v": i * 1.5, "name": f"item-{i}",
                      "tags": [i, i + 1, i + 2]} for i in range(40)}


class Reference:
    """The reference slice, reading its file from ``work``; with a
    ``pool``, each slice is one barrier step of the pool's workers."""

    def __init__(self, work: Path, pool: Optional[Any] = None) -> None:
        self.path = work / "reference.json"
        self.path.write_text(json.dumps(_DOC))
        self.values = np.arange(1024, dtype=np.int64)
        self.pool = pool

    def _unit(self) -> int:
        text = json.dumps(_DOC, sort_keys=True)
        acc = len(json.loads(text)) + len(hashlib.sha256(text.encode()).digest())
        tags = {}
        order: List[int] = []
        for i in range(600):
            line = (i * 2654435761) & 1023
            if line in tags:
                acc += 1
            else:
                tags[line] = i
                order.append(line)
                if len(order) > 16:
                    del tags[order.pop(0)]
        for _ in range(4):
            x = (self.values * 3 + 1) & 255
            acc += int(np.unique(x).size)
        with open(self.path, "rb") as f:
            acc += len(f.read())
        return acc

    def _units(self, count: int) -> None:
        for _ in range(count):
            self._unit()

    def slice(self) -> float:
        """Seconds one slice of ``UNITS`` units takes now."""
        t0 = time.perf_counter()
        if self.pool is None:
            self._units(UNITS)
        else:
            share = UNITS // self.pool.threads
            self.pool.run([lambda: self._units(share)] * self.pool.threads)
        return time.perf_counter() - t0

    def scale(self, slices: int = 5) -> float:
        """``NOMINAL_SLICE_S`` over the median of ``slices`` slices: the
        factor that turns seconds measured now into normalized seconds."""
        return NOMINAL_SLICE_S / statistics.median(
            self.slice() for _ in range(slices))
