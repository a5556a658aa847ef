"""TLB model — the paper's stated future-work item, implemented here.

A fully-associative LRU TLB over page-granular translations. The GEMM cost
model can enable it to study how packing keeps the page working set small
(packed buffers are contiguous, so a GEBP touches few distinct pages).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.arch.params import TlbParams


@dataclass
class TlbStats:
    """TLB access counters."""

    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Tlb:
    """Fully-associative LRU TLB."""

    def __init__(self, params: TlbParams) -> None:
        self.params = params
        self.stats = TlbStats()
        self._entries: "OrderedDict[int, None]" = OrderedDict()

    def access_page(self, page: int) -> bool:
        """Translate ``page``; returns True on hit."""
        self.stats.accesses += 1
        if page in self._entries:
            self._entries.move_to_end(page)
            return True
        self.stats.misses += 1
        if len(self._entries) >= self.params.entries:
            self._entries.popitem(last=False)
        self._entries[page] = None
        return False

    def access_line(self, line: int, line_bytes: int) -> bool:
        """Translate the page holding cache line ``line``."""
        page = (line * line_bytes) // self.params.page_bytes
        return self.access_page(page)

    def reset_stats(self) -> None:
        self.stats = TlbStats()
