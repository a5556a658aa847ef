"""The one bounded, thread-safe memo type for process-global memos.

Compiled kernels and post-warm-up hierarchy snapshots are memoized
across calls and reached from serve's worker threads. Their hits are
conditional (an identity check, a prefix-extension rule), so callers
judge a found value; this type owns the policy they share: a fixed
bound, least-recently-used eviction, and a lock around each operation.
"""

from __future__ import annotations

import threading
from typing import Dict, Generic, Hashable, Optional, TypeVar

V = TypeVar("V")


class BoundedMemo(Generic[V]):
    """A dict of at most ``limit`` entries in least-recently-used order."""

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError("memo limit must be >= 1")
        self.limit = limit
        self._entries: Dict[Hashable, V] = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[V]:
        """The value under ``key`` (now most recent), or ``None``."""
        with self._lock:
            value = self._entries.pop(key, None)
            if value is not None:
                self._entries[key] = value
            return value

    def put(self, key: Hashable, value: V) -> int:
        """Store ``value`` as most recent; return how many entries the
        bound evicted (least-recently-used first, never wholesale)."""
        with self._lock:
            self._entries.pop(key, None)
            evicted = len(self._entries) >= self.limit
            if evicted:
                del self._entries[next(iter(self._entries))]
            self._entries[key] = value
            return int(evicted)

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries
