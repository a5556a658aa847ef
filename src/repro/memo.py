"""The one bounded, thread-safe memo type for process-global memos.

Generated and compiled kernels, rotation plans, compiled GEBP traces,
warmed cache hierarchies and prefetcher drop masks are memoized across
calls and reached from serve's worker threads. Most callers take
:meth:`BoundedMemo.get_or_make`, which makes a missing value once even
when threads race on it; the warm-state memo, whose hits follow a
prefix-extension rule, judges a found value itself with
:meth:`BoundedMemo.get`. This type owns the policy they share: a fixed
bound, least-recently-used eviction, and a lock around each operation.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Generic, Hashable, Optional, TypeVar

V = TypeVar("V")


class BoundedMemo(Generic[V]):
    """A dict of at most ``limit`` entries in least-recently-used order."""

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError("memo limit must be >= 1")
        self.limit = limit
        self._entries: Dict[Hashable, V] = {}
        self._lock = threading.Lock()
        self._make_lock = threading.Lock()

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

    def get_or_make(self, key: Hashable, make: Callable[[], V]) -> V:
        """The value under ``key``; on a miss, ``make()`` it and store it.

        Misses make under this memo's own make lock, so threads racing
        on one key all get the one object the first of them made (a
        value identity the callers rely on, e.g. ``compile_kernel``
        memoizes by kernel identity). Hits take only the entry lock.
        ``make`` must not call back into this memo.
        """
        value = self.get(key)
        if value is None:
            with self._make_lock:
                value = self.get(key)
                if value is None:
                    value = make()
                    self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries
