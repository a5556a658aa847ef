"""Hardware sequential prefetcher model.

X-Gene-class cores tag sequential access streams and pull the next line
into the L1 ahead of demand. The GEBP streams (packed A, packed B) are
perfectly sequential inside the k-loop, so this prefetcher is what keeps
the B sliver effectively L1-resident even though true LRU would evict it
(see :mod:`repro.sim.gebp_cachesim`).

The prefetcher is a pure stream transform: its issue pattern is a function
of the observed demand-line sequence alone, and each issue goes to the
caller's ``install`` sink. The interpreter's sink installs into a live
hierarchy; the trace compilers' sinks record prefetch rows, so a recorded
stream replays identically on any hierarchy.

Timeliness is modeled with a deterministic late/drop pattern: a fraction
``late_rate`` of prefetches fail to arrive before the demand access.

The trace compilers fold the prefetcher into a whole demand stream at
once with :func:`sequential_installs`, the array form of
:meth:`SequentialPrefetcher.observe` over a stream; the class stays as
the interpreter's prefetcher and the helper's reference.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Hashable, List, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.memo import BoundedMemo


class DropPattern:
    """Deterministic 'every k-th event fires' pattern at a given rate.

    Using an error-accumulator instead of an RNG keeps every simulation
    bit-reproducible while matching the requested rate exactly over any
    long window.
    """

    def __init__(self, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise SimulationError("drop rate must be in [0, 1]")
        self.rate = rate
        self._acc = 0.0

    def dropped(self) -> bool:
        """True for a ``rate`` fraction of calls."""
        self._acc += self.rate
        if self._acc >= 1.0:
            self._acc -= 1.0
            return True
        return False

    def outcomes(self, count: int) -> List[bool]:
        """The next ``count`` outcomes of :meth:`dropped`, in order."""
        rate, acc = self.rate, self._acc
        out = [False] * count
        for i in range(count):
            acc += rate
            if acc >= 1.0:
                acc -= 1.0
                out[i] = True
        self._acc = acc
        return out


#: Per rate, the outcomes drawn so far and the accumulator after them.
_MASKS: BoundedMemo[Tuple[np.ndarray, float]] = BoundedMemo(16)
#: Held while a mask is extended, so racing callers run each prefix once
#: and a shorter prefix never replaces a longer one.
_EXTENDING = threading.Lock()


def drop_mask(rate: float, count: int) -> np.ndarray:
    """The first ``count`` outcomes of ``DropPattern(rate)``, True where
    an event is dropped.

    An outcome depends only on its event index, so each rate's pattern
    runs once, and further only where a longer prefix is asked for.
    """
    held = _MASKS.get(rate)
    if held is None or held[0].size < count:
        with _EXTENDING:
            held = _MASKS.get(rate) or (np.zeros(0, dtype=bool), 0.0)
            mask, acc = held
            if count > mask.size:
                pattern = DropPattern(rate)
                pattern._acc = acc
                extra = pattern.outcomes(count - mask.size)
                held = (np.concatenate([mask, np.array(extra, dtype=bool)]),
                        pattern._acc)
                _MASKS.put(rate, held)
    return held[0][:count]


class SequentialPrefetcher:
    """Tagged next-line prefetcher in front of a core's L1.

    Args:
        late_rate: Fraction of prefetches that arrive too late (modeled
            as not issued).
        install: The install action, called as ``install(line, 1)`` for
            each issued next-line prefetch into the L1.
    """

    def __init__(
        self, late_rate: float, install: Callable[[int, int], None]
    ) -> None:
        self._late = DropPattern(late_rate)
        self._last_line: Dict[Hashable, int] = {}
        self._install = install

    def observe(self, line: int, stream: Hashable) -> None:
        """Notify the prefetcher of a demand access to ``line`` on the
        stream keyed ``stream``; advances trigger next-line prefetches."""
        if self._last_line.get(stream) == line:
            return
        self._last_line[stream] = line
        if not self._late.dropped():
            self._install(line + 1, 1)


def sequential_installs(
    lines: np.ndarray, streams: np.ndarray, late_rate: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold a :class:`SequentialPrefetcher` into a demand stream.

    Args:
        lines: Line of each demand access, in program order.
        streams: Stream id of each access (non-negative), or ``-1`` for
            an access the prefetcher does not observe.
        late_rate: The prefetcher's late rate.

    Returns ``(installs, at)``: the line each issued prefetch installs
    into the L1, and its index in the merged stream, where each install
    directly follows the access that issued it and the accesses fill the
    other indices in order. That is what a fresh prefetcher observing the
    accesses in turn issues: one late-pattern event at each access whose
    line differs from the last one observed on its stream (the first
    access of a stream included), each event not dropped installing the
    next line.
    """
    event = np.zeros(lines.size, dtype=bool)
    for stream in np.flatnonzero(np.bincount(streams[streams >= 0])):
        at = np.flatnonzero(streams == stream)
        seen = lines[at]
        event[at[np.concatenate(([True], seen[1:] != seen[:-1]))]] = True
    events = np.flatnonzero(event)
    issued = events[~drop_mask(late_rate, events.size)]
    return lines[issued] + 1, issued + np.arange(1, issued.size + 1)
