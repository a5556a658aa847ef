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
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable

from repro.errors import SimulationError


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
