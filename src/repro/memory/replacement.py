"""Replacement policies for the set-associative cache simulator.

Each policy manages victim selection within a single cache set. The paper's
block-size derivation (Sec. IV-B) leans on the L1/L2/L3 being LRU, which
:class:`~repro.memory.cache.Cache` keeps in timestamp arrays instead; the
RANDOM and tree-PLRU policies here are provided for the ablation study in
``benchmarks/bench_ablation_replacement.py``.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.arch.params import ReplacementPolicy


class SetPolicy:
    """Victim-selection state for one cache set with ``ways`` ways."""

    def __init__(self, ways: int) -> None:
        self.ways = ways

    def touch(self, way: int) -> None:
        """Record a hit on ``way``."""
        raise NotImplementedError

    def victim(self) -> int:
        """Choose the way to evict (caller then calls :meth:`touch`)."""
        raise NotImplementedError

    def state(self):
        """Opaque copy of the victim-selection state (for snapshots)."""
        raise NotImplementedError

    def set_state(self, state) -> None:
        """Restore a state captured by :meth:`state`."""
        raise NotImplementedError


class RandomSetPolicy(SetPolicy):
    """Uniform-random victim selection (deterministic via a seeded RNG)."""

    def __init__(self, ways: int, rng: Optional[random.Random] = None) -> None:
        super().__init__(ways)
        self._rng = rng or random.Random(0)

    def touch(self, way: int) -> None:
        pass

    def victim(self) -> int:
        return self._rng.randrange(self.ways)

    @property
    def rng(self) -> random.Random:
        """The victim RNG; seeded hierarchies share one across a cache's
        sets, so :meth:`repro.memory.cache.Cache.snapshot` stores each
        distinct RNG's state once."""
        return self._rng

    def state(self):
        return self._rng.getstate()

    def set_state(self, state) -> None:
        self._rng.setstate(state)


class PlruSetPolicy(SetPolicy):
    """Tree pseudo-LRU over a power-of-two number of ways.

    Non-power-of-two way counts fall back to the next power of two with
    unreachable leaves skipped by re-walking, which preserves the policy's
    near-LRU behaviour.
    """

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self._leaves = 1
        while self._leaves < ways:
            self._leaves *= 2
        # One bit per internal node of a complete binary tree.
        self._bits = [0] * max(1, self._leaves - 1)

    def touch(self, way: int) -> None:
        node = 0
        lo, hi = 0, self._leaves
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if way < mid:
                self._bits[node] = 1  # point away: right is older
                node = 2 * node + 1
                hi = mid
            else:
                self._bits[node] = 0
                node = 2 * node + 2
                lo = mid
        # leaf reached

    def victim(self) -> int:
        while True:
            node = 0
            lo, hi = 0, self._leaves
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if self._bits[node] == 0:
                    node = 2 * node + 1
                    hi = mid
                else:
                    node = 2 * node + 2
                    lo = mid
            if lo < self.ways:
                return lo
            # Unreachable padded leaf: flip the path and retry.
            self.touch(min(lo, self.ways - 1))

    def state(self):
        return list(self._bits)

    def set_state(self, state) -> None:
        self._bits = list(state)


def make_set_policy(
    policy: ReplacementPolicy, ways: int, rng: Optional[random.Random] = None
) -> SetPolicy:
    """Factory mapping a RANDOM or PLRU :class:`ReplacementPolicy` to
    per-set state (LRU caches keep timestamp arrays instead)."""
    if policy is ReplacementPolicy.RANDOM:
        return RandomSetPolicy(ways, rng)
    if policy is ReplacementPolicy.PLRU:
        return PlruSetPolicy(ways)
    raise ValueError(f"unknown replacement policy: {policy}")
