"""Set-associative cache simulator.

The simulator is line-granular: callers present byte addresses (or line
indices) and the cache tracks presence per 64-byte line per set, with the
configured associativity and replacement policy.

Every cache holds one state from construction on, whatever its policy:
per-set tag and dirty arrays (tag ``-1`` marks an empty way) plus one
policy-state array with a row per set:

- LRU: per-way timestamps from a recency clock; the victim is the way
  with the smallest timestamp.
- PLRU: the bits of a binary tree over the ways (``int8``).
- RANDOM: a draw counter into a victim sequence drawn lazily from the
  cache's RNG. A seeded cache shares its RNG across all sets, so its
  victims are that RNG's stream in program order. An unseeded cache gives
  every set the sequence of ``random.Random(0)``, each set advancing its
  own counter.

Resident lines always fill a prefix of a set's ways: empty ways fill in
index order, and no way is emptied but by a flush.

Each policy has one per-access transition over a set's rows as Python
lists. Scalar :meth:`Cache.access_line` runs it on one set. The batched
:meth:`Cache.access_lines_batched` runs it over the whole batch in
program order for RANDOM/PLRU. For LRU it decides the whole batch at
once by reuse windows instead, using the stack property of LRU (Mattson
et al., 1970): an access hits an ``A``-way set iff fewer than ``A``
distinct lines of that set were touched since its previous use. A set's
warm contents act as accesses in recency order ahead of the batch, so
every first touch of a warm line has a window too. Windows shorter than
``A`` hit, accesses with no previous use miss, and the rest are decided
by a backward scan over the window that stops at ``A`` distinct lines.
Evictions, writebacks and the final contents then follow from each
line's residency epochs. Scalar and batched accesses share the state, so
they can be freely interleaved and give bit-identical results.

Statistics distinguish demand loads, stores and software prefetches, which
is what Fig. 15 (L1-dcache-load counts) and Table VII (L1 miss rates) need.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from repro.arch.params import CacheParams, ReplacementPolicy, WritePolicy
from repro.errors import SimulationError

KIND_LOAD = "load"
KIND_STORE = "store"
KIND_PREFETCH = "prefetch"

_KINDS = (KIND_LOAD, KIND_STORE, KIND_PREFETCH)

#: Integer access-kind codes used by the batched engine (array payloads).
CODE_LOAD = 0
CODE_STORE = 1
CODE_PREFETCH = 2

KIND_TO_CODE = {KIND_LOAD: CODE_LOAD, KIND_STORE: CODE_STORE,
                KIND_PREFETCH: CODE_PREFETCH}
CODE_TO_KIND = (KIND_LOAD, KIND_STORE, KIND_PREFETCH)

@dataclass
class CacheStats:
    """Access counters for one cache instance."""

    loads: int = 0
    load_misses: int = 0
    stores: int = 0
    store_misses: int = 0
    prefetches: int = 0
    prefetch_misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.loads + self.stores + self.prefetches

    @property
    def misses(self) -> int:
        return self.load_misses + self.store_misses + self.prefetch_misses

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def load_miss_rate(self) -> float:
        """Demand-load miss rate (the paper's L1-dcache-load-miss rate)."""
        return self.load_misses / self.loads if self.loads else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def merged_with(self, other: "CacheStats") -> "CacheStats":
        """Element-wise sum, used to aggregate per-core caches."""
        return CacheStats(
            loads=self.loads + other.loads,
            load_misses=self.load_misses + other.load_misses,
            stores=self.stores + other.stores,
            store_misses=self.store_misses + other.store_misses,
            prefetches=self.prefetches + other.prefetches,
            prefetch_misses=self.prefetch_misses + other.prefetch_misses,
            evictions=self.evictions + other.evictions,
            writebacks=self.writebacks + other.writebacks,
        )



class Cache:
    """One set-associative cache level.

    Args:
        params: Geometry and policy description.
        rng: Victim RNG of the RANDOM policy, shared by all sets (seeded
            for reproducibility). ``None`` gives every set the victim
            sequence of ``random.Random(0)``.
    """

    def __init__(
        self, params: CacheParams, rng: Optional[random.Random] = None
    ) -> None:
        self.params = params
        self._num_sets = params.num_sets
        self._line_bytes = params.line_bytes
        self._ways = ways = params.ways
        self._is_lru = params.replacement is ReplacementPolicy.LRU
        # Write-through caches never hold dirty lines: every store is
        # propagated outward by the hierarchy instead of being buffered.
        self._write_back = params.write_policy is WritePolicy.WRITE_BACK
        self._rng: Optional[random.Random] = None
        # One row of the policy-state array as constructed, and the
        # policy's per-access transition over a set's rows, kept unbound:
        # a bound method would make every cache a reference cycle, and
        # its arrays would then wait for the cyclic collector.
        if self._is_lru:
            # Empty ways get distinct negative timestamps (way 0 lowest),
            # so the argmin victim rule fills them in index order.
            self._state_row = np.arange(-ways, 0, dtype=np.int64)
            self._step = Cache._lru_step
        elif params.replacement is ReplacementPolicy.PLRU:
            leaves = 1 << (ways - 1).bit_length()
            self._plru_inner = leaves - 1
            self._plru_paths = [_plru_path(w, leaves) for w in range(ways)]
            self._state_row = np.zeros(max(1, leaves - 1), dtype=np.int8)
            self._step = Cache._plru_step
        else:
            self._shared_stream = rng is not None
            self._rng = rng if rng is not None else random.Random(0)
            self._rng_start = self._rng.getstate()
            self._state_row = np.zeros(1, dtype=np.int64)
            self._step = Cache._random_step
        self.reset()

    # -- address helpers ----------------------------------------------------

    def line_of(self, address: int) -> int:
        """Line index containing byte ``address``."""
        return address // self._line_bytes

    def set_of_line(self, line: int) -> int:
        """Set index for a line index."""
        return line % self._num_sets

    # -- core access --------------------------------------------------------

    def access_line(self, line: int, kind: str = KIND_LOAD) -> bool:
        """Access one cache line; returns True on hit, False on miss.

        A miss allocates the line (also for stores and prefetches —
        write-allocate, matching the paper's write-back caches).
        """
        if kind not in _KINDS:
            raise SimulationError(f"unknown access kind: {kind!r}")
        s = line % self._num_sets
        tags = self._tags[s].tolist()
        dirty = self._dirty[s].tolist()
        state = self._state[s].tolist()
        store = kind == KIND_STORE and self._write_back
        hit = self._step(self, tags, dirty, state, line, store)
        self._state[s] = state
        if store or not hit:  # a clean hit leaves tags and dirty bits
            self._tags[s] = tags
            self._dirty[s] = dirty
        self._count(kind, hit)
        return hit

    # The per-access transitions. Each takes one set's tag, dirty and
    # policy-state rows as Python lists, updates them in place (evictions
    # and writebacks go straight to the stats) and returns the hit flag.

    def _lru_step(self, tags, dirty, ts, line, store) -> bool:
        try:
            w = tags.index(line)
        except ValueError:
            w = ts.index(min(ts))
            self._fill(tags, dirty, w, line, store)
            hit = False
        else:
            hit = True
            if store:
                dirty[w] = True
        ts[w] = self._clock
        self._clock += 1
        return hit

    def _plru_step(self, tags, dirty, bits, line, store) -> bool:
        try:
            w = tags.index(line)
        except ValueError:
            w = tags.index(-1) if -1 in tags else self._plru_victim(bits)
            self._fill(tags, dirty, w, line, store)
            hit = False
        else:
            hit = True
            if store:
                dirty[w] = True
        for node, bit in self._plru_paths[w]:
            bits[node] = bit
        return hit

    def _random_step(self, tags, dirty, drawn, line, store) -> bool:
        try:
            w = tags.index(line)
        except ValueError:
            w = tags.index(-1) if -1 in tags else self._random_victim(drawn)
            self._fill(tags, dirty, w, line, store)
            return False
        if store:
            dirty[w] = True
        return True

    def _fill(self, tags, dirty, w, line, store) -> None:
        if tags[w] >= 0:
            self.stats.evictions += 1
            self.stats.writebacks += dirty[w]
        tags[w] = line
        dirty[w] = store

    def _plru_victim(self, bits) -> int:
        """Follow the tree bits to a leaf. A non-power-of-two way count
        pads the tree; a walk ending on a padded leaf touches the last
        real way and walks again."""
        inner = self._plru_inner
        while True:
            node = 0
            while node < inner:
                node = 2 * node + 1 + bits[node]
            if node - inner < self._ways:
                return node - inner
            for n, bit in self._plru_paths[self._ways - 1]:
                bits[n] = bit

    def _random_victim(self, drawn) -> int:
        """The set's next victim; ``drawn`` is its one-element counter."""
        c = drawn[0]
        drawn[0] = c + 1
        if self._shared_stream:
            return self._rng.randrange(self._ways)
        if c == len(self._victims):
            self._victims.append(self._rng.randrange(self._ways))
        return self._victims[c]

    def _count(self, kind: str, hit: bool) -> None:
        if kind == KIND_LOAD:
            self.stats.loads += 1
            if not hit:
                self.stats.load_misses += 1
        elif kind == KIND_STORE:
            self.stats.stores += 1
            if not hit:
                self.stats.store_misses += 1
        else:
            self.stats.prefetches += 1
            if not hit:
                self.stats.prefetch_misses += 1

    # -- batched access -----------------------------------------------------

    def access_lines_batched(
        self,
        lines: np.ndarray,
        kinds: np.ndarray,
    ) -> np.ndarray:
        """Access a vector of cache lines; returns a boolean hit mask.

        Args:
            lines: Line indices (non-negative integers), program order.
            kinds: Per-access kind codes (:data:`CODE_LOAD`,
                :data:`CODE_STORE`, :data:`CODE_PREFETCH`).

        Counters (loads/stores/prefetches, misses, evictions, writebacks)
        and the per-set recency order are updated exactly as if
        :meth:`access_line` had been called once per element. LRU caches
        decide every access from its reuse window in a fixed number of
        whole-batch array passes (counted in ``batched_accesses``);
        RANDOM and PLRU run their per-access step in program order
        (counted in ``batched_fallback_accesses``).
        """
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        kinds = np.ascontiguousarray(kinds, dtype=np.int8)
        n = lines.size
        if kinds.size != n:
            raise SimulationError("lines and kinds must have equal length")
        if n == 0:
            return np.zeros(0, dtype=bool)
        if (kinds < CODE_LOAD).any() or (kinds > CODE_PREFETCH).any():
            raise SimulationError("unknown access kind code in batch")
        if lines.min() < 0:
            raise SimulationError("negative line index in batch")
        if self._write_back:
            stores = kinds == CODE_STORE
        else:
            stores = np.zeros(n, dtype=bool)
        if self._is_lru:
            hits = self._sweep_lru_batch(lines, stores)
            self.batched_accesses += n
        else:
            # Program order, because a seeded RANDOM cache's victims depend
            # on the order across sets. Adjacent repeats of a line collapse
            # onto their first access: the repeats hit and change no tree
            # bit or draw counter, and the first access carries any store.
            head = np.empty(n, dtype=bool)
            head[0] = True
            np.not_equal(lines[1:], lines[:-1], out=head[1:])
            pos = np.flatnonzero(head)
            hits = np.ones(n, dtype=bool)
            hits[pos] = self._step_in_order(
                lines[pos], np.logical_or.reduceat(stores, pos)
            )
            self.batched_fallback_accesses += n
        # Per-kind counters, identical to per-access _count() totals.
        kind_counts = np.bincount(kinds, minlength=3)
        miss_counts = np.bincount(kinds[~hits], minlength=3)
        st = self.stats
        st.loads += int(kind_counts[CODE_LOAD])
        st.stores += int(kind_counts[CODE_STORE])
        st.prefetches += int(kind_counts[CODE_PREFETCH])
        st.load_misses += int(miss_counts[CODE_LOAD])
        st.store_misses += int(miss_counts[CODE_STORE])
        st.prefetch_misses += int(miss_counts[CODE_PREFETCH])
        return hits

    def _step_in_order(self, lines: np.ndarray, stores: np.ndarray) -> np.ndarray:
        """Run the policy step over ``lines`` in order against list copies
        of just the touched sets' rows, copied out and written back once;
        returns the hit mask (stats other than evictions and writebacks
        are left to the caller)."""
        touched, row = np.unique(lines % self._num_sets, return_inverse=True)
        tags = self._tags[touched].tolist()
        dirty = self._dirty[touched].tolist()
        state = self._state[touched].tolist()
        step = self._step
        hits = [
            step(self, tags[r], dirty[r], state[r], line, store)
            for r, line, store in zip(
                row.tolist(), lines.tolist(), stores.tolist()
            )
        ]
        self._tags[touched] = tags
        self._dirty[touched] = dirty
        self._state[touched] = state
        return np.array(hits, dtype=bool)

    def _sweep_lru_batch(
        self, lines: np.ndarray, stores: np.ndarray
    ) -> np.ndarray:
        """Exact LRU over the batch by reuse windows (returns hits;
        updates contents, timestamps and the eviction and writeback
        counters)."""
        n = lines.size
        ways = self._ways
        sets = lines % self._num_sets
        if self._num_sets <= 1 << 16:
            sets = sets.astype(np.uint16)  # the stable sort runs as radix
        # Group by set; within a set, order equals program order.
        sort_idx = np.argsort(sets, kind="stable")
        ss = sets[sort_idx]
        starts = np.flatnonzero(np.concatenate(([True], ss[1:] != ss[:-1])))
        touched = ss[starts].astype(np.int64)
        nt = touched.size
        # Warm prefix: each touched set's resident lines, LRU first; they
        # act as accesses in that order into the empty set. Set t's stream
        # is its prefix, then its accesses.
        wtags = self._tags[touched]
        nwarm = np.count_nonzero(wtags >= 0, axis=1)
        warm_incl = np.cumsum(nwarm)
        m = n + int(warm_incl[-1])
        if m == n:
            at_batch = slice(None)
            cl, cst = lines[sort_idx], stores[sort_idx]
        else:
            by_age = np.argsort(self._state[touched], axis=1)
            by_age += np.arange(0, nt * ways, ways)[:, None]
            wtags = wtags.take(by_age)
            warm = wtags >= 0
            at_batch = np.arange(n) + np.repeat(
                warm_incl, np.diff(starts, append=n)
            )
            at_warm = np.arange(m - n) + np.repeat(starts, nwarm)
            cl = np.empty(m, dtype=np.int64)
            cl[at_batch] = lines[sort_idx]
            cl[at_warm] = wtags[warm]
            cst = np.empty(m, dtype=bool)
            cst[at_batch] = stores[sort_idx]
            # A dirty warm line enters as a store.
            cst[at_warm] = self._dirty[touched].take(by_age)[warm]
        # Run compression: consecutive touches of one line (hence of one
        # set) are one touch; followers hit, the run carries any store.
        follower = np.empty(m, dtype=bool)
        follower[0] = False
        np.equal(cl[1:], cl[:-1], out=follower[1:])
        heads = np.flatnonzero(~follower)
        nruns = heads.size
        rl = cl[heads]
        rdirty = np.logical_or.reduceat(cst, heads)
        set_first_run = np.searchsorted(heads, starts + warm_incl - nwarm)
        # Previous and next touch of the same line, in run positions.
        by_line = np.argsort(rl, kind="stable")
        same = rl[by_line[1:]] == rl[by_line[:-1]]
        earlier, later = by_line[:-1][same], by_line[1:][same]
        prev = np.full(nruns, -1, dtype=np.int64)
        prev[later] = earlier
        nxt = np.full(nruns, nruns, dtype=np.int64)
        nxt[earlier] = later
        # Stack property: a touch hits iff fewer than ``ways`` distinct
        # lines were touched since the previous one. A window shorter than
        # ``ways`` is a certain hit; no previous touch is a certain miss.
        gap = np.arange(nruns) - prev - 1
        hit = (prev >= 0) & (gap < ways)
        scan = np.flatnonzero((prev >= 0) & (gap >= ways))
        if scan.size:
            hit[scan] = _window_hits(scan, prev[scan], nxt, ways)
        # Residency epochs: one opens at each warm entry or miss and spans
        # the line's touches up to its next miss. All are evicted but the
        # last epochs of each set's last ``ways`` distinct lines; an
        # evicted epoch holding a store writes back.
        opens = ~hit[by_line]
        epoch_dirty = np.logical_or.reduceat(
            rdirty[by_line], np.flatnonzero(opens)
        )
        last = np.flatnonzero(nxt == nruns)  # in recency order per set
        row = np.searchsorted(set_first_run, last, side="right") - 1
        nlast = np.bincount(row, minlength=nt)
        newer = np.cumsum(nlast)[row] - 1 - np.arange(last.size)
        stay = newer < ways
        keep, row, newer = last[stay], row[stay], newer[stay]
        epoch = np.empty(nruns, dtype=np.int64)
        epoch[by_line] = np.cumsum(opens) - 1
        keep_dirty = epoch_dirty[epoch[keep]]
        self.stats.evictions += epoch_dirty.size - keep.size
        self.stats.writebacks += int(
            np.count_nonzero(epoch_dirty) - np.count_nonzero(keep_dirty)
        )
        # Survivors fill ways 0.. of their set in recency order, with
        # their run positions as timestamps; the clock moves past them.
        # The ways after them were empty already, as resident lines always
        # fill a prefix of the ways (empty ways fill in index order).
        at = touched[row] * ways + np.minimum(nlast, ways)[row] - 1 - newer
        self._tags.put(at, rl[keep])
        self._dirty.put(at, keep_dirty)
        self._state.put(at, self._clock + keep)
        self._clock += nruns
        # Followers hit; run heads take their run's verdict.
        follower[heads] = hit
        hits = np.empty(n, dtype=bool)
        hits[sort_idx] = follower[at_batch]
        return hits

    # -- convenience --------------------------------------------------------

    def access_bytes(self, address: int, nbytes: int, kind: str = KIND_LOAD) -> int:
        """Access a byte range; returns the number of line misses."""
        if nbytes <= 0:
            return 0
        first = self.line_of(address)
        last = self.line_of(address + nbytes - 1)
        misses = 0
        for line in range(first, last + 1):
            if not self.access_line(line, kind):
                misses += 1
        return misses

    def contains_line(self, line: int) -> bool:
        """True if ``line`` is currently resident (no state update)."""
        return bool((self._tags[line % self._num_sets] == line).any())

    def set_contents(self, set_index: int) -> List[int]:
        """Resident lines of one set (diagnostic view, no state update).

        LRU caches return lines in recency order, LRU first. Other
        policies return them in way order.
        """
        if not 0 <= set_index < self._num_sets:
            raise SimulationError(f"set index {set_index} out of range")
        tags = self._tags[set_index]
        if self._is_lru:
            ways = np.argsort(self._state[set_index], kind="stable")
        else:
            ways = range(self._ways)
        return [int(tags[w]) for w in ways if tags[w] >= 0]

    def resident_lines(self) -> int:
        """Total number of lines currently resident."""
        return int((self._tags >= 0).sum())

    def flush(self) -> None:
        """Drop all contents (stats are retained).

        LRU caches also rewind their timestamps and recency clock, so a
        flushed cache is indistinguishable from a content-fresh one. PLRU
        tree bits and the RANDOM victim stream carry on, as replacement
        state rather than contents.
        """
        sets, ways = self._num_sets, self._ways
        self._tags = np.full((sets, ways), -1, dtype=np.int64)
        self._dirty = np.zeros((sets, ways), dtype=bool)
        if self._is_lru:
            self._rewind_state()

    def _rewind_state(self) -> None:
        self._state = np.tile(self._state_row, (self._num_sets, 1))
        self._clock = 1
        self._victims: List[int] = []

    def snapshot(self) -> dict:
        """Copy of the full cache state: contents, stats and counters.

        That is the tag/dirty/policy-state arrays, the recency clock, the
        RANDOM victims drawn so far and the RNG state to draw more. A
        snapshot restored into a cache of the same geometry and policy,
        even one built with another RNG, replays any trace
        bit-identically, and the snapshot stays reusable: it can be
        restored any number of times.
        """
        return {
            "stats": replace(self.stats),
            "batched_accesses": self.batched_accesses,
            "batched_fallback_accesses": self.batched_fallback_accesses,
            "tags": self._tags.copy(),
            "dirty": self._dirty.copy(),
            "state": self._state.copy(),
            "clock": self._clock,
            "victims": list(self._victims),
            "rng": self._rng.getstate() if self._rng is not None else None,
        }

    def restore(self, snap: dict) -> None:
        """Restore a :meth:`snapshot` (contents, stats, counters)."""
        self.stats = replace(snap["stats"])
        self.batched_accesses = snap["batched_accesses"]
        self.batched_fallback_accesses = snap["batched_fallback_accesses"]
        self._tags = snap["tags"].copy()
        self._dirty = snap["dirty"].copy()
        self._state = snap["state"].copy()
        self._clock = snap["clock"]
        self._victims = list(snap["victims"])
        if snap["rng"] is not None:
            self._rng.setstate(snap["rng"])

    def reset_stats(self) -> None:
        """Zero every statistic, including the batched-engine coverage
        counters: line accesses resolved by the batched LRU's reuse
        windows (``batched_accesses``) vs the per-access
        RANDOM/PLRU loop (``batched_fallback_accesses``). They are kept
        out of :class:`CacheStats` on purpose, but reset with it so they
        cannot leak across measurement windows."""
        self.stats = CacheStats()
        self.batched_accesses = 0
        self.batched_fallback_accesses = 0

    def reset(self) -> None:
        """Return the cache to its just-constructed state.

        Beyond :meth:`flush` + :meth:`reset_stats`, this rewinds the
        replacement state: PLRU tree bits, RANDOM draw counters, and the
        RANDOM RNG back to its state at construction. A reset cache
        replays any trace with counters identical to a freshly
        constructed one.
        """
        self.reset_stats()
        self.flush()
        if not self._is_lru:  # flush() rewinds LRU state itself
            self._rewind_state()
        if self._rng is not None:
            self._rng.setstate(self._rng_start)


def _plru_path(way: int, leaves: int) -> List[tuple]:
    """``(node, bit)`` writes of a PLRU touch of ``way``: every node on
    the way's root-to-leaf path points away from it."""
    path, node, lo, hi = [], 0, 0, leaves
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if way < mid:
            path.append((node, 1))
            node, hi = 2 * node + 1, mid
        else:
            path.append((node, 0))
            node, lo = 2 * node + 2, mid
    return path


def _window_hits(
    at: np.ndarray, prev: np.ndarray, nxt: np.ndarray, ways: int
) -> np.ndarray:
    """LRU verdicts of the touches at run positions ``at`` whose previous
    touch of the same line, at ``prev``, lies ``ways`` or more runs back.

    Each window ``(prev, at)`` is scanned backwards from ``at``, counting
    the positions whose next touch lies past ``at``: each is the last
    touch of one distinct line. A window stops at ``ways`` such lines (a
    miss) or at ``prev`` (a hit). All windows step together; finished
    ones drop out after ``ways`` steps, then after doubling stretches.
    """
    hits = np.empty(at.size, dtype=bool)
    todo = np.arange(at.size)
    seen = np.zeros(at.size, dtype=np.int64)
    q = at.copy()
    steps = ways
    while todo.size:
        for _ in range(steps):
            q -= 1
            seen += (q > prev) & (nxt.take(q, mode="clip") > at)
        miss = seen >= ways
        done = miss | (q <= prev + 1)
        hits[todo[done]] = ~miss[done]
        left = ~done
        todo, at, prev, seen, q = (
            a[left] for a in (todo, at, prev, seen, q)
        )
        steps *= 2
    return hits
