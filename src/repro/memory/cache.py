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

Each policy has one per-access transition over a set's rows as Python
lists. Scalar :meth:`Cache.access_line` runs it on one set. The batched
:meth:`Cache.access_lines_batched` runs it over the whole batch in
program order for RANDOM/PLRU, and over the tail of the LRU sweep. That
sweep resolves a vector of accesses in "rounds": round ``r`` handles the
``r``-th access of every set in parallel, which is exact because sets
are independent and the within-set order equals program order. Scalar
and batched accesses share the state, so they can be freely interleaved
and give bit-identical results.

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

#: Below this round width the vectorized sweep hands the remaining tail of
#: the batch to a per-access Python loop: numpy call overhead exceeds the
#: work once only a handful of sets are still active.
DEFAULT_TAIL_MIN = 24


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
        tail_min: int = DEFAULT_TAIL_MIN,
    ) -> np.ndarray:
        """Access a vector of cache lines; returns a boolean hit mask.

        Args:
            lines: Line indices (non-negative integers), program order.
            kinds: Per-access kind codes (:data:`CODE_LOAD`,
                :data:`CODE_STORE`, :data:`CODE_PREFETCH`).
            tail_min: Round width below which the vectorized LRU sweep
                hands the remaining accesses to the per-access loop.

        Counters (loads/stores/prefetches, misses, evictions, writebacks)
        are updated exactly as if :meth:`access_line` had been called once
        per element. LRU caches run the vectorized timestamp sweep; RANDOM
        and PLRU run their per-access step in program order (counted in
        ``batched_fallback_accesses``).
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
            hits = self._sweep_lru_batch(lines, stores, tail_min)
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
        self, lines: np.ndarray, stores: np.ndarray, tail_min: int
    ) -> np.ndarray:
        """The vectorized timestamp-LRU sweep (returns hits; updates only
        the eviction and writeback counters)."""
        n = lines.size
        sets = lines % self._num_sets
        # Group accesses by set; within a group order equals program order.
        sort_idx = np.argsort(sets, kind="stable")
        ss = sets[sort_idx]
        ls = lines[sort_idx]
        # Run compression: consecutive accesses to the same line of a set
        # collapse into one state transition. Followers are guaranteed
        # hits, and the run's dirty contribution is "any store in the run".
        new_run = np.empty(n, dtype=bool)
        new_run[0] = True
        np.logical_or(
            ss[1:] != ss[:-1], ls[1:] != ls[:-1], out=new_run[1:]
        )
        run_id = np.cumsum(new_run) - 1
        rep_pos = np.flatnonzero(new_run)
        nruns = rep_pos.size
        run_sets = ss[rep_pos]
        run_lines = ls[rep_pos]
        run_store = np.logical_or.reduceat(stores[sort_idx], rep_pos)
        # Round r = the r-th run of every set, processed in parallel.
        run_new_set = np.empty(nruns, dtype=bool)
        run_new_set[0] = True
        run_new_set[1:] = run_sets[1:] != run_sets[:-1]
        starts = np.maximum.accumulate(
            np.where(run_new_set, np.arange(nruns), 0)
        )
        rank = np.arange(nruns) - starts
        order_sort = np.argsort(rank, kind="stable")
        counts = np.bincount(rank)
        offs = np.concatenate(([0], np.cumsum(counts)))
        rl = run_lines[order_sort]
        rs = run_sets[order_sort]
        rsb = run_store[order_sort]
        run_hit = np.zeros(nruns, dtype=bool)

        tags, ts, dirty = self._tags, self._state, self._dirty
        clock = self._clock
        evictions = 0
        writebacks = 0
        nrounds = counts.size
        r = 0
        while r < nrounds:
            o0, o1 = int(offs[r]), int(offs[r + 1])
            if o1 - o0 < tail_min:
                break
            ln = rl[o0:o1]
            st = rs[o0:o1]
            sb = rsb[o0:o1]
            trows = tags[st]
            match = trows == ln[:, None]
            hit = match.any(axis=1)
            run_hit[order_sort[o0:o1]] = hit
            # Touched way: the matching way on a hit, else the LRU victim
            # (empty ways have negative timestamps, so they fill first).
            way = np.where(
                hit, match.argmax(axis=1), ts[st].argmin(axis=1)
            )
            col = way[:, None]
            vtag = np.take_along_axis(trows, col, axis=1)[:, 0]
            vdirty = np.take_along_axis(dirty[st], col, axis=1)[:, 0]
            evict = ~hit & (vtag >= 0)
            evictions += int(evict.sum())
            writebacks += int((evict & vdirty).sum())
            tags[st, way] = ln  # on a hit this rewrites the same tag
            ts[st, way] = clock
            dirty[st, way] = (hit & vdirty) | sb
            clock += 1
            r += 1
        self._clock = clock
        if r < nrounds:
            # Few sets remain: run their runs in order through the step.
            p0 = int(offs[r])
            run_hit[order_sort[p0:]] = self._step_in_order(rl[p0:], rsb[p0:])
        self.stats.evictions += evictions
        self.stats.writebacks += writebacks
        # Expand run verdicts back to per-access hits: run heads carry the
        # sweep's verdict, followers always hit.
        hits_sorted = run_hit[run_id]
        hits_sorted[~new_run] = True
        hits = np.empty(n, dtype=bool)
        hits[sort_idx] = hits_sorted
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
        counters: line accesses resolved through the vectorized
        timestamp-LRU sweep (``batched_accesses``) vs the per-access
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
