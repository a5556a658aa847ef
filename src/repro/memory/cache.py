"""Set-associative cache simulator.

The simulator is line-granular: callers present byte addresses (or line
indices) and the cache tracks presence per 64-byte line per set, with the
configured associativity and replacement policy. A fast path implements true
LRU with :class:`collections.OrderedDict`; RANDOM and PLRU run through the
generic per-set policy objects.

For trace replay at array granularity, :meth:`Cache.access_lines_batched`
resolves a whole vector of line accesses at once. LRU caches switch to a
*timestamp-LRU* representation (per-set tag/timestamp/dirty arrays) and the
batch is processed in "rounds": round ``r`` handles the ``r``-th access of
every set in parallel, which is exact because sets are independent and the
within-set order equals program order. RANDOM and PLRU caches fall back to
the scalar per-access path (which preserves the per-cache RNG consumption
order), so the batched engine is bit-identical for every policy.

Statistics distinguish demand loads, stores and software prefetches, which
is what Fig. 15 (L1-dcache-load counts) and Table VII (L1 miss rates) need.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from repro.arch.params import CacheParams, ReplacementPolicy, WritePolicy
from repro.errors import SimulationError
from repro.memory.replacement import SetPolicy, make_set_policy

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
        rng: RNG used by the RANDOM policy (seeded for reproducibility).
    """

    def __init__(
        self, params: CacheParams, rng: Optional[random.Random] = None
    ) -> None:
        self.params = params
        self.stats = CacheStats()
        self._num_sets = params.num_sets
        self._line_bytes = params.line_bytes
        self._ways = params.ways
        self._is_lru = params.replacement is ReplacementPolicy.LRU
        # Write-through caches never hold dirty lines: every store is
        # propagated outward by the hierarchy instead of being buffered.
        self._write_back = params.write_policy is WritePolicy.WRITE_BACK
        # Batched-engine observability: line accesses resolved through the
        # vectorized timestamp-LRU sweep vs. through the per-access
        # fallback (non-LRU policies). Not part of CacheStats on purpose.
        self.batched_accesses = 0
        self.batched_fallback_accesses = 0
        # Timestamp-LRU array state (populated lazily on the first batched
        # access; scalar accesses then run against the same representation).
        self._array_mode = False
        self._tags_arr: Optional[np.ndarray] = None
        self._ts_arr: Optional[np.ndarray] = None
        self._dirty_arr: Optional[np.ndarray] = None
        self._clock = 1
        if self._is_lru:
            # tag -> dirty flag, in recency order (last = MRU).
            self._lru_sets: List["OrderedDict[int, bool]"] = [
                OrderedDict() for _ in range(self._num_sets)
            ]
        else:
            self._tags: List[List[Optional[int]]] = [
                [None] * self._ways for _ in range(self._num_sets)
            ]
            self._dirty: List[List[bool]] = [
                [False] * self._ways for _ in range(self._num_sets)
            ]
            self._policies: List[SetPolicy] = [
                make_set_policy(params.replacement, self._ways, rng)
                for _ in range(self._num_sets)
            ]

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
        if self._is_lru:
            if self._array_mode:
                hit = self._access_lru_array(line, kind)
            else:
                hit = self._access_lru(line, kind)
        else:
            hit = self._access_generic(line, kind)
        self._count(kind, hit)
        return hit

    def _access_lru(self, line: int, kind: str) -> bool:
        s = self._lru_sets[line % self._num_sets]
        dirty = kind == KIND_STORE and self._write_back
        if line in s:
            s[line] = s[line] or dirty
            s.move_to_end(line)
            return True
        if len(s) >= self._ways:
            _, evicted_dirty = s.popitem(last=False)
            self.stats.evictions += 1
            if evicted_dirty:
                self.stats.writebacks += 1
        s[line] = dirty
        return False

    def _access_lru_array(self, line: int, kind: str) -> bool:
        """One LRU access against the timestamp-array representation.

        Counter-equivalent to :meth:`_access_lru`: the LRU victim is the
        way with the smallest timestamp, and empty ways carry negative
        timestamps so they are filled before anything is evicted.
        """
        s = line % self._num_sets
        tags = self._tags_arr[s]
        ts = self._ts_arr[s]
        dirty = kind == KIND_STORE and self._write_back
        match = np.flatnonzero(tags == line)
        if match.size:
            w = int(match[0])
            ts[w] = self._clock
            if dirty:
                self._dirty_arr[s, w] = True
            self._clock += 1
            return True
        w = int(ts.argmin())
        if tags[w] >= 0:
            self.stats.evictions += 1
            if self._dirty_arr[s, w]:
                self.stats.writebacks += 1
        tags[w] = line
        ts[w] = self._clock
        self._dirty_arr[s, w] = dirty
        self._clock += 1
        return False

    def _access_generic(self, line: int, kind: str) -> bool:
        set_idx = line % self._num_sets
        tags = self._tags[set_idx]
        dirty = self._dirty[set_idx]
        policy = self._policies[set_idx]
        for way, tag in enumerate(tags):
            if tag == line:
                policy.touch(way)
                if kind == KIND_STORE and self._write_back:
                    dirty[way] = True
                return True
        # Miss: prefer an empty way, else the policy's victim.
        try:
            way = tags.index(None)
        except ValueError:
            way = policy.victim()
            self.stats.evictions += 1
            if dirty[way]:
                self.stats.writebacks += 1
        tags[way] = line
        dirty[way] = kind == KIND_STORE and self._write_back
        policy.touch(way)
        return False

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

    def _ensure_array_mode(self) -> None:
        """Migrate the OrderedDict LRU state to timestamp arrays.

        Empty ways get distinct negative timestamps (way 0 lowest) so the
        ``argmin`` victim rule fills them in index order before evicting;
        resident lines get increasing positive timestamps in recency order,
        which reproduces the OrderedDict's LRU ordering exactly.
        """
        if self._array_mode:
            return
        ways, sets = self._ways, self._num_sets
        self._tags_arr = np.full((sets, ways), -1, dtype=np.int64)
        self._ts_arr = np.tile(
            np.arange(-ways, 0, dtype=np.int64), (sets, 1)
        )
        self._dirty_arr = np.zeros((sets, ways), dtype=bool)
        clock = 1
        for s, od in enumerate(self._lru_sets):
            for w, (line, dirty) in enumerate(od.items()):  # LRU .. MRU
                self._tags_arr[s, w] = line
                self._ts_arr[s, w] = clock
                self._dirty_arr[s, w] = dirty
                clock += 1
        self._clock = clock
        self._array_mode = True
        self._lru_sets = []

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
            tail_min: Round width below which the vectorized sweep hands
                the remaining accesses to the per-access loop.

        Counters (loads/stores/prefetches, misses, evictions, writebacks)
        are updated exactly as if :meth:`access_line` had been called once
        per element. LRU caches run the vectorized timestamp sweep; RANDOM
        and PLRU fall back to the scalar path per access.
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
        if not self._is_lru:
            hits = np.empty(n, dtype=bool)
            for i in range(n):
                hits[i] = self.access_line(
                    int(lines[i]), CODE_TO_KIND[kinds[i]]
                )
            self.batched_fallback_accesses += n
            return hits
        self._ensure_array_mode()
        hits = self._sweep_lru_batch(lines, kinds, tail_min)
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
        self.batched_accesses += n
        return hits

    def _sweep_lru_batch(
        self, lines: np.ndarray, kinds: np.ndarray, tail_min: int
    ) -> np.ndarray:
        """The vectorized timestamp-LRU sweep (stats-free; returns hits)."""
        n = lines.size
        sets = lines % self._num_sets
        # Group accesses by set; within a group order equals program order.
        sort_idx = np.argsort(sets, kind="stable")
        ss = sets[sort_idx]
        ls = lines[sort_idx]
        if self._write_back:
            store_sorted = (kinds[sort_idx] == CODE_STORE).view(np.int8)
        else:
            store_sorted = np.zeros(n, dtype=np.int8)
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
        run_store = np.maximum.reduceat(store_sorted, rep_pos).astype(bool)
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

        tags, ts, dirty = self._tags_arr, self._ts_arr, self._dirty_arr
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
        if r < nrounds:
            # Python tail: few sets remain; process their runs in order
            # against list copies of just those sets' state rows.
            p0 = int(offs[r])
            tail_sets = np.unique(rs[p0:])
            row_of = {int(s): i for i, s in enumerate(tail_sets)}
            ttags = tags[tail_sets].tolist()
            tts = ts[tail_sets].tolist()
            tdirty = dirty[tail_sets].tolist()
            for p in range(p0, nruns):
                line = int(rl[p])
                row = row_of[int(rs[p])]
                trow = ttags[row]
                tsrow = tts[row]
                try:
                    w = trow.index(line)
                    run_hit[order_sort[p]] = True
                    if rsb[p]:
                        tdirty[row][w] = True
                except ValueError:
                    w = tsrow.index(min(tsrow))
                    if trow[w] >= 0:
                        evictions += 1
                        if tdirty[row][w]:
                            writebacks += 1
                    trow[w] = line
                    tdirty[row][w] = bool(rsb[p])
                tsrow[w] = clock
                clock += 1
            tags[tail_sets] = ttags
            ts[tail_sets] = tts
            dirty[tail_sets] = tdirty
        self._clock = clock
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
        if self._is_lru:
            if self._array_mode:
                return bool(
                    (self._tags_arr[line % self._num_sets] == line).any()
                )
            return line in self._lru_sets[line % self._num_sets]
        return line in self._tags[line % self._num_sets]

    def set_contents(self, set_index: int) -> List[int]:
        """Resident lines of one set (diagnostic view, no state update).

        LRU caches return lines in recency order, LRU first — whichever
        representation (OrderedDict or timestamp arrays) currently holds
        the state. Other policies return them in way order.
        """
        if not 0 <= set_index < self._num_sets:
            raise SimulationError(f"set index {set_index} out of range")
        if self._is_lru:
            if self._array_mode:
                tags = self._tags_arr[set_index]
                order = np.argsort(self._ts_arr[set_index], kind="stable")
                return [int(tags[w]) for w in order if tags[w] >= 0]
            return list(self._lru_sets[set_index])
        return [tag for tag in self._tags[set_index] if tag is not None]

    def resident_lines(self) -> int:
        """Total number of lines currently resident."""
        if self._is_lru:
            if self._array_mode:
                return int((self._tags_arr >= 0).sum())
            return sum(len(s) for s in self._lru_sets)
        return sum(
            1 for ways in self._tags for tag in ways if tag is not None
        )

    def flush(self) -> None:
        """Drop all contents (stats are retained).

        A flushed cache behaves exactly like a content-fresh one in
        either LRU representation: the array mode's recency clock is
        rewound alongside the timestamps, so the OrderedDict and
        timestamp-array states stay interchangeable across flushes.
        """
        if self._is_lru:
            if self._array_mode:
                self._tags_arr.fill(-1)
                self._ts_arr[:] = np.arange(
                    -self._ways, 0, dtype=np.int64
                )
                self._dirty_arr.fill(False)
                self._clock = 1
                return
            for s in self._lru_sets:
                s.clear()
        else:
            for tags, dirty in zip(self._tags, self._dirty):
                for i in range(self._ways):
                    tags[i] = None
                    dirty[i] = False

    def snapshot(self) -> dict:
        """Copy of the full cache state: contents, stats and counters.

        The snapshot preserves whichever LRU representation (OrderedDict
        or timestamp arrays) currently holds the state, so a restored
        cache replays any trace bit-identically — including the lazy
        array-mode migration point. The snapshot itself stays reusable:
        it can be restored any number of times.
        """
        snap: dict = {
            "stats": replace(self.stats),
            "batched_accesses": self.batched_accesses,
            "batched_fallback_accesses": self.batched_fallback_accesses,
            "clock": self._clock,
        }
        if self._is_lru:
            if self._array_mode:
                snap["mode"] = "array"
                snap["tags"] = self._tags_arr.copy()
                snap["ts"] = self._ts_arr.copy()
                snap["dirty"] = self._dirty_arr.copy()
            else:
                snap["mode"] = "lru"
                snap["sets"] = [OrderedDict(s) for s in self._lru_sets]
        else:
            snap["mode"] = "generic"
            snap["tags"] = [list(t) for t in self._tags]
            snap["dirty"] = [list(d) for d in self._dirty]
            if self.params.replacement is ReplacementPolicy.RANDOM:
                # Seeded caches share one RNG across their sets: keep each
                # distinct RNG's state once, plus which RNG each set uses.
                index: Dict[int, int] = {}
                states: list = []
                for policy in self._policies:
                    if id(policy.rng) not in index:
                        index[id(policy.rng)] = len(states)
                        states.append(policy.rng.getstate())
                snap["rng_states"] = states
                snap["rng_of_set"] = [
                    index[id(p.rng)] for p in self._policies
                ]
            else:
                snap["policies"] = [p.state() for p in self._policies]
        return snap

    def restore(self, snap: dict) -> None:
        """Restore a :meth:`snapshot` (contents, stats, counters)."""
        self.stats = replace(snap["stats"])
        self.batched_accesses = snap["batched_accesses"]
        self.batched_fallback_accesses = snap["batched_fallback_accesses"]
        self._clock = snap["clock"]
        mode = snap["mode"]
        if mode == "array":
            self._array_mode = True
            self._tags_arr = snap["tags"].copy()
            self._ts_arr = snap["ts"].copy()
            self._dirty_arr = snap["dirty"].copy()
            self._lru_sets = []
        elif mode == "lru":
            self._array_mode = False
            self._tags_arr = self._ts_arr = self._dirty_arr = None
            self._lru_sets = [OrderedDict(s) for s in snap["sets"]]
        else:
            self._tags = [list(t) for t in snap["tags"]]
            self._dirty = [list(d) for d in snap["dirty"]]
            if "rng_states" in snap:
                restored = set()
                for policy, i in zip(self._policies, snap["rng_of_set"]):
                    if id(policy.rng) not in restored:
                        restored.add(id(policy.rng))
                        policy.rng.setstate(snap["rng_states"][i])
            else:
                for policy, state in zip(self._policies, snap["policies"]):
                    policy.set_state(state)

    def reset_stats(self) -> None:
        """Zero every statistic, including the batched-engine coverage
        counters (``batched_accesses`` / ``batched_fallback_accesses``),
        which earlier survived resets and leaked across measurement
        windows."""
        self.stats = CacheStats()
        self.batched_accesses = 0
        self.batched_fallback_accesses = 0

    def reset(self, rng: Optional[random.Random] = None) -> None:
        """Return the cache to its just-constructed state.

        Beyond :meth:`flush` + :meth:`reset_stats`, this also rebuilds
        the replacement-policy state (RANDOM victim RNG consumption,
        PLRU tree bits) and drops the lazy timestamp-array migration, so
        a reset cache replays any trace with counters identical to a
        freshly constructed one — the round-trip property
        ``tests/test_stats_lifecycle.py`` pins down.

        Args:
            rng: Replacement for the RANDOM policy's RNG; pass a
                generator seeded like the original to reproduce the
                construction-time victim stream.
        """
        self.reset_stats()
        self._clock = 1
        if self._is_lru:
            self._array_mode = False
            self._tags_arr = self._ts_arr = self._dirty_arr = None
            self._lru_sets = [
                OrderedDict() for _ in range(self._num_sets)
            ]
        else:
            self._tags = [
                [None] * self._ways for _ in range(self._num_sets)
            ]
            self._dirty = [
                [False] * self._ways for _ in range(self._num_sets)
            ]
            self._policies = [
                make_set_policy(self.params.replacement, self._ways, rng)
                for _ in range(self._num_sets)
            ]
