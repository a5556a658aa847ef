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
index order, and no way is ever emptied.

Each policy has one per-access transition over a set's rows as Python
lists. Scalar :meth:`Cache.access_line` runs it on one set; it is the
reference the batched :meth:`Cache.access_lines_batched` must match.

For LRU the batch decides every access at once by reuse windows, using
the stack property of LRU (Mattson et al., 1970): an access hits an
``A``-way set iff fewer than ``A`` distinct lines of that set were
touched since its previous use. A set's warm contents act as accesses in
recency order ahead of the batch, so every first touch of a warm line
has a window too. Windows shorter than ``A`` hit, accesses with no
previous use miss, and the rest are decided by a backward scan over the
window that stops at ``A`` distinct lines. Evictions, writebacks and the
final contents then follow from each line's residency epochs.

For RANDOM/PLRU the batch first collapses set-order runs: a line touched
again with no other line of its set in between hits and changes no
policy state. The runs are then decided in groups of runs in distinct
sets, one array pass per group (tag lookup, first empty way, victim,
fill, tree-bit writes). PLRU and unseeded RANDOM sets are independent,
so group ``r`` is every touched set's ``r``-th run. A seeded RANDOM
cache draws in program order across sets, so its groups are the longest
program-order blocks of runs in distinct sets, their victims taken in
order from draws made in bulk (:class:`_Draws`).

Scalar and batched accesses share the state, so they can be freely
interleaved and give bit-identical results. Everything an access
mutates (the arrays, counters and victim RNG) lives on the instance, so
a ``copy.deepcopy`` of a cache replays any trace bit-identically to the
original without touching it.

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
            sequence of ``random.Random(0)``. The batch decodes victims
            from the Mersenne Twister's raw output, so it must be a
            :class:`random.Random` itself, not a subclass.
    """

    def __init__(
        self, params: CacheParams, rng: Optional[random.Random] = None
    ) -> None:
        if rng is not None and type(rng) is not random.Random:
            raise TypeError("the victim RNG must be a random.Random")
        self.params = params
        self._num_sets = params.num_sets
        self._line_bytes = params.line_bytes
        self._ways = ways = params.ways
        self._is_lru = params.replacement is ReplacementPolicy.LRU
        # Write-through caches never hold dirty lines: every store is
        # propagated outward by the hierarchy instead of being buffered.
        self._write_back = params.write_policy is WritePolicy.WRITE_BACK
        self._rng: Optional[random.Random] = None
        self._shared_stream = False
        # One row of the policy-state array as constructed, and the
        # policy's per-access transition over a set's rows, kept unbound:
        # a bound method would make every cache a reference cycle, and
        # its arrays would then wait for the cyclic collector.
        if self._is_lru:
            # Empty ways get distinct negative timestamps (way 0 lowest),
            # so the argmin victim rule fills them in index order.
            state_row = np.arange(-ways, 0, dtype=np.int64)
            self._step = Cache._lru_step
        elif params.replacement is ReplacementPolicy.PLRU:
            leaves = 1 << (ways - 1).bit_length()
            self._plru_inner = leaves - 1
            self._plru_paths = [_plru_path(w, leaves) for w in range(ways)]
            # The same paths as ``(ways, depth)`` arrays for the batch.
            paths = np.array(self._plru_paths, dtype=np.int64).reshape(
                ways, -1, 2
            )
            self._plru_nodes = paths[:, :, 0]
            self._plru_bits = paths[:, :, 1].astype(np.int8)
            state_row = np.zeros(max(1, leaves - 1), dtype=np.int8)
            self._step = Cache._plru_step
        else:
            self._shared_stream = rng is not None
            self._rng = rng if rng is not None else random.Random(0)
            state_row = np.zeros(1, dtype=np.int64)
            self._step = Cache._random_step
        sets = self._num_sets
        self._tags = np.full((sets, ways), -1, dtype=np.int64)
        self._dirty = np.zeros((sets, ways), dtype=bool)
        self._state = np.tile(state_row, (sets, 1))
        self._clock = 1
        self._victims: List[int] = []
        self.reset_stats()

    # -- address helpers ----------------------------------------------------

    def line_of(self, address: int) -> int:
        """Line index containing byte ``address``."""
        return address // self._line_bytes

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
        RANDOM and PLRU decide runs in groups of distinct sets (counted
        in ``batched_fallback_accesses``).
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
            hits = self._policy_batch(lines, stores)
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

    def _policy_batch(
        self, lines: np.ndarray, stores: np.ndarray
    ) -> np.ndarray:
        """Exact RANDOM/PLRU over the batch (returns hits; updates
        contents, policy state and the eviction and writeback counters).

        Set-order runs come first: consecutive touches of one line with
        no other line of its set in between are one touch. The followers
        hit and change no tree bit, draw counter or RNG state; the run
        carries any store. The runs are then decided in groups of runs in
        distinct sets, one array pass per group. PLRU and unseeded RANDOM
        sets evolve independently, so group ``r`` is every touched set's
        ``r``-th run. A seeded RANDOM cache draws from one RNG in program
        order across sets, so its groups are the longest program-order
        blocks of runs in distinct sets, drawing in order within each.
        """
        n = lines.size
        sets = lines % self._num_sets
        if self._num_sets <= 1 << 16:
            sets = sets.astype(np.uint16)  # the stable sort runs as radix
        order = np.argsort(sets, kind="stable")
        sorted_lines = lines[order]
        follower = np.empty(n, dtype=bool)
        follower[0] = False
        np.equal(sorted_lines[1:], sorted_lines[:-1], out=follower[1:])
        heads = np.flatnonzero(~follower)
        nruns = heads.size
        run_line = sorted_lines[heads]
        run_store = np.logical_or.reduceat(stores[order], heads)
        run_set = sets[order[heads]]
        new_set = np.empty(nruns, dtype=bool)
        new_set[0] = True
        np.not_equal(run_set[1:], run_set[:-1], out=new_set[1:])
        first = np.flatnonzero(new_set)
        touched = run_set[first].astype(np.int64)
        row = np.cumsum(new_set) - 1
        if self._shared_stream:
            runs = np.argsort(order[heads])  # program order
            # A block starting at position p ends at the first repeat of
            # a set touched since p: the suffix minimum over the
            # positions of each run's next run in its set.
            pos = np.empty(nruns, dtype=np.int64)
            pos[runs] = np.arange(nruns)
            nxt = np.full(nruns, nruns, dtype=np.int64)
            same = ~new_set[1:]
            nxt[pos[:-1][same]] = pos[1:][same]
            ends = np.minimum.accumulate(nxt[::-1])[::-1].tolist()
            bounds = [0]
            while bounds[-1] < nruns:
                bounds.append(ends[bounds[-1]])
        else:
            rank = np.arange(nruns) - first[row]
            runs = np.argsort(rank, kind="stable")
            bounds = [0] + np.cumsum(np.bincount(rank)).tolist()
        tags = self._tags[touched]
        dirty = self._dirty[touched]
        state = self._state[touched]
        run_hit = self._decide_groups(
            bounds, runs, row, run_line, run_store, tags, dirty, state
        )
        self._tags[touched] = tags
        self._dirty[touched] = dirty
        self._state[touched] = state
        follower[heads] = run_hit
        hits = np.empty(n, dtype=bool)
        hits[order] = follower
        return hits

    def _decide_groups(
        self, bounds, runs, row, run_line, run_store, tags, dirty, state
    ) -> np.ndarray:
        """Decide the runs group by group, ``runs[bounds[g]:bounds[g+1]]``
        being group ``g`` (runs in distinct sets, in program order), on
        the touched sets' rows; returns the hit flag of every run.

        The batch's lines are numbered densely, and ``way_of`` maps each
        number to its way while resident (``-1`` otherwise), so a group
        looks its lines up with one gather instead of comparing tag rows.
        ``slot_id`` holds the number of each way's line, or a spare last
        number for a line the batch never touches.
        """
        ways = self._ways
        width = state.shape[1]
        flat_tags = tags.reshape(-1)
        flat_dirty = dirty.reshape(-1)
        flat_state = state.reshape(-1)
        numbers, first, ids = np.unique(
            run_line, return_index=True, return_inverse=True
        )
        home = row[first]
        match = tags[home] == numbers[:, None]
        warm = np.flatnonzero(match.any(axis=1))
        way_of = np.full(numbers.size + 1, -1, dtype=np.int64)
        way_of[warm] = match[warm].argmax(axis=1)
        slot_id = np.full(flat_tags.size, numbers.size, dtype=np.int64)
        slot_id[home[warm] * ways + way_of[warm]] = warm
        # Resident lines fill a prefix of the ways: their count is the
        # first empty way (at ``ways`` or beyond, the set is full).
        filled = np.count_nonzero(tags >= 0, axis=1)
        empty_ways = filled.size * ways - int(filled.sum())
        row, run_id = row[runs], ids[runs]
        run_store = run_store[runs]
        stores = np.logical_or.reduceat(run_store, bounds[:-1]).tolist()
        found = np.empty(runs.size, dtype=np.int64)  # way or -1, per run
        plru = self._step is Cache._plru_step
        if plru:
            nodes, bits = self._plru_nodes, self._plru_bits
        else:
            draws = _Draws(self._rng, ways)
            victims = None  # the unseeded victim sequence, as an array
            drawing = []  # rows of the seeded draws, counted at the end
        evictions = writebacks = 0
        for a, b, stored in zip(bounds[:-1], bounds[1:], stores):
            r = row[a:b]
            group_id = run_id[a:b]
            way = way_of[group_id]
            found[a:b] = way
            miss = (way < 0).nonzero()[0]
            if miss.size:
                mr = r[miss]
                if empty_ways:
                    w = filled[mr]
                    filled[mr] = w + 1
                    full = (w >= ways).nonzero()[0]
                    fr = mr[full]
                    empty_ways -= miss.size - full.size
                else:  # every set is full
                    w = full = fr = mr
                if fr.size:
                    if plru:
                        v = self._plru_victims(flat_state, fr * width)
                    elif self._shared_stream:
                        v = draws.take(fr.size)
                        drawing.append(fr)
                    else:
                        drawn = flat_state[fr]
                        flat_state[fr] = drawn + 1
                        victims = self._victims_upto(
                            victims, int(drawn.max()) + 1, draws
                        )
                        v = victims[drawn]
                    if w is fr:
                        w = v
                    else:
                        w[full] = v
                    out = fr * ways + v
                    evictions += full.size
                    writebacks += int(np.count_nonzero(flat_dirty[out]))
                    way_of[slot_id[out]] = -1
                at = mr * ways + w
                mid = group_id[miss]
                slot_id[at] = mid
                way_of[mid] = w
                flat_dirty[at] = run_store[a:b][miss] if stored else False
                if plru:
                    way[miss] = w
            if stored:
                hit_store = run_store[a:b] & (found[a:b] >= 0)
                flat_dirty[r[hit_store] * ways + way[hit_store]] = True
            if plru:
                flat_state[(r * width)[:, None] + nodes[way]] = bits[way]
        if not plru:
            draws.close()
            if drawing:
                flat_state += np.bincount(
                    np.concatenate(drawing), minlength=flat_state.size
                )
        self.stats.evictions += evictions
        self.stats.writebacks += writebacks
        # Ways that took a line of the batch hold its number.
        took = slot_id < numbers.size
        flat_tags[took] = numbers[slot_id[took]]
        run_hit = np.empty(runs.size, dtype=bool)
        run_hit[runs] = found >= 0
        return run_hit

    def _plru_victims(self, flat_state, base) -> np.ndarray:
        """The tree walks of :meth:`_plru_victim` for the rows starting
        at ``base`` in ``flat_state``, side by side (a walk ending on a
        padded leaf touches the last real way and walks again)."""
        inner, depth = self._plru_inner, self._plru_nodes.shape[1]

        def walk(at):
            node = np.zeros(at.size, dtype=np.int64)
            for _ in range(depth):
                node = 2 * node + 1 + flat_state[at + node]
            return node - inner

        leaf = walk(base)
        pad = np.flatnonzero(leaf >= self._ways)
        while pad.size:
            last = self._ways - 1
            flat_state[base[pad, None] + self._plru_nodes[last]] = (
                self._plru_bits[last]
            )
            leaf[pad] = walk(base[pad])
            pad = pad[leaf[pad] >= self._ways]
        return leaf

    def _victims_upto(self, victims, count: int, draws) -> np.ndarray:
        """The unseeded victim sequence as an array of at least ``count``
        entries, the list drawn from ``draws`` exactly up to ``count`` as
        :meth:`_random_victim` would; ``victims`` is the array returned
        last (or ``None``)."""
        if victims is None:
            victims = np.array(self._victims, dtype=np.int64)
        have = len(self._victims)
        if count > have:
            if count > victims.size:
                victims = np.resize(victims, 2 * count)
            victims[have:count] = draws.take(count - have)
            self._victims.extend(victims[have:count].tolist())
        return victims

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

    def snapshot(self) -> dict:
        """Copy of the full cache state: contents, stats and counters.

        That is the tag/dirty/policy-state arrays, the recency clock, the
        RANDOM victims drawn so far and the RNG state to draw more: a
        read-only view for comparing two caches' states.
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

    def reset_stats(self) -> None:
        """Zero every statistic, including the batched-engine coverage
        counters: line accesses resolved by the batched LRU's reuse
        windows (``batched_accesses``) vs the batched RANDOM/PLRU
        groups (``batched_fallback_accesses``). They are kept
        out of :class:`CacheStats` on purpose, but reset with it so they
        cannot leak across measurement windows."""
        self.stats = CacheStats()
        self.batched_accesses = 0
        self.batched_fallback_accesses = 0


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


class _Draws:
    """Successive ``rng.randrange(ways)`` values, drawn in bulk.

    ``randrange(ways)`` of a :class:`random.Random` keeps the top
    ``ways.bit_length()`` bits of one 32-bit Mersenne Twister output,
    rejecting values of ``ways`` or more, and ``getrandbits(32 * m)``
    returns ``m`` outputs in order, least significant first. So the
    values come from whole chunks of outputs at once, and :meth:`close`
    leaves the generator just past the last output used, in the state
    the calls would have left.
    """

    def __init__(self, rng: random.Random, ways: int) -> None:
        self._rng = rng
        self._ways = ways
        self._shift = 32 - ways.bit_length()
        self._start = None  # the generator's state before the first chunk
        self._values = np.empty(0, dtype=np.int64)
        self._ends = np.empty(0, dtype=np.int64)  # outputs used per value
        self._outputs = 0
        self._used = 0

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` values."""
        need = self._used + count
        while self._values.size < need:
            if self._start is None:
                self._start = self._rng.getstate()
            m = max(256, 4 * (need - self._values.size))
            out = np.frombuffer(
                self._rng.getrandbits(32 * m).to_bytes(4 * m, "little"),
                dtype="<u4",
            ) >> self._shift
            kept = np.flatnonzero(out < self._ways)
            self._values = np.concatenate(
                [self._values, out[kept].astype(np.int64)]
            )
            self._ends = np.concatenate([self._ends, self._outputs + kept + 1])
            self._outputs += m
        values = self._values[self._used:need]
        self._used = need
        return values

    def close(self) -> None:
        """Leave the generator as the calls drawing every taken value
        would have."""
        if self._start is not None:
            self._rng.setstate(self._start)
            if self._used:
                self._rng.getrandbits(32 * int(self._ends[self._used - 1]))
