"""In-order-issue scoreboard simulator for one ARMv8 core.

Models the structural and data constraints the paper's instruction
scheduling targets (Sec. IV-A):

- issue width (X-Gene: 4 instructions/cycle, in program order);
- one FMA pipe (one ``fmla`` starts per cycle) and one load port;
- RAW hazards: an instruction cannot issue until every producer of a
  register it reads has completed (FMA latency, load latency);
- WAR hazards: optionally enforced. By default they are *not* enforced,
  mirroring the paper's finding that register renaming hides WAR latency
  (Sec. V-A); a finite rename pool can be modeled, in which case a write
  that would overwrite a register still being read by an in-flight older
  instruction stalls once the pool is exhausted.

The simulator executes a straight-line program (optionally repeated to reach
steady state) and reports total cycles plus a breakdown of stall causes.
This is what validates the rotation distance-7 / schedule distance-9 results
and quantifies the Fig. 13 no-rotation penalty.

Two execution paths produce bit-identical results:

- :meth:`ScoreboardCore.run` — the per-instruction reference interpreter;
- :meth:`ScoreboardCore.run_compiled` — the template engine behind the
  compiled timed-execution path. A program is compiled once into a
  :class:`ScoreboardTemplate` (register reads/writes as index tuples, pipe
  classes, static latencies). A call is then an automaton walk. Its
  states are the normalized scoreboard states at template boundaries,
  interned to ids; its symbols are latency rows, the per-load latencies
  of one template execution. NumPy groups the executions into runs of
  one template under one row, and each execution is one dict lookup on
  ``(template, state id, row)`` that yields the counter deltas and the
  next state. In steady state (Sec. V-A), where the register kernel
  spends nearly all of its iterations, a transition leads back to its
  own state, and the rest of its run advances in one step. Only a miss
  (cold caches, latency transients) steps the template concretely, and
  it records what it stepped, so the compiled path is exact by
  construction. The memo holding the automaton is bounded by
  :data:`MEMO_LIMIT` and may be shared between threads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.params import CoreParams
from repro.errors import SimulationError
from repro.isa.instructions import Instruction, Mnemonic
from repro.isa.registers import VReg, XReg


@dataclass
class PipelineResult:
    """Outcome of simulating a program on the scoreboard core.

    Attributes:
        cycles: Total cycles from first issue to last completion.
        issue_cycles: Cycles on which at least one instruction issued.
        raw_stall_cycles: Cycles lost waiting on RAW dependences.
        structural_stall_cycles: Cycles lost to pipe/port conflicts.
        war_stall_cycles: Cycles lost to WAR hazards (rename-pool pressure).
        instructions: Number of instructions executed.
        flops: FLOPs performed.
    """

    cycles: int
    issue_cycles: int
    raw_stall_cycles: int
    structural_stall_cycles: int
    war_stall_cycles: int
    instructions: int
    flops: int

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def flops_per_cycle(self) -> float:
        return self.flops / self.cycles if self.cycles else 0.0

    def efficiency(self, core: CoreParams) -> float:
        """Fraction of the core's peak FLOP rate achieved."""
        peak = core.flops_per_cycle
        return self.flops_per_cycle / peak if peak else 0.0


#: Instruction-class codes used by :class:`ScoreboardTemplate`.
_FMLA, _FADDP, _LDR, _STR, _PRFM, _NOP = range(6)

_CODE_OF = {
    Mnemonic.FMLA: _FMLA,
    Mnemonic.FADDP: _FADDP,
    Mnemonic.LDR: _LDR,
    Mnemonic.STR: _STR,
    Mnemonic.PRFM: _PRFM,
    Mnemonic.NOP: _NOP,
}


def _encode_reg(reg: object) -> int:
    """Registers as small ints: VReg n -> n, XReg n -> 32 + n."""
    if isinstance(reg, VReg):
        return reg.index
    if isinstance(reg, XReg):
        return 32 + reg.index
    raise SimulationError(f"cannot encode register {reg!r}")


class ScoreboardTemplate:
    """A program lowered to per-instruction issue metadata.

    Compiling hoists everything :meth:`ScoreboardCore.run` recomputes per
    dynamic instruction — ``reads()``/``writes()`` frozensets, mnemonic
    dispatch, flop counts — into flat tuples walked by the compiled
    stepper. Templates are core-independent; static latencies are resolved
    by the executing :class:`ScoreboardCore`.

    Attributes:
        codes: Per-instruction class code (FMLA/FADDP/LDR/STR/PRFM/NOP).
        reads: Per-instruction tuple of encoded source registers.
        writes: Per-instruction tuple of ``(encoded_reg, is_xreg)`` pairs.
        flops: Per-instruction flop counts.
        load_positions: Indices of the LDR instructions, in program order.
        regs: Sorted universe of encoded registers the program touches.
    """

    __slots__ = (
        "codes", "reads", "writes", "flops", "load_positions", "regs",
        "size", "total_flops", "n_loads",
    )

    def __init__(self, instructions: Sequence[Instruction]) -> None:
        codes: List[int] = []
        reads: List[Tuple[int, ...]] = []
        writes: List[Tuple[Tuple[int, bool], ...]] = []
        flops: List[int] = []
        load_positions: List[int] = []
        universe = set()
        for idx, instr in enumerate(instructions):
            code = _CODE_OF[instr.mnemonic]
            codes.append(code)
            r = tuple(sorted(_encode_reg(x) for x in instr.reads()))
            w = tuple(
                sorted(
                    (_encode_reg(x), isinstance(x, XReg))
                    for x in instr.writes()
                )
            )
            reads.append(r)
            writes.append(w)
            flops.append(instr.flops)
            universe.update(r)
            universe.update(rid for rid, _ in w)
            if code == _LDR:
                load_positions.append(idx)
        self.codes = tuple(codes)
        self.reads = tuple(reads)
        self.writes = tuple(writes)
        self.flops = tuple(flops)
        self.load_positions = tuple(load_positions)
        self.regs = tuple(sorted(universe))
        self.size = len(codes)
        self.total_flops = sum(flops)
        self.n_loads = len(load_positions)

    def __len__(self) -> int:
        return self.size


class _CompiledState:
    """Mutable scoreboard state threaded through compiled stepping."""

    __slots__ = (
        "cycle", "issued", "load_used", "store_used", "any_issued",
        "ready", "last_read", "fma_free", "raw", "structural", "war",
        "issue_cycles", "flops",
    )

    def __init__(self, fma_pipes: int) -> None:
        self.cycle = 0
        self.issued = 0
        self.load_used = 0
        self.store_used = 0
        self.any_issued = False
        self.ready: Dict[int, int] = {}
        self.last_read: Dict[int, int] = {}
        self.fma_free = [0] * fma_pipes
        self.raw = 0
        self.structural = 0
        self.war = 0
        self.issue_cycles = 0
        self.flops = 0

    def signature(
        self, universe: Tuple[int, ...], enforce_war: bool
    ) -> Tuple:
        """Normalized (cycle-relative) state at a template boundary.

        Register-ready and pipe-free times at or before the current cycle
        are all behaviourally equivalent (every comparison is ``> cycle``),
        so they clamp to 0; FMA pipes are symmetric, so their relative
        free times are sorted. Two states with equal signatures evolve
        identically under the same instruction template and latencies.
        """
        c = self.cycle
        ready = self.ready
        sig_ready = tuple(
            rel if (rel := ready.get(r, 0) - c) > 0 else 0 for r in universe
        )
        sig_war = ()
        if enforce_war:
            last = self.last_read
            sig_war = tuple(
                rel if (rel := last.get(r, 0) - c) > 0 else 0
                for r in universe
            )
        return (
            self.issued,
            self.load_used,
            self.store_used,
            self.any_issued,
            sig_ready,
            tuple(sorted(max(f - c, 0) for f in self.fma_free)),
            sig_war,
        )

    def restore(
        self, sig: Tuple, universe: Tuple[int, ...], enforce_war: bool
    ) -> None:
        """Re-enter the state class described by ``sig`` at the current
        cycle (inverse of :meth:`signature` up to equivalence)."""
        c = self.cycle
        issued, load_used, store_used, any_issued, ready, fma, war = sig
        self.issued = issued
        self.load_used = load_used
        self.store_used = store_used
        self.any_issued = any_issued
        self.ready = {r: c + rel for r, rel in zip(universe, ready)}
        self.fma_free = [c + rel for rel in fma]
        if enforce_war:
            self.last_read = {r: c + rel for r, rel in zip(universe, war)}


#: Most states plus transitions one scoreboard memo records. Past the
#: bound a miss still steps exactly; it is just not remembered, so a full
#: memo stays correct and never needs a wholesale clear.
MEMO_LIMIT = 1 << 15

#: The key under which a memo dict carries its :class:`_Automaton`.
_AUTOMATON = "automaton"


class _Automaton:
    """Interned template-boundary states and the transitions between them.

    A state is named by a token: its id in :attr:`sigs`, or, once the memo
    is full, its signature tuple itself (never recorded, so it only ever
    misses). States are interned per register universe, because a
    signature lists register times positionally over the universe of the
    run that made it.
    """

    __slots__ = ("lock", "ids", "sigs", "steps")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.ids: Dict[Tuple, int] = {}  # (universe, signature) -> id
        self.sigs: List[Tuple] = []  # id -> signature
        # (template, state, latency row) -> (d_cycle, d_raw, d_structural,
        # d_war, d_issue_cycles, completion, next state)
        self.steps: Dict[Tuple, Tuple] = {}

    def has_room(self) -> bool:
        return len(self.sigs) + len(self.steps) < MEMO_LIMIT

    def intern(self, universe: Tuple[int, ...], sig: Tuple) -> object:
        """The token of ``sig``; the caller holds :attr:`lock`."""
        sid = self.ids.get((universe, sig))
        if sid is not None:
            return sid
        if not self.has_room():
            return sig
        sid = len(self.sigs)
        self.sigs.append(sig)
        self.ids[(universe, sig)] = sid
        return sid

    def signature(self, state: object) -> Tuple:
        return state if isinstance(state, tuple) else self.sigs[state]


def _latency_runs(
    segments: Sequence[Tuple[ScoreboardTemplate, int]], lat: "np.ndarray"
) -> Iterator[Tuple[ScoreboardTemplate, Tuple[int, ...], int]]:
    """Split the template executions of ``segments`` into runs.

    Iterates ``(template, row, count)``: ``count`` back-to-back executions
    of ``template`` whose loads all see the latencies ``row``. ``lat``
    holds exactly the run's dynamic loads. Each execution's row is
    compared with the previous execution's in the same segment, for the
    whole stream in one NumPy pass, so only run heads reach Python.
    """
    live = [(t, r) for t, r in segments if r > 0]
    if not live:
        return iter(())
    widths = np.array([t.n_loads for t, _ in live], dtype=np.int64)
    repeats = np.array([r for _, r in live], dtype=np.int64)
    seg_of = np.repeat(np.arange(len(live)), repeats)  # per execution
    width = widths[seg_of]
    ends = np.cumsum(width)
    starts = ends - width
    # A load differs from the same load one row back; rows that end up
    # compared across a segment boundary are heads anyway.
    back = np.arange(lat.size) - np.repeat(width, width)
    changed = lat != lat[np.maximum(back, 0)]
    differs = np.concatenate(([0], np.cumsum(changed)))
    head = differs[ends] != differs[starts]
    head[0] = True
    head[1:] |= seg_of[1:] != seg_of[:-1]
    heads = np.flatnonzero(head)
    counts = np.empty_like(heads)
    counts[:-1] = heads[1:] - heads[:-1]
    counts[-1] = seg_of.size - heads[-1]
    # The head rows' latencies, gathered into one flat list.
    row_ends = np.cumsum(width[heads])
    row_starts = row_ends - width[heads]
    gather = np.arange(row_ends[-1]) + np.repeat(
        starts[heads] - row_starts, width[heads]
    )
    flat = lat[gather].tolist()
    rows = zip(row_starts.tolist(), row_ends.tolist())
    return zip(
        [live[s][0] for s in seg_of[heads].tolist()],
        [tuple(flat[a:b]) for a, b in rows],
        counts.tolist(),
    )


class ScoreboardCore:
    """Cycle-stepped in-order-issue, out-of-order-completion core model.

    Args:
        core: Core resource description.
        enforce_war: Model WAR hazards through a finite rename pool. When
            False (the default, matching the paper's observation), writes
            never wait for older readers.
        load_latency: Override the L1-hit load latency (e.g. to model a
            stream that misses to L2).
    """

    def __init__(
        self,
        core: CoreParams,
        enforce_war: bool = False,
        load_latency: Optional[int] = None,
    ) -> None:
        self.core = core
        self.enforce_war = enforce_war
        self.load_latency = (
            core.load_latency if load_latency is None else load_latency
        )

    def _latency(self, instr: Instruction) -> int:
        if instr.mnemonic is Mnemonic.FMLA:
            return self.core.fma_latency
        if instr.mnemonic is Mnemonic.FADDP:
            return max(1, self.core.fma_latency - 2)
        if instr.mnemonic is Mnemonic.LDR:
            return self.load_latency
        if instr.mnemonic is Mnemonic.STR:
            return 1
        return 1  # prfm, nop: retire immediately after issue

    def run(
        self,
        instructions: List[Instruction],
        repeat: int = 1,
        latency_fn: Optional[Callable[[Instruction, int], int]] = None,
    ) -> PipelineResult:
        """Simulate ``instructions`` repeated ``repeat`` times back-to-back.

        Repetition models the unrolled register-kernel loop in steady state:
        dependences carry across iterations exactly as the rotation scheme
        intends.

        Args:
            instructions: The program.
            repeat: Back-to-back repetitions.
            latency_fn: Optional per-dynamic-instruction latency override
                ``(instruction, dynamic_index) -> cycles``; used by the
                timing-functional simulator to feed real cache-hierarchy
                latencies into individual loads. Falls back to the static
                class latencies when it returns a non-positive value.
        """
        if repeat < 1:
            raise SimulationError("repeat must be >= 1")

        # Ready time per register value (cycle at which the value is
        # available to consumers). Address registers (XReg) produced by
        # post-index updates are available one cycle after issue.
        ready: Dict[object, int] = {}
        # For WAR modeling: last cycle at which each register is read.
        last_read: Dict[object, int] = {}

        cycle = 0
        issued_in_cycle = 0
        # FMA pipes are busy for fma_throughput_cycles per instruction;
        # track the cycle at which each pipe frees up.
        fma_free_at = [0] * self.core.fma_pipes
        load_used = 0
        store_used = 0
        raw_stalls = 0
        structural_stalls = 0
        war_stalls = 0
        issue_cycles = 0
        any_issued_this_cycle = False
        last_completion = 0
        flops = 0

        def advance() -> None:
            nonlocal cycle, issued_in_cycle, load_used, store_used
            nonlocal any_issued_this_cycle, issue_cycles
            if any_issued_this_cycle:
                issue_cycles += 1
            cycle += 1
            issued_in_cycle = 0
            load_used = 0
            store_used = 0
            any_issued_this_cycle = False

        # The repeated stream is iterated, not materialized: dependences
        # still carry across repetitions through ``ready``, but a large
        # ``repeat`` no longer costs a len*repeat list copy up front.
        dyn_stream = (
            (i, instr)
            for rep in range(repeat)
            for i, instr in enumerate(
                instructions, start=rep * len(instructions)
            )
        )
        for dyn_index, instr in dyn_stream:
            while True:
                # Structural: issue width.
                if issued_in_cycle >= self.core.issue_width:
                    structural_stalls += 1
                    advance()
                    continue
                # Structural: pipes (FADDP shares the FP/FMA pipe).
                if instr.mnemonic in (Mnemonic.FMLA, Mnemonic.FADDP) and all(
                    free > cycle for free in fma_free_at
                ):
                    structural_stalls += 1
                    advance()
                    continue
                if (
                    instr.mnemonic in (Mnemonic.LDR, Mnemonic.STR, Mnemonic.PRFM)
                    and load_used + store_used >= self.core.load_ports
                ):
                    structural_stalls += 1
                    advance()
                    continue
                # RAW: all source operands ready?
                srcs_ready = max(
                    (ready.get(r, 0) for r in instr.reads()), default=0
                )
                if srcs_ready > cycle:
                    raw_stalls += srcs_ready - cycle
                    while cycle < srcs_ready:
                        advance()
                    continue
                # WAR via rename-pool pressure (optional).
                if self.enforce_war:
                    war_until = max(
                        (last_read.get(r, 0) for r in instr.writes()),
                        default=0,
                    )
                    if war_until > cycle:
                        war_stalls += war_until - cycle
                        while cycle < war_until:
                            advance()
                        continue
                break

            # Issue now.
            issued_in_cycle += 1
            any_issued_this_cycle = True
            if instr.mnemonic in (Mnemonic.FMLA, Mnemonic.FADDP):
                pipe = min(
                    range(self.core.fma_pipes), key=lambda p: fma_free_at[p]
                )
                fma_free_at[pipe] = cycle + self.core.fma_throughput_cycles
            elif instr.mnemonic is Mnemonic.LDR:
                load_used += 1
            elif instr.mnemonic in (Mnemonic.STR, Mnemonic.PRFM):
                store_used += 1

            lat = self._latency(instr)
            if latency_fn is not None:
                override = latency_fn(instr, dyn_index)
                if override > 0:
                    lat = override
            done = cycle + lat
            for reg in instr.writes():
                if isinstance(reg, XReg):
                    # Post-index address update forwards in one cycle.
                    ready[reg] = cycle + 1
                else:
                    ready[reg] = done
            for reg in instr.reads():
                last_read[reg] = max(last_read.get(reg, 0), cycle)
            last_completion = max(last_completion, done)
            flops += instr.flops

        if any_issued_this_cycle:
            issue_cycles += 1
        return PipelineResult(
            cycles=max(last_completion, cycle + 1),
            issue_cycles=issue_cycles,
            raw_stall_cycles=raw_stalls,
            structural_stall_cycles=structural_stalls,
            war_stall_cycles=war_stalls,
            instructions=len(instructions) * repeat,
            flops=flops,
        )

    # -- compiled execution -------------------------------------------------

    def _static_latency(self, code: int) -> int:
        if code == _FMLA:
            return self.core.fma_latency
        if code == _FADDP:
            return max(1, self.core.fma_latency - 2)
        if code == _LDR:
            return self.load_latency
        return 1  # str, prfm, nop

    def _step_template(
        self,
        template: ScoreboardTemplate,
        lats: Tuple[int, ...],
        st: _CompiledState,
    ) -> int:
        """Execute one pass over ``template`` — a verbatim transliteration
        of :meth:`run`'s issue loop against the compiled metadata. Returns
        the max completion cycle of the template's own instructions (0 if
        it is empty), relative to the same origin as ``st.cycle``."""
        core = self.core
        issue_width = core.issue_width
        load_ports = core.load_ports
        throughput = core.fma_throughput_cycles
        enforce_war = self.enforce_war
        ready = st.ready
        last_read = st.last_read
        fma_free = st.fma_free
        load_cursor = 0
        seg_completion = 0

        for pos in range(template.size):
            code = template.codes[pos]
            reads = template.reads[pos]
            writes = template.writes[pos]
            cycle = st.cycle
            while True:
                if st.issued >= issue_width:
                    st.structural += 1
                    if st.any_issued:
                        st.issue_cycles += 1
                    cycle += 1
                    st.issued = st.load_used = st.store_used = 0
                    st.any_issued = False
                    continue
                if code <= _FADDP and all(f > cycle for f in fma_free):
                    st.structural += 1
                    if st.any_issued:
                        st.issue_cycles += 1
                    cycle += 1
                    st.issued = st.load_used = st.store_used = 0
                    st.any_issued = False
                    continue
                if (
                    code >= _LDR
                    and code != _NOP
                    and st.load_used + st.store_used >= load_ports
                ):
                    st.structural += 1
                    if st.any_issued:
                        st.issue_cycles += 1
                    cycle += 1
                    st.issued = st.load_used = st.store_used = 0
                    st.any_issued = False
                    continue
                srcs_ready = 0
                for r in reads:
                    t = ready.get(r, 0)
                    if t > srcs_ready:
                        srcs_ready = t
                if srcs_ready > cycle:
                    st.raw += srcs_ready - cycle
                    while cycle < srcs_ready:
                        if st.any_issued:
                            st.issue_cycles += 1
                        cycle += 1
                        st.issued = st.load_used = st.store_used = 0
                        st.any_issued = False
                    continue
                if enforce_war:
                    war_until = 0
                    for r, _is_x in writes:
                        t = last_read.get(r, 0)
                        if t > war_until:
                            war_until = t
                    if war_until > cycle:
                        st.war += war_until - cycle
                        while cycle < war_until:
                            if st.any_issued:
                                st.issue_cycles += 1
                            cycle += 1
                            st.issued = st.load_used = st.store_used = 0
                            st.any_issued = False
                        continue
                break
            st.cycle = cycle

            st.issued += 1
            st.any_issued = True
            if code <= _FADDP:
                pipe = min(range(len(fma_free)), key=lambda p: fma_free[p])
                fma_free[pipe] = cycle + throughput
            elif code == _LDR:
                st.load_used += 1
            elif code != _NOP:  # str, prfm
                st.store_used += 1

            lat = self._static_latency(code)
            if code == _LDR:
                override = lats[load_cursor]
                load_cursor += 1
                if override > 0:
                    lat = override
            done = cycle + lat
            for r, is_x in writes:
                ready[r] = cycle + 1 if is_x else done
            for r in reads:
                if last_read.get(r, 0) < cycle:
                    last_read[r] = cycle
            if done > seg_completion:
                seg_completion = done
            st.flops += template.flops[pos]
        return seg_completion

    def run_compiled(
        self,
        segments: Sequence[Tuple[ScoreboardTemplate, int]],
        load_latencies: Sequence[int],
        memo: Optional[Dict] = None,
    ) -> PipelineResult:
        """Run concatenated template segments with per-load latencies.

        Produces a :class:`PipelineResult` bit-identical to :meth:`run`
        over the equivalent flat instruction stream with a ``latency_fn``
        feeding the same per-LDR latencies.

        The call is an automaton walk. NumPy first groups the template
        executions into runs of one template under one latency row (the
        tuple of its loads' latencies). The scoreboard state at a
        template boundary is an interned id of its normalized signature,
        so one template execution is one dict lookup on
        ``(template, state id, row)`` that yields the counter deltas and
        the next state id. Only a miss builds a concrete
        :class:`_CompiledState` and steps it with :meth:`_step_template`.
        A transition back to its own state is a fixed point: the rest of
        its run repeats it, so the ``k`` executions left advance in one
        step by ``k`` times the deltas.

        Args:
            segments: ``(template, repeat)`` pairs, executed back to back.
            load_latencies: One entry per dynamic LDR across the whole
                run, in program order (a sequence or an integer ndarray);
                non-positive entries fall back to the static load latency
                (matching ``latency_fn``).
            memo: Optional cross-call memo dict; the automaton (interned
                states and transitions) lives in it. Transitions depend
                on the core, so a memo must only be shared between cores
                with identical :class:`~repro.arch.params.CoreParams`,
                ``enforce_war`` and ``load_latency`` settings, e.g.
                across the micro tiles of one GEBP. Threads may share a
                memo: lookups take no lock, a miss steps and records
                under the memo's lock. A memo holds at most
                :data:`MEMO_LIMIT` states and transitions; past that,
                misses still step exactly but are not recorded.
        """
        lat = np.asarray(load_latencies, dtype=np.int64)
        total_instructions = 0
        n_loads = 0
        for template, repeat in segments:
            if repeat < 0:
                raise SimulationError("repeat must be >= 0")
            total_instructions += template.size * repeat
            n_loads += template.n_loads * repeat
            if n_loads > lat.size:
                raise SimulationError(
                    "load_latencies shorter than the dynamic LDR count"
                )
        memo = {} if memo is None else memo
        auto = memo.get(_AUTOMATON)
        if auto is None:
            # setdefault is atomic: racing first calls share one automaton.
            auto = memo.setdefault(_AUTOMATON, _Automaton())
        universe = tuple(
            sorted(set().union(*(t.regs for t, _ in segments)))
            if segments
            else ()
        )
        start = _CompiledState(self.core.fma_pipes)
        with auto.lock:
            state = auto.intern(
                universe, start.signature(universe, self.enforce_war)
            )
        steps = auto.steps
        cycle = raw = structural = war = issue_cycles = 0
        last_completion = flops = 0
        for template, row, count in _latency_runs(segments, lat[:n_loads]):
            while count:
                key = (template, state, row)
                step = steps.get(key) or self._miss(auto, key, universe)
                (d_cycle, d_raw, d_struct, d_war, d_issue, completion,
                 nxt) = step
                # A fixed point repeats itself for the rest of the run.
                k = count if nxt == state else 1
                entry = cycle + (k - 1) * d_cycle
                if entry + completion > last_completion:
                    last_completion = entry + completion
                cycle = entry + d_cycle
                raw += k * d_raw
                structural += k * d_struct
                war += k * d_war
                issue_cycles += k * d_issue
                flops += k * template.total_flops
                count -= k
                state = nxt
        if auto.signature(state)[3]:  # an instruction issued this cycle
            issue_cycles += 1
        return PipelineResult(
            cycles=max(last_completion, cycle + 1),
            issue_cycles=issue_cycles,
            raw_stall_cycles=raw,
            structural_stall_cycles=structural,
            war_stall_cycles=war,
            instructions=total_instructions,
            flops=flops,
        )

    def _miss(
        self, auto: "_Automaton", key: Tuple, universe: Tuple[int, ...]
    ) -> Tuple:
        """Step one template execution concretely and record it.

        ``key`` is ``(template, state, row)``. The state re-enters at
        cycle 0, so the step's counters are its deltas and its completion
        is relative to its entry cycle.
        """
        template, state, row = key
        enforce_war = self.enforce_war
        with auto.lock:
            step = auto.steps.get(key)
            if step is not None:  # another thread recorded it first
                return step
            st = _CompiledState(self.core.fma_pipes)
            st.restore(auto.signature(state), universe, enforce_war)
            completion = self._step_template(template, row, st)
            step = (
                st.cycle, st.raw, st.structural, st.war, st.issue_cycles,
                completion,
                auto.intern(universe, st.signature(universe, enforce_war)),
            )
            if auto.has_room():
                auto.steps[key] = step
        return step

    def steady_state_cycles_per_iteration(
        self, instructions: List[Instruction], warmup: int = 4, measure: int = 8
    ) -> float:
        """Steady-state cycles for one pass over ``instructions``.

        Runs ``warmup + measure`` repetitions and differences the totals so
        pipeline fill does not pollute the estimate.
        """
        short = self.run(instructions, repeat=warmup)
        long = self.run(instructions, repeat=warmup + measure)
        return (long.cycles - short.cycles) / measure
