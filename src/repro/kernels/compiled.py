"""Compiled execution of generated register kernels.

The timed executor's interpreted path dispatches every dynamic instruction
through three scalar loops: functional execution, a per-load cache walk,
and the scoreboard issue loop. But a generated kernel is a *static*
template — the body's dependence structure, address stream and FMA
dataflow are fixed at generation time and merely repeated ``kc/unroll``
times — so all three loops can be compiled once per kernel and replayed
in batch (the same compile-once / relocate-per-call trick
:mod:`repro.sim.gebp_cachesim` uses for cache traces, extended to values
and time):

- **values** — the by-element FMLA grid accumulates, for every C element,
  one ``a[k, i] * b[k, j]`` term per k of the unroll in a fixed
  per-element order (:func:`compilability` extracts the accumulation
  permutation from the schedule), so the C tile is an ordered NumPy
  accumulation (``np.add.accumulate`` applies adds sequentially, after a
  per-element ``np.take_along_axis`` reorder when the schedule deviates
  from ascending k) that matches the interpreter bit for bit. Odd tiles
  run in the same lane-padded layout the executor uses — the pad lanes
  multiply zeros into discarded C rows, so the visible tile is
  unaffected. K-vectorized kernels accumulate two-lane partial sums per
  group and fold them with an ordered reduction reproducing ``faddp``
  rounding exactly;
- **addresses** — every load/prefetch address is affine in the body index
  (post-indexed pointer walks), so one pass over the body yields a memory
  event template; folding in the :class:`SequentialPrefetcher` (whose
  late/drop pattern is a pure function of the observed line sequence)
  gives a relocatable :class:`~repro.memory.batch.BatchTrace` per tile,
  replayed through
  :meth:`~repro.memory.hierarchy.MemoryHierarchy.run_batch_levels`;
- **time** — the prologue/body/epilogue become
  :class:`~repro.pipeline.scoreboard.ScoreboardTemplate` segments run by
  :meth:`~repro.pipeline.scoreboard.ScoreboardCore.run_compiled`, whose
  per-(state, latency-pattern) memo collapses steady-state iterations
  into dictionary hits.

The interpreted path stays as the differential-testing oracle
(``tests/test_compiled_engine.py`` asserts bit-identical cycles, stalls,
latency histograms and C values on every compilable kernel variant).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arch.params import CoreParams
from repro.errors import SimulationError
from repro.isa.instructions import Faddp, Fmla, FmlaVec, Ldr, Prfm, Str
from repro.isa.registers import DOUBLE_BYTES
from repro.kernels.codegen import (
    A_POINTER,
    B_POINTER,
    C_POINTER,
    GeneratedKernel,
)
from repro.kernels.execute import _body_load_targets, padded_stream_widths
from repro.kernels.kernel_spec import KernelStyle
from repro.memo import BoundedMemo
from repro.memory.batch import BatchTrace
from repro.memory.cache import CODE_LOAD, CODE_PREFETCH
from repro.memory.prefetcher import sequential_installs
from repro.pipeline.scoreboard import ScoreboardTemplate

#: Stream ids used to tag trace records for per-stream relocation.
_STREAM_A, _STREAM_B, _STREAM_C = 0, 1, 2

_POINTER_STREAM = {
    A_POINTER.index: _STREAM_A,
    B_POINTER.index: _STREAM_B,
    C_POINTER.index: _STREAM_C,
}


def compilability(kernel) -> Optional[str]:
    """Why ``kernel`` cannot take the compiled path, or ``None`` if it can.

    The compiled engine covers two kernel families:

    - **by-element** kernels the code generator emits (Fig. 8 structure):
      an all-``ldr`` C prologue, a body of post-indexed A/B loads,
      prefetches and by-element FMLAs covering every ``k`` of the unroll
      exactly once per C element (in any per-element order — the
      accumulation permutation is extracted as metadata), and an
      all-``str`` epilogue. Odd tiles compile in the lane-padded layout.
    - **k-vectorized** kernels (the ATLAS 5x5 family): an A/B preamble,
      a full-vector FMLA body whose register dataflow is an affine
      function of the group index (verified symbolically), and a
      ``faddp``-fold epilogue.

    Anything else reports a reason and is left to the interpreter.
    """
    if kernel.spec.style is KernelStyle.K_VECTORIZED:
        return _kvec_compilability(kernel)
    for instr in kernel.prologue:
        if not isinstance(instr, Ldr) or instr.base.index != C_POINTER.index:
            return "prologue is not a C-pointer load sequence"
    for instr in kernel.epilogue:
        if not isinstance(instr, Str):
            return "epilogue is not a store sequence"
    for instr in kernel.body:
        if isinstance(instr, (Ldr, Prfm)):
            if instr.base.index not in (A_POINTER.index, B_POINTER.index):
                return "body accesses memory outside the A/B streams"
        elif isinstance(instr, FmlaVec):
            return (
                "body contains full-vector fmla outside a k-vectorized "
                "kernel"
            )
        elif not isinstance(instr, Fmla):
            return (
                f"body contains {type(instr).__name__}: only by-element "
                "fmla/ldr/prfm bodies compile"
            )
    # Complete k coverage per C element: each fmla_index must apply every
    # copy 0..unroll-1 exactly once. The program order of the copies is
    # the element's accumulation order; it becomes metadata (see
    # :func:`_accumulation_orders`), not a rejection.
    try:
        _accumulation_orders(kernel)
    except SimulationError as exc:
        return str(exc)
    # Address-sequential A/B streams (post-indexed execution reads
    # exactly the packed layout).
    try:
        _stream_layout(kernel)
    except SimulationError as exc:
        return str(exc)
    return None


def _accumulation_orders(kernel: GeneratedKernel) -> Optional[np.ndarray]:
    """Per-element accumulation order of the body's FMLA grid.

    Returns ``None`` when every element accumulates in ascending ``k``
    (the common case — the ordered reduction needs no reorder), else an
    ``(unroll, n_elements)`` int array whose column ``f`` lists, in
    program order, the k-offsets element ``f`` accumulates. Raises
    :class:`SimulationError` when the grid is incomplete or duplicated.
    """
    spec = kernel.spec
    unroll = kernel.plan.unroll
    orders: Dict[int, List[int]] = {}
    for op in kernel.schedule.ops:
        if op.kind != "fmla":
            continue
        orders.setdefault(op.fmla_index, []).append(op.copy)
    n_elements = spec.a_regs_per_copy * spec.nr
    if set(orders) != set(range(n_elements)):
        raise SimulationError("body does not cover every C element")
    for copies in orders.values():
        if sorted(copies) != list(range(unroll)):
            raise SimulationError(
                "fmla copies do not cover every k of the unroll exactly "
                "once per element"
            )
    if all(
        copies == list(range(unroll)) for copies in orders.values()
    ):
        return None
    perm = np.empty((unroll, n_elements), dtype=np.intp)
    for f, copies in orders.items():
        perm[:, f] = copies
    return perm


def _kvec_compilability(kernel) -> Optional[str]:
    """Why a k-vectorized kernel cannot compile, or ``None``.

    Proves, by symbolic register dataflow, that the kernel computes the
    canonical k-vectorized grid: the preamble and body load the packed
    A/B streams sequentially, every C element's accumulator receives
    exactly one full-vector FMLA per body pass reading A value ``i`` and
    B value ``j`` of that pass's group (the load pattern is affine in the
    pass index — pass 1 must replay pass 0 shifted by one group), and the
    epilogue folds each column's partial sums pairwise with ``faddp``
    before storing.
    """
    spec = kernel.spec
    if spec.k_iters_per_group != 2:
        return "k-vectorized compilation needs two k-iterations per group"
    mr, nr = spec.mr, spec.nr
    pointers = {A_POINTER.index: "A", B_POINTER.index: "B"}
    seq = {"A": 0, "B": 0}
    regval: Dict[int, Tuple[str, int]] = {}

    def run_loads_and_terms(program, terms_out):
        for instr in program:
            if isinstance(instr, Ldr):
                stream = pointers.get(instr.base.index)
                if stream is None:
                    return "loads a stream other than A/B"
                regval[instr.dst.index] = (stream, seq[stream])
                seq[stream] += 1
            elif isinstance(instr, FmlaVec):
                a_val = regval.get(instr.multiplicand.index)
                b_val = regval.get(instr.multiplier.index)
                if a_val is None or b_val is None:
                    return "fmla reads an unloaded register"
                if a_val[0] != "A" or b_val[0] != "B":
                    return "fmla operand streams are swapped or mixed"
                terms_out.append(
                    (instr.acc.index, a_val[1], b_val[1])
                )
            else:
                return (
                    f"body contains {type(instr).__name__}: only "
                    "full-vector fmla/ldr bodies compile"
                )
        return None

    err = run_loads_and_terms(kernel.prologue, [])
    if err:
        return f"preamble {err}"
    passes: List[List[Tuple[int, int, int]]] = []
    for _ in range(2):
        terms: List[Tuple[int, int, int]] = []
        err = run_loads_and_terms(kernel.body, terms)
        if err:
            return f"body {err}"
        passes.append(terms)
    shifted = [(acc, a + mr, b + nr) for acc, a, b in passes[0]]
    if passes[1] != shifted:
        return "body load pattern is not affine in the group index"
    if len(passes[0]) != mr * nr:
        return "body does not update every C element once per group"
    # Epilogue: pairwise faddp folds down each column, stored in order.
    # Column-major C buffer with 2*ceil(mr/2) lane-padded rows.
    acc_of: Dict[Tuple[int, int], int] = {
        (a, b): acc for acc, a, b in passes[0]
    }
    if len(acc_of) != mr * nr or len(
        {acc for acc, _, _ in passes[0]}
    ) != mr * nr:
        return "C accumulators are not in one-to-one element correspondence"
    row_pairs = spec.a_regs_per_copy
    folded: Dict[int, Tuple[int, Optional[int]]] = {}
    store_seq = 0
    for instr in kernel.epilogue:
        if isinstance(instr, Faddp):
            folded[instr.dst.index] = (instr.first.index, instr.second.index)
        elif isinstance(instr, Str):
            if instr.base.index != C_POINTER.index:
                return "epilogue stores outside the C stream"
            col, pair = divmod(store_seq, row_pairs)
            fold = folded.get(instr.src.index)
            if fold is None:
                return "epilogue stores an unfolded register"
            first, second = fold
            i = 2 * pair
            if acc_of.get((i, col)) != first:
                return "epilogue fold order does not match the C layout"
            if i + 1 < mr and acc_of.get((i + 1, col)) != second:
                return "epilogue fold order does not match the C layout"
            store_seq += 1
        else:
            return (
                f"epilogue contains {type(instr).__name__}: only "
                "faddp/str epilogues compile"
            )
    if store_seq != row_pairs * nr:
        return "epilogue does not store the whole C tile"
    return None


def _stream_layout(kernel: GeneratedKernel) -> Dict[str, int]:
    """Buffer-relative start offset of each stream's first body load.

    Raises if the body's loads are not address-sequential per stream.
    """
    spec = kernel.spec
    pw_a, pw_b = padded_stream_widths(spec)
    targets, _preload = _body_load_targets(kernel)
    start: Dict[str, int] = {}
    expected: Dict[str, int] = {}
    for _idx, slot, k_off in targets:
        s = slot[0]
        width = pw_a if s == "A" else pw_b
        off = (k_off * width + 2 * int(slot[1:])) * DOUBLE_BYTES
        if s not in start:
            start[s] = off
        elif off != expected[s]:
            raise SimulationError(
                f"{s}-stream loads are not address-sequential"
            )
        expected[s] = off + 2 * DOUBLE_BYTES
    return start


#: Tile traces kept per compiled kernel. A GEBP loop needs one per base
#: residue class (a handful); the bound stops distinct ``hw_late`` or
#: ``n_bodies`` queries from growing a memoized kernel without limit.
TRACE_CACHE_LIMIT = 16


class CompiledKernel:
    """A generated kernel lowered for batched replay.

    Compile once per kernel (see :func:`compile_kernel` for the cached
    entry point); every per-shape artifact — tile traces keyed by base
    residues, scoreboard memos keyed by core parameters — is cached on
    the instance, so GEBP loops re-running the kernel over many tiles
    amortize all template construction.

    Args:
        kernel: The kernel to compile; raises :class:`SimulationError`
            with the :func:`compilability` reason if it cannot compile.
    """

    def __init__(self, kernel) -> None:
        reason = compilability(kernel)
        if reason is not None:
            raise SimulationError(f"kernel does not compile: {reason}")
        self.kernel = kernel
        self._kvec = kernel.spec.style is KernelStyle.K_VECTORIZED
        self._perm = None if self._kvec else _accumulation_orders(kernel)
        self.prologue_template = ScoreboardTemplate(list(kernel.prologue))
        self.body_template = ScoreboardTemplate(list(kernel.body))
        self.epilogue_template = ScoreboardTemplate(list(kernel.epilogue))
        self._events = _compile_events(kernel)
        self._trace_cache: BoundedMemo[
            Tuple[np.ndarray, np.ndarray, tuple]
        ] = BoundedMemo(TRACE_CACHE_LIMIT)
        self._memos: Dict[CoreParams, dict] = {}

    # -- functional layer ---------------------------------------------------

    def compute_tile(
        self,
        a_sliver: np.ndarray,
        b_sliver: np.ndarray,
        c_tile: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The kernel's C tile, bit-identical to interpreted execution.

        By-element kernels: every C element accumulates exactly one
        product per ``k`` in the schedule's program order (metadata from
        :func:`_accumulation_orders` — ascending ``k`` in the common
        case, a per-element within-unroll reorder otherwise);
        ``np.add.accumulate`` applies the additions sequentially, so the
        float rounding matches the interpreter's one-FMLA-at-a-time
        updates exactly.

        K-vectorized kernels: two-lane partial sums accumulate per group
        in order, then fold lane 0 + lane 1 — the exact arithmetic of
        the ``faddp`` epilogue (``dst[0] = first[0] + first[1]``).
        """
        spec = self.kernel.spec
        c0 = (
            np.zeros((spec.mr, spec.nr))
            if c_tile is None
            else np.asarray(c_tile, float)
        )
        if self._kvec:
            mr, nr = spec.mr, spec.nr
            groups = a_sliver.shape[0] // 2
            ga = a_sliver.reshape(groups, 2, mr).transpose(0, 2, 1)
            gb = b_sliver.reshape(groups, 2, nr).transpose(0, 2, 1)
            terms = ga[:, :, None, :] * gb[:, None, :, :]
            chain = np.concatenate(
                [np.zeros((1, mr, nr, 2)), terms], axis=0
            )
            acc = np.add.accumulate(chain, axis=0)[-1]
            return c0 + (acc[..., 0] + acc[..., 1])
        terms = a_sliver[:, :, None] * b_sliver[:, None, :]
        if self._perm is not None:
            terms = np.take_along_axis(
                terms, self._element_k_order(a_sliver.shape[0]), axis=0
            )
        chain = np.concatenate([c0[None], terms], axis=0)
        return np.add.accumulate(chain, axis=0)[-1]

    def _element_k_order(self, kc: int) -> np.ndarray:
        """``(kc, mr, nr)`` gather indices applying each element's
        within-unroll accumulation order to the term stack."""
        spec = self.kernel.spec
        unroll = self.kernel.plan.unroll
        mr, nr = spec.mr, spec.nr
        # fmla_index f covers C rows (2*(f//nr), 2*(f//nr)+1), col f%nr.
        per_unroll = np.empty((unroll, mr, nr), dtype=np.intp)
        for f in range(self._perm.shape[1]):
            rg, col = divmod(f, nr)
            for row in (2 * rg, 2 * rg + 1):
                if row < mr:
                    per_unroll[:, row, col] = self._perm[:, f]
        bodies = np.arange(0, kc, unroll, dtype=np.intp)
        return (
            bodies[:, None, None, None] + per_unroll[None]
        ).reshape(kc, mr, nr)

    # -- memory layer -------------------------------------------------------

    def loads_per_tile(self, n_bodies: int) -> int:
        """Dynamic demand-load count of one micro-tile run."""
        return (
            self.prologue_template.n_loads
            + n_bodies * self.body_template.n_loads
        )

    def tile_trace(
        self,
        n_bodies: int,
        a_base: int,
        b_base: int,
        c_base: int,
        hw_late: float,
        line_bytes: int,
    ) -> BatchTrace:
        """The micro-tile's timed access stream at the given bases.

        One record per demand load (in 1:1 program order with the
        scoreboard's LDRs) plus the software prefetches and the hardware
        prefetcher's installs, exactly as the interpreted ``step()``
        interleaves them. The stream is a pure function of
        ``(n_bodies, bases mod line, hw_late)``; per residue class it is
        built once and relocated per call (base deltas within a class are
        line multiples, so install lines relocate exactly).
        """
        key = (
            n_bodies,
            a_base % line_bytes,
            b_base % line_bytes,
            c_base % line_bytes,
            hw_late,
            line_bytes,
        )
        entry = self._trace_cache.get(key)
        if entry is None:
            records, streams = self._build_rows(
                n_bodies, a_base, b_base, c_base, hw_late, line_bytes
            )
            self._trace_cache.put(
                key, (records, streams, (a_base, b_base, c_base))
            )
            return BatchTrace(records)
        records, streams, bases0 = entry
        deltas = (a_base - bases0[0], b_base - bases0[1], c_base - bases0[2])
        if deltas == (0, 0, 0):
            return BatchTrace(records)
        moved = records.copy()
        moved["address"] += np.array(deltas, dtype=np.int64)[streams]
        return BatchTrace(moved)

    def _build_rows(
        self,
        n_bodies: int,
        a_base: int,
        b_base: int,
        c_base: int,
        hw_late: float,
        line_bytes: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        prologue_events, body_events, advance = self._events
        base = np.array([a_base, b_base, c_base], dtype=np.int64)
        step = np.array(
            [advance[_STREAM_A], advance[_STREAM_B], advance[_STREAM_C]],
            dtype=np.int64,
        )
        # Prologue loads, then the body's events once per body, each
        # body's addresses moved on by the per-body pointer advance.
        p_sid, p_off, p_observed = np.array(
            prologue_events, dtype=np.int64
        ).reshape(-1, 3).T
        b_prefetch, b_sid, b_off, b_level = np.array(
            body_events, dtype=np.int64
        ).reshape(-1, 4).T
        bodies = np.arange(n_bodies, dtype=np.int64)[:, None]
        address = np.concatenate([
            base[p_sid] + p_off,
            (base[b_sid] + b_off + bodies * step[b_sid]).ravel(),
        ])
        sid = np.concatenate([p_sid, np.tile(b_sid, n_bodies)])
        kind = np.concatenate([
            np.full(p_sid.size, CODE_LOAD),
            np.tile(np.where(b_prefetch, CODE_PREFETCH, CODE_LOAD), n_bodies),
        ])
        level = np.concatenate([
            np.zeros(p_sid.size, dtype=np.int64),
            np.tile(np.where(b_prefetch, b_level, 0), n_bodies),
        ])
        # The prefetcher watches the body's loads and the observed
        # prologue loads; an install joins its load's stream.
        watched = np.concatenate([
            np.where(p_observed, p_sid, -1),
            np.tile(np.where(b_prefetch, -1, b_sid), n_bodies),
        ])
        installs, at = sequential_installs(
            address // line_bytes, watched, hw_late
        )
        records = BatchTrace.interleaved(
            address, kind, level, installs * line_bytes, at
        ).records
        issuer = at - np.arange(1, at.size + 1)
        streams = np.insert(sid, issuer + 1, sid[issuer])
        n_demand = int((records["kind"] == CODE_LOAD).sum())
        if n_demand != self.loads_per_tile(n_bodies):
            raise SimulationError(
                "compiled trace demand-load count does not match the "
                "scoreboard templates"
            )
        return records, streams

    # -- timing layer -------------------------------------------------------

    def segments(
        self, n_bodies: int
    ) -> List[Tuple[ScoreboardTemplate, int]]:
        """Scoreboard segments of one micro-tile run."""
        return [
            (self.prologue_template, 1),
            (self.body_template, n_bodies),
            (self.epilogue_template, 1),
        ]

    def memo_for(self, core: CoreParams) -> dict:
        """The scoreboard memo for one core configuration.

        Memo entries are only valid for identical core parameters, so the
        cache is keyed on them; callers running many tiles on the same
        chip share one memo and hit it for every steady-state iteration.
        The only caller, ``sim.timed_executor._run_compiled_micro_tile``,
        runs a default ``ScoreboardCore(chip.core)`` (no WAR modelling,
        the core's own load latency), so the core alone is the key.
        ``WorkerPool`` workers share the memo: ``run_compiled`` records
        its misses under the memo's own lock and stops recording at
        :data:`~repro.pipeline.scoreboard.MEMO_LIMIT` entries.
        """
        return self._memos.setdefault(core, {})


def _compile_events(kernel):
    """Lower prologue/body to relocatable memory events.

    Returns ``(prologue_events, body_events, advance)`` where prologue
    events are ``(stream, offset, observed)`` loads (``observed`` marks
    A/B-stream loads the hardware prefetcher watches — the C prologue of
    by-element kernels is not observed, matching the interpreter), body
    events are ``(is_prefetch, stream, offset, level)`` with offsets
    relative to the stream's buffer base for body 0, and ``advance`` maps
    each stream to its per-body pointer advance (body ``n`` adds
    ``n * advance``).
    """
    prologue_events: List[Tuple[int, int, bool]] = []
    if kernel.spec.style is KernelStyle.K_VECTORIZED:
        # The preamble walks the A/B streams directly; the body picks up
        # from the preamble's cursors.
        cursor = {_STREAM_A: 0, _STREAM_B: 0, _STREAM_C: 0}
        for instr in kernel.prologue:
            sid = _POINTER_STREAM[instr.base.index]
            prologue_events.append((sid, cursor[sid], True))
            cursor[sid] += instr.post_increment
    else:
        start = _stream_layout(kernel)
        c_off = 0
        for instr in kernel.prologue:
            prologue_events.append((_STREAM_C, c_off, False))
            c_off += instr.post_increment
        cursor = {
            _STREAM_A: start.get("A", 0),
            _STREAM_B: start.get("B", 0),
        }
    advance = {_STREAM_A: 0, _STREAM_B: 0, _STREAM_C: 0}
    body_events: List[Tuple[bool, int, int, int]] = []
    for instr in kernel.body:
        if isinstance(instr, Ldr):
            sid = _POINTER_STREAM[instr.base.index]
            body_events.append((False, sid, cursor[sid], 0))
            cursor[sid] += instr.post_increment
            advance[sid] += instr.post_increment
        elif isinstance(instr, Prfm):
            sid = _POINTER_STREAM[instr.base.index]
            body_events.append(
                (True, sid, cursor[sid] + instr.offset, instr.target.level)
            )
    return prologue_events, body_events, advance


#: id-keyed compilation cache; bounded so e.g. property tests generating
#: many throwaway kernels cannot grow it without limit.
_CACHE: BoundedMemo[CompiledKernel] = BoundedMemo(64)


def compile_kernel(kernel) -> CompiledKernel:
    """Compile ``kernel``, reusing a prior compilation of the same object.

    The cache is what lets independent entry points (micro-tile, GEBP,
    dual-GEBP, benchmarks) share trace templates and scoreboard memos
    for the memoized kernel variants without explicit plumbing. Threads
    racing on a kernel's first call share one compilation.
    """
    # An entry holds its kernel (``CompiledKernel.kernel``), which pins
    # ``id(kernel)``: no other object can take that id while it is cached.
    return _CACHE.get_or_make(id(kernel), lambda: CompiledKernel(kernel))
