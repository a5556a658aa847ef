"""Software-implemented register rotation (paper Sec. IV-A, eq. (12), Table I).

The register kernel keeps the C tile pinned (v8-v31 for 8x6) and cycles the
A/B working values through a small pool (v0-v7). One unrolled copy needs
``ab_regs_per_copy`` pool registers (7 for 8x6); preloading the next copy's
values concurrently would need another 7, but only ``pool = 8`` exist, so
``nrf = 2*7 - 8 = 6`` registers must be reused between consecutive copies.

The optimization problem (12) asks for the assignment that maximizes the
minimum distance, over all pool registers, between the *last read of the
current value* ('CL') and the *first read of the next value* ('NF') in the
FMLA stream: the wider that window, the more freedom the scheduler has to
place the intervening load without stalling the pipeline.

We solve (12) exactly over the family the paper uses — rotation schemes in
which every slot follows one cyclic permutation ``sigma`` of the pool (each
row of Table I is the same 8-cycle started at a different point). All
``(pool-1)!`` cycles are enumerated; for the 8x6 kernel the optimum
distance is 7, matching the paper.

The unrotated baseline (``static_plan``) pins each slot to a fixed register
forever; its minimum CL->NF distance is 5 for the 8x6 kernel, which is what
the Fig. 13 ablation degrades to.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import RegisterAllocationError
from repro.kernels.kernel_spec import KernelSpec


@dataclass(frozen=True)
class SlotReads:
    """First/last FMLA read positions of one value slot within a copy."""

    slot: str
    first: int
    last: int


def slot_read_positions(spec: KernelSpec) -> Dict[str, SlotReads]:
    """First and last FMLA positions at which each A/B slot is read.

    Positions index the ``fmla_per_iter`` FMLAs of one copy in zig-zag
    order.
    """
    firsts: Dict[str, int] = {}
    lasts: Dict[str, int] = {}
    reads = spec.read_schedule()
    for pos2, (operand, idx) in enumerate(reads):
        pos = pos2 // 2  # two reads per FMLA
        name = f"{operand}{idx}"
        firsts.setdefault(name, pos)
        lasts[name] = pos
    return {
        name: SlotReads(slot=name, first=firsts[name], last=lasts[name])
        for name in firsts
    }


@dataclass(frozen=True)
class RotationPlan:
    """A register-rotation assignment for the unrolled kernel.

    Attributes:
        spec: The kernel this plan serves.
        pool: Number of rotating registers (8 for 8x6).
        unroll: Number of unrolled copies per loop body (= pool for
            rotated plans, so the pattern closes after one body).
        assignment: ``assignment[copy][slot_name] -> pool register index``.
        min_distance: The realized eq.-(12) objective (in FMLA positions).
        sigma: The successor cycle, or ``None`` for the static plan.
    """

    spec: KernelSpec
    pool: int
    unroll: int
    assignment: Tuple[Dict[str, int], ...]
    min_distance: int
    sigma: Optional[Tuple[int, ...]] = None

    def register_for(self, slot: str, copy: int) -> int:
        """Pool register holding ``slot`` in unrolled copy ``copy``."""
        return self.assignment[copy % self.unroll][slot]

    def previous_tenant(self, slot: str, copy: int) -> Optional[Tuple[str, int]]:
        """The (slot, copy) whose value previously occupied the register
        that ``slot`` uses in ``copy``, or ``None`` when that register was
        the pool's spare in the previous copy (7 slots rotate through 8
        registers, so exactly one register idles each copy)."""
        reg = self.register_for(slot, copy)
        prev_copy = (copy - 1) % self.unroll
        for name, r in self.assignment[prev_copy].items():
            if r == reg:
                return (name, prev_copy)
        return None

    def table(self) -> List[Tuple[str, List[int]]]:
        """Table-I-shaped view: one row per slot, one column per copy."""
        rows = []
        for slot in self.spec.slot_names():
            rows.append(
                (slot, [self.assignment[c][slot] for c in range(self.unroll)])
            )
        return rows


def _evaluate_min_distance(
    spec: KernelSpec,
    assignment: Sequence[Dict[str, int]],
    unroll: int,
) -> int:
    """The eq.-(12) objective: min over registers of NF - CL, in global
    FMLA positions, with wraparound across loop bodies."""
    reads = slot_read_positions(spec)
    fpi = spec.fmla_per_iter
    # For each register: ordered list of (global_first, global_last) uses.
    uses: Dict[int, List[Tuple[int, int]]] = {}
    for copy in range(unroll):
        for slot, reg in assignment[copy].items():
            r = reads[slot]
            uses.setdefault(reg, []).append(
                (copy * fpi + r.first, copy * fpi + r.last)
            )
    total = unroll * fpi
    best = total
    for reg, spans in uses.items():
        spans.sort()
        n = len(spans)
        for i in range(n):
            cur_last = spans[i][1]
            nxt_first = spans[(i + 1) % n][0] + (total if i + 1 == n else 0)
            best = min(best, nxt_first - cur_last)
    return best


def static_plan(spec: KernelSpec) -> RotationPlan:
    """The unrotated baseline: each slot owns a fixed register forever."""
    slots = spec.slot_names()
    unroll = spec.rotation_pool  # same unroll as the rotated plan
    assignment = tuple({s: i for i, s in enumerate(slots)} for _ in range(unroll))
    dist = _evaluate_min_distance(spec, assignment, unroll)
    return RotationPlan(
        spec=spec,
        pool=spec.rotation_pool,
        unroll=unroll,
        assignment=assignment,
        min_distance=dist,
        sigma=None,
    )


#: The cycle behind the paper's Table I: 0 -> 2 -> 4 -> 7 -> 6 -> 1 -> 3 -> 5.
PAPER_SIGMA_8X6: Tuple[int, ...] = (0, 2, 4, 7, 6, 1, 3, 5)


def plan_from_cycle(spec: KernelSpec, cycle: Tuple[int, ...]) -> RotationPlan:
    """Build the rotation plan induced by one explicit pool cycle."""
    pool = spec.rotation_pool
    if sorted(cycle) != list(range(pool)):
        raise RegisterAllocationError(
            f"cycle must be a permutation of 0..{pool - 1}"
        )
    slots = spec.slot_names()
    succ = {cycle[i]: cycle[(i + 1) % pool] for i in range(pool)}
    assignment: List[Dict[str, int]] = []
    current = {slot: i for i, slot in enumerate(slots)}
    for _copy in range(pool):
        assignment.append(dict(current))
        current = {s: succ[r] for s, r in current.items()}
    dist = _evaluate_min_distance(spec, assignment, pool)
    return RotationPlan(
        spec=spec,
        pool=pool,
        unroll=pool,
        assignment=tuple(assignment),
        min_distance=dist,
        sigma=cycle,
    )


def paper_plan(spec: Optional[KernelSpec] = None) -> RotationPlan:
    """The paper's exact Table I rotation for the 8x6 kernel.

    Reproduces Table I digit-for-digit and realizes the paper's reported
    optimal distance of 7. (Our exhaustive :func:`solve_rotation` finds a
    cycle with distance 11 under the same objective — see EXPERIMENTS.md.)
    """
    from repro.kernels.kernel_spec import KERNEL_8X6

    spec = spec or KERNEL_8X6
    if spec.rotation_pool != 8:
        raise RegisterAllocationError(
            "the paper's Table I applies to the 8-register pool of 8x6"
        )
    return plan_from_cycle(spec, PAPER_SIGMA_8X6)


def solve_rotation(spec: KernelSpec) -> RotationPlan:
    """Solve eq. (12) exactly over single-cycle rotation schemes.

    Enumerates every cyclic permutation of the pool (fixing ``sigma(start)``
    chains as cycles through all pool registers), applies
    ``reg(slot, copy) = sigma^copy(slot)``, and keeps the assignment with
    the largest minimum CL->NF distance, the first in enumeration order
    on ties. All cycles are scored as one array. For 8x6 it finds
    distance 11, where the paper's Table I cycle reaches 7
    (:func:`paper_plan`).
    """
    if not spec.rotated:
        return static_plan(spec)
    slots = spec.slot_names()
    pool = spec.rotation_pool
    if len(slots) >= pool + 1:
        raise RegisterAllocationError(
            f"{spec.name}: {len(slots)} slots exceed pool of {pool}"
        )
    # Every cycle through the pool registers: 0 -> p1 -> ... -> 0.
    cycles = np.array(
        [(0,) + rest for rest in itertools.permutations(range(1, pool))]
    )
    # argmax keeps the first maximum in enumeration order.
    best = int(np.argmax(_cycle_min_distances(spec, cycles)))
    return plan_from_cycle(spec, tuple(int(r) for r in cycles[best]))


def _cycle_min_distances(spec: KernelSpec, cycles: np.ndarray) -> np.ndarray:
    """The eq.-(12) objective of :func:`plan_from_cycle` for every row of
    ``cycles`` at once.

    Copy ``c`` puts slot ``s`` in register ``sigma^c(s)``, and copy
    ``c``'s FMLA positions are offset by ``c * fpi``, so a register's
    uses are its occupants' read spans in copy order. A forward pass
    finds each register's first use; a backward pass gives each use the
    distance to the register's next use, the last use wrapping round to
    the first in the next body.
    """
    n, pool = cycles.shape
    reads = slot_read_positions(spec)
    slots = spec.slot_names()
    first = np.array([reads[s].first for s in slots])
    last = np.array([reads[s].last for s in slots])
    fpi = spec.fmla_per_iter
    total = pool * fpi
    succ = np.empty_like(cycles)
    np.put_along_axis(succ, cycles, np.roll(cycles, -1, axis=1), axis=1)
    pred = np.empty_like(cycles)
    np.put_along_axis(pred, np.roll(cycles, -1, axis=1), cycles, axis=1)
    rows = np.arange(n)[:, None]

    def spans(c, reg):
        """Read span of each register's occupant in copy ``c`` (start
        ``-1``: the register idles)."""
        start = np.full((n, pool), -1, dtype=np.int64)
        end = np.full((n, pool), -1, dtype=np.int64)
        start[rows, reg] = c * fpi + first
        end[rows, reg] = c * fpi + last
        return start, end

    reg = np.broadcast_to(np.arange(len(slots)), (n, len(slots)))
    head = np.full((n, pool), -1, dtype=np.int64)
    for c in range(pool):
        if c:
            reg = succ[rows, reg]
        head = np.where(head < 0, spans(c, reg)[0], head)
    nxt = head + total
    best = np.full(n, total, dtype=np.int64)
    for c in reversed(range(pool)):
        start, end = spans(c, reg)
        used = start >= 0
        best = np.minimum(best, np.where(used, nxt - end, total).min(axis=1))
        nxt = np.where(used, start, nxt)
        reg = pred[rows, reg]
    return best
