"""Assembly generation for the register kernel (paper Fig. 8).

Turns a :class:`~repro.kernels.scheduling.BodySchedule` into a concrete
:class:`~repro.isa.Program`:

- the C tile is pinned in the registers above the rotating pool
  (v8-v31 for the 8x6 kernel, column-major: ``C[2a:2a+2, col]`` lives in
  ``v(pool + col*a_regs + a)``);
- FMLA ``f`` of a copy accumulates ``A-slot (f // nr)`` times lane
  ``(f % nr) % 2`` of ``B-slot (f % nr) // 2``, with the physical registers
  chosen by the rotation plan for that copy;
- loads stream A through ``x14`` and B through ``x15`` with post-indexed
  ``#16`` updates, in exactly the scheduler's order;
- prefetches use the PREFA/PREFB distances of the prefetch plan.

A prologue loads the C tile from ``x16`` and an epilogue stores it back —
these run once per micro-tile, outside the k-loop, as in GEBP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.blocking.prefetch import PrefetchPlan, plan_prefetch
from repro.errors import AssemblyError
from repro.isa.instructions import (
    Fmla,
    Instruction,
    Ldr,
    PrefetchTarget,
    Prfm,
    Str,
)
from repro.isa.program import Program
from repro.isa.registers import VReg, XReg
from repro.kernels.kernel_spec import KernelSpec
from repro.kernels.rotation import RotationPlan, paper_plan, solve_rotation, static_plan
from repro.kernels.scheduling import BodySchedule, schedule_body

#: Pointer registers used by the paper's snippet (Fig. 8).
A_POINTER = XReg(14)
B_POINTER = XReg(15)
C_POINTER = XReg(16)


@dataclass(frozen=True)
class GeneratedKernel:
    """A fully generated register kernel.

    Attributes:
        spec: Kernel shape.
        plan: Register-rotation plan used.
        schedule: Scheduled body (loads interleaved with FMLAs).
        body: One unrolled loop body (``plan.unroll`` k-iterations).
        prologue: C-tile load sequence (once per micro-tile).
        epilogue: C-tile store sequence (once per micro-tile).
        prefetch: Prefetch distances baked into the body.
    """

    spec: KernelSpec
    plan: RotationPlan
    schedule: BodySchedule
    body: Program
    prologue: Program
    epilogue: Program
    prefetch: Optional[PrefetchPlan]


def c_register(spec: KernelSpec, row_group: int, col: int) -> VReg:
    """Pinned register holding rows ``2*row_group..2*row_group+1`` of C
    column ``col``."""
    base = spec.rotation_pool
    idx = base + col * spec.a_regs_per_copy + row_group
    if idx > 31:
        raise AssemblyError(
            f"{spec.name}: C tile does not fit the register file"
        )
    return VReg(idx)


def _emit_body(
    spec: KernelSpec,
    plan: RotationPlan,
    schedule: BodySchedule,
    prefetch: Optional[PrefetchPlan],
) -> Program:
    nr = spec.nr
    prog = Program(name=f"gebp-{spec.name}-body")
    for op in schedule.ops:
        if op.kind == "fmla":
            f = op.fmla_index
            a_slot = f // nr
            col = f % nr
            a_reg = VReg(plan.register_for(f"A{a_slot}", op.copy))
            b_reg = VReg(plan.register_for(f"B{col // 2}", op.copy))
            prog.append(
                Fmla(
                    acc=c_register(spec, a_slot, col),
                    multiplicand=a_reg,
                    multiplier=b_reg.lane(col % 2),
                )
            )
        elif op.kind == "ldr":
            dst = VReg(plan.register_for(op.slot, op.value_copy))
            base = A_POINTER if op.stream == "A" else B_POINTER
            prog.append(Ldr(dst=dst, base=base, tag=op.stream))
        elif op.kind == "prfm":
            if prefetch is None:
                continue
            if op.stream == "A":
                prog.append(
                    Prfm(
                        target=PrefetchTarget.PLDL1KEEP,
                        base=A_POINTER,
                        offset=prefetch.prefa_bytes,
                        tag="A",
                    )
                )
            else:
                prog.append(
                    Prfm(
                        target=PrefetchTarget.PLDL2KEEP,
                        base=B_POINTER,
                        offset=prefetch.prefb_bytes,
                        tag="B",
                    )
                )
        else:  # pragma: no cover - scheduler only emits the three kinds
            raise AssemblyError(f"unknown scheduled op kind {op.kind!r}")
    return prog


def _emit_c_tile(spec: KernelSpec, store: bool) -> Program:
    kind = "store" if store else "load"
    prog = Program(name=f"gebp-{spec.name}-c-{kind}")
    for col in range(spec.nr):
        for a in range(spec.a_regs_per_copy):
            reg = c_register(spec, a, col)
            if store:
                prog.append(Str(src=reg, base=C_POINTER, tag="C"))
            else:
                prog.append(Ldr(dst=reg, base=C_POINTER, tag="C"))
    return prog


def generate_kernel(
    spec: KernelSpec,
    kc: int = 512,
    plan: Optional[RotationPlan] = None,
    use_paper_rotation: bool = False,
    with_prefetch: bool = True,
    schedule_strategy: str = "earliest",
) -> GeneratedKernel:
    """Generate the complete register kernel for ``spec``.

    Args:
        spec: Kernel shape; ``spec.rotated`` selects rotation vs static.
        kc: Blocking depth, used for the PREFB prefetch distance.
        plan: Explicit rotation plan (otherwise solved or static).
        use_paper_rotation: Use the paper's Table I cycle instead of the
            exhaustive optimum (only for the 8x6-shaped pool).
        schedule_strategy: ``"earliest"`` (the eq.-(13) optimum) or
            ``"latest"`` (the unscheduled ablation).
    """
    if plan is None:
        if not spec.rotated:
            plan = static_plan(spec)
        elif use_paper_rotation:
            plan = paper_plan(spec)
        else:
            plan = solve_rotation(spec)
    prefetch = (
        plan_prefetch(spec.mr, spec.nr, kc, unroll=plan.unroll)
        if with_prefetch
        else None
    )
    schedule = schedule_body(
        spec, plan, with_prefetch=with_prefetch,
        strategy=schedule_strategy,
    )
    body = _emit_body(spec, plan, schedule, prefetch)
    return GeneratedKernel(
        spec=spec,
        plan=plan,
        schedule=schedule,
        body=body,
        prologue=_emit_c_tile(spec, store=False),
        epilogue=_emit_c_tile(spec, store=True),
        prefetch=prefetch,
    )
