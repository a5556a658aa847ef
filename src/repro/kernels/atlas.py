"""The ATLAS-style k-vectorized 5x5 register kernel, as real instructions.

ATLAS's comparison kernel ([11] in the paper) uses an odd 5x5 tile, which
cannot use by-element NEON FMLAs without wasting lanes. The viable
vectorization is along **k**: each 128-bit register holds two consecutive
k-iterations, every C element keeps a two-lane partial sum, and a
``faddp`` epilogue folds the partial sums before storing C.

Register budget on A64 (32 v-registers):

- 25 pinned partial-sum registers (``v7``-``v31``) — one per C element;
- a 7-register pool (``v0``-``v6``): the 5 A values of the current group
  are pinned for the whole group (each is read in all 5 column bursts),
  leaving only **2** registers to double-buffer the B stream.

Consequences, visible on the scoreboard: B values can be preloaded one
burst ahead (fine), but the next group's A values can only be loaded
*after* the current group's last burst — five loads crammed into the
group boundary with short load-to-use distances. That is the structural
penalty the cost model charges ATLAS for
(``KernelSpec.preload_window_limited``), derived here from an actual
instruction sequence.

The kernel is fully functional: :func:`build_kvec_variant` packages it
for :func:`repro.kernels.execute.execute_micro_tile`, whose k-vectorized
driver runs it through the ISA executor and must reproduce
``C += A^T @ B`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.isa.instructions import Faddp, FmlaVec, Ldr, Str
from repro.isa.program import Program
from repro.isa.registers import VReg, XReg

MR = 5
NR = 5
#: k-iterations per update group (two lanes of partial sums).
K_GROUP = 2

A_POINTER = XReg(14)
B_POINTER = XReg(15)
C_POINTER = XReg(16)

#: Pool: A values pinned in v0..v4 for the group, B double-buffered in
#: v5/v6. C partial sums in v7..v31 (column-major: c[i][j] = v(7+5j+i)).
A_REGS = [VReg(i) for i in range(5)]
B_REGS = [VReg(5), VReg(6)]


def c_reg(i: int, j: int) -> VReg:
    """Partial-sum register of C element (i, j)."""
    return VReg(7 + 5 * j + i)


@dataclass(frozen=True)
class AtlasKernel:
    """The generated k-vectorized kernel.

    Attributes:
        body: One group's instructions (25 fmla + 10 ldr), steady state.
        epilogue: faddp reduction + C stores (tile padded to 6 rows).
        groups_per_body: k-iterations advanced per body pass (2).
    """

    body: Program
    epilogue: Program
    groups_per_body: int = K_GROUP


def build_atlas_kernel() -> AtlasKernel:
    """Emit the steady-state group body and the reduction epilogue."""
    body = Program(name="atlas-5x5-kvec-body")
    # Five column bursts; B double-buffers through v5/v6; the burst for
    # column j uses B_REGS[j % 2] and preloads column j+1 into the other.
    for j in range(NR):
        if j < NR - 1:
            body.append(
                Ldr(dst=B_REGS[(j + 1) % 2], base=B_POINTER, tag="B")
            )
        for i in range(MR):
            body.append(
                FmlaVec(
                    acc=c_reg(i, j),
                    multiplicand=A_REGS[i],
                    multiplier=B_REGS[j % 2],
                )
            )
    # Group boundary: reload all five A values for the next group (the
    # 7-register pool leaves no room to do this earlier), then the next
    # group's first B column.
    for i in range(MR):
        body.append(Ldr(dst=A_REGS[i], base=A_POINTER, tag="A"))
    body.append(Ldr(dst=B_REGS[0], base=B_POINTER, tag="B"))

    # Epilogue: fold two-lane partial sums pairwise down each column and
    # store. Rows are processed in pairs, the 5th row paired with a
    # zeroed scratch lane (the C tile buffer is padded to 6 rows).
    epilogue = Program(name="atlas-5x5-kvec-epilogue")
    zero = VReg(0)  # A regs are dead after the k-loop; reuse as scratch
    for j in range(NR):
        for i in range(0, MR - 1, 2):
            epilogue.append(
                Faddp(dst=c_reg(i, j), first=c_reg(i, j),
                      second=c_reg(i + 1, j))
            )
            epilogue.append(Str(src=c_reg(i, j), base=C_POINTER, tag="C"))
        # Row 4 pairs with the zero scratch register.
        epilogue.append(
            Faddp(dst=c_reg(4, j), first=c_reg(4, j), second=zero)
        )
        epilogue.append(Str(src=c_reg(4, j), base=C_POINTER, tag="C"))
    return AtlasKernel(body=body, epilogue=epilogue)


@dataclass(frozen=True)
class _KVecPlan:
    """Duck-typed stand-in for a rotation plan: the kernel is statically
    assigned, so the only consumed fields are the unroll depth and the
    (cyclic) minimum register write-reuse distance of the body."""

    unroll: int
    min_distance: int


@dataclass(frozen=True)
class _KVecSchedule:
    """Duck-typed stand-in for a body schedule."""

    min_load_use_distance: int


@dataclass(frozen=True)
class KVecKernel:
    """The ATLAS kernel in the generated-kernel interface.

    Duck-types :class:`~repro.kernels.codegen.GeneratedKernel` closely
    enough for the timed executor, the compiled engine and the CLI:
    ``prologue`` is the A/B preamble (six loads priming group 0),
    ``body`` one steady-state group, ``epilogue`` the ``faddp`` fold +
    C stores.
    """

    spec: object
    prologue: Program
    body: Program
    epilogue: Program
    plan: _KVecPlan
    schedule: _KVecSchedule


def _cyclic_min_load_use_distance(body: Program) -> int:
    """Min instruction distance from a body load to its first consumer,
    treating the body as cyclic (the A reloads feed the next pass)."""
    instrs = list(body)
    n = len(instrs)
    best = n
    for idx, instr in enumerate(instrs):
        if not instr.is_load:
            continue
        for d in range(1, n + 1):
            if instr.dst in instrs[(idx + d) % n].reads():
                best = min(best, d)
                break
    return best


def _cyclic_min_write_reuse_distance(body: Program) -> int:
    """Min cyclic distance between consecutive writes of one register —
    the analogue of a rotation plan's reuse distance."""
    instrs = list(body)
    n = len(instrs)
    last_writer: dict = {}
    first_writer: dict = {}
    best = n
    for idx, instr in enumerate(instrs):
        for reg in instr.writes():
            if reg in last_writer:
                best = min(best, idx - last_writer[reg])
            else:
                first_writer[reg] = idx
            last_writer[reg] = idx
    for reg, idx in first_writer.items():
        best = min(best, idx + n - last_writer[reg])
    return best


def build_kvec_variant() -> KVecKernel:
    """The ATLAS kernel packaged for the timed/compiled engines.

    Memoized: the kernel has no kc-dependent prefetch distances, so one
    instance serves every blocking depth (and the compiled engine's
    id-keyed cache hits across calls).
    """
    global _KVEC_VARIANT
    if _KVEC_VARIANT is None:
        from repro.kernels.kernel_spec import KERNEL_5X5_ATLAS

        kernel = build_atlas_kernel()
        preamble = Program(name="atlas-5x5-kvec-preamble")
        for i in range(MR):
            preamble.append(Ldr(dst=A_REGS[i], base=A_POINTER, tag="A"))
        preamble.append(Ldr(dst=B_REGS[0], base=B_POINTER, tag="B"))
        _KVEC_VARIANT = KVecKernel(
            spec=KERNEL_5X5_ATLAS,
            prologue=preamble,
            body=kernel.body,
            epilogue=kernel.epilogue,
            plan=_KVecPlan(
                unroll=K_GROUP,
                min_distance=_cyclic_min_write_reuse_distance(kernel.body),
            ),
            schedule=_KVecSchedule(
                min_load_use_distance=_cyclic_min_load_use_distance(
                    kernel.body
                )
            ),
        )
    return _KVEC_VARIANT


_KVEC_VARIANT: Optional[KVecKernel] = None
