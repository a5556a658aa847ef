"""Functional execution of generated register kernels.

Bridges the code generator and the ISA executor: lay out packed A/B
slivers and a C tile in executor memory exactly as GEBP would, preload the
copy-0 registers per the rotation plan, run the unrolled body ``kc/unroll``
times, and read the C tile back. The result must equal
``C + A_sliver^T_packed @ B_sliver`` — the ground-truth check that the
emitted assembly (rotation, scheduling, register assignment, pointer
bookkeeping) is *semantically* correct, not merely well-counted.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.errors import SimulationError
from repro.isa.executor import Executor, MachineState, Memory
from repro.isa.registers import DOUBLE_BYTES, LANES_PER_VECTOR
from repro.kernels.codegen import (
    A_POINTER,
    B_POINTER,
    C_POINTER,
    GeneratedKernel,
)
from repro.kernels.rotation import slot_read_positions

A_BASE = 0x10000
B_BASE = 0x40000
C_BASE = 0x80000


def padded_stream_widths(spec) -> "tuple[int, int]":
    """Doubles per k-iteration of the packed A/B streams in memory.

    By-element kernels load whole q-registers per column/row group, so an
    odd tile is stored lane-padded: ``2 * ceil(mr/2)`` doubles per A row
    (the pad lane multiplies into a discarded C row) and likewise for B.
    Even tiles pad to themselves, preserving the original layout.
    """
    return (
        LANES_PER_VECTOR * spec.a_regs_per_copy,
        LANES_PER_VECTOR * spec.b_regs_per_copy,
    )


def _body_load_targets(kernel: GeneratedKernel):
    """For each load of the body, the k-iteration its data belongs to
    (relative to the body's first copy), plus the set of slots whose
    copy-0 value must be preloaded.

    A load for value copy ``v`` placed *before* copy ``v``'s first
    consuming FMLA serves the current body (k = v); placed after, it
    serves the next body (k = v + unroll). Slots whose copy-0 load is not
    in-body-before-use must be preloaded by the caller.
    """
    spec = kernel.spec
    reads = slot_read_positions(spec)
    ops = kernel.schedule.ops
    # Position of each copy's first FMLA reading each slot.
    fmla_pos = {}
    for idx, op in enumerate(ops):
        if op.kind == "fmla":
            fmla_pos[(op.copy, op.fmla_index)] = idx

    targets = []  # (op_index, slot, k_offset)
    preload = set(spec.slot_names())
    for idx, op in enumerate(ops):
        if op.kind != "ldr":
            continue
        first_read = reads[op.slot].first
        use_idx = fmla_pos[(op.value_copy, first_read)]
        in_body = idx < use_idx
        k_off = op.value_copy + (0 if in_body else kernel.plan.unroll)
        targets.append((idx, op.slot, k_off))
        if op.value_copy == 0 and in_body:
            preload.discard(op.slot)
    return targets, preload


def execute_micro_tile(
    kernel: GeneratedKernel,
    a_sliver: "np.ndarray",
    b_sliver: "np.ndarray",
    c_tile: Optional["np.ndarray"] = None,
) -> "np.ndarray":
    """Run the generated kernel on one micro-tile.

    Args:
        kernel: A generated (by-element) kernel. Odd tiles run in the
            lane-padded layout of :func:`padded_stream_widths`: the pad
            lanes hold zeros, multiply into discarded C rows, and are
            sliced off the returned tile.
        a_sliver: Packed A sliver, shape ``(kc, mr)`` — ``a_sliver[k, i]``
            is the element of row ``i`` at depth ``k``.
        b_sliver: Packed B sliver, shape ``(kc, nr)``.
        c_tile: Initial ``mr x nr`` C tile (zeros when omitted).

    Returns:
        The updated ``mr x nr`` C tile.
    """
    memory = Memory()
    state = MachineState()
    return drive_by_element(
        kernel, a_sliver, b_sliver, c_tile, memory, state,
        Executor(state, memory).run,
    )


def drive_by_element(
    kernel: GeneratedKernel,
    a_sliver: "np.ndarray",
    b_sliver: "np.ndarray",
    c_tile: Optional["np.ndarray"],
    memory: Memory,
    state: MachineState,
    run: Callable[..., None],
) -> "np.ndarray":
    """The body of :func:`execute_micro_tile`: lay the operands out in
    ``memory``, drive prologue, bodies and epilogue through
    ``run(program, times=1)`` on ``state`` and read the C tile back.

    The timed interpreter (:mod:`repro.sim.timed_executor`) passes a
    ``run`` that also times every instruction it executes.
    """
    spec = kernel.spec
    mr, nr = spec.mr, spec.nr
    pw_a, pw_b = padded_stream_widths(spec)
    kc, mr_in = a_sliver.shape
    kc_b, nr_in = b_sliver.shape
    if (mr_in, nr_in) != (mr, nr) or kc != kc_b:
        raise SimulationError(
            f"sliver shapes {a_sliver.shape}/{b_sliver.shape} do not match "
            f"the {mr}x{nr} kernel"
        )
    unroll = kernel.plan.unroll
    if kc % unroll:
        raise SimulationError(f"kc={kc} must be a multiple of unroll={unroll}")

    # Memory image: packed slivers in the lane-padded layout, padded by
    # one unroll of zero rows (the last body's lookahead loads read them;
    # their values are never consumed).
    a_padded = np.zeros((kc + unroll, pw_a))
    a_padded[:kc, :mr] = a_sliver
    b_padded = np.zeros((kc + unroll, pw_b))
    b_padded[:kc, :nr] = b_sliver
    memory.map_region(A_BASE, a_padded)
    memory.map_region(B_BASE, b_padded)
    c0 = (
        np.zeros((mr, nr)) if c_tile is None else np.asarray(c_tile, float)
    )
    if c0.shape != (mr, nr):
        raise SimulationError(f"C tile must be {mr}x{nr}")
    # Column-major tile buffer, rows lane-padded like the A stream.
    c_padded = np.zeros((pw_a, nr))
    c_padded[:mr, :] = c0
    memory.map_region(C_BASE, c_padded.T.copy())

    # Prologue: load the C tile into its pinned registers.
    state.set_pointer(C_POINTER, C_BASE)
    run(kernel.prologue)

    # Preload the values the body does not load for itself, and point the
    # stream registers at the first value each body load will consume.
    plan = kernel.plan
    targets, preload = _body_load_targets(kernel)
    for slot in preload:
        reg = plan.register_for(slot, 0)
        idx = int(slot[1:])
        src = a_padded if slot[0] == "A" else b_padded
        state.vregs[reg][:] = src[0, 2 * idx : 2 * idx + 2]

    first = {"A": None, "B": None}
    expected = {"A": None, "B": None}
    for _op_idx, slot, k_off in targets:
        stream = slot[0]
        width = pw_a if stream == "A" else pw_b
        base = A_BASE if stream == "A" else B_BASE
        addr = base + (k_off * width + 2 * int(slot[1:])) * DOUBLE_BYTES
        if first[stream] is None:
            first[stream] = addr
        elif addr != expected[stream]:
            raise SimulationError(
                f"{stream}-stream loads are not address-sequential; "
                "post-indexed execution would read the wrong data"
            )
        expected[stream] = addr + 2 * DOUBLE_BYTES
    if first["A"] is not None:
        state.set_pointer(A_POINTER, first["A"])
    if first["B"] is not None:
        state.set_pointer(B_POINTER, first["B"])

    run(kernel.body, times=kc // unroll)

    # Epilogue: store the C tile back.
    state.set_pointer(C_POINTER, C_BASE)
    run(kernel.epilogue)

    return memory.region_at(C_BASE).reshape(nr, pw_a).T[:mr, :].copy()
