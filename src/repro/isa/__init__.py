"""A64 instruction-set subset: registers, instructions, assembler, programs."""

from repro.isa.assembler import format_program, parse_line, parse_program
from repro.isa.instructions import (
    Faddp,
    Fmla,
    FmlaVec,
    Instruction,
    Ldr,
    Mnemonic,
    Nop,
    PrefetchTarget,
    Prfm,
    Str,
)
from repro.isa.program import Program
from repro.isa.registers import (
    DOUBLE_BYTES,
    LANES_PER_VECTOR,
    NUM_GENERAL_REGS,
    NUM_VECTOR_REGS,
    VECTOR_REG_BYTES,
    VLane,
    VReg,
    XReg,
    parse_vreg,
    parse_xreg,
)

__all__ = [
    "Fmla",
    "FmlaVec",
    "Faddp",
    "Instruction",
    "Ldr",
    "Mnemonic",
    "Nop",
    "PrefetchTarget",
    "Prfm",
    "Str",
    "Program",
    "VLane",
    "VReg",
    "XReg",
    "parse_vreg",
    "parse_xreg",
    "parse_line",
    "parse_program",
    "format_program",
    "NUM_VECTOR_REGS",
    "NUM_GENERAL_REGS",
    "VECTOR_REG_BYTES",
    "DOUBLE_BYTES",
    "LANES_PER_VECTOR",
]
