"""A64 register model.

The 64-bit ARMv8 ISA defines 31 general-purpose registers ``x0``-``x30`` and
32 SIMD/FP registers ``v0``-``v31``, each 128 bits wide. A ``v`` register
holds two float64 lanes, addressed in FMLA-by-element form as ``vN.d[0]`` and
``vN.d[1]``; full-width loads name the same register as ``qN``.

Only what the DGEMM register kernel needs is modeled: register identity,
class, lane addressing, and a register-file container used by the pipeline
simulator for dependence tracking.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import AssemblyError

NUM_VECTOR_REGS = 32
NUM_GENERAL_REGS = 31
VECTOR_REG_BYTES = 16
DOUBLE_BYTES = 8
LANES_PER_VECTOR = VECTOR_REG_BYTES // DOUBLE_BYTES

_VREG_RE = re.compile(r"^(?:v|q|d)(\d+)(?:\.\w+)?$")
_XREG_RE = re.compile(r"^x(\d+)$")


@dataclass(frozen=True, order=True)
class VReg:
    """A SIMD/FP vector register ``v0``..``v31``."""

    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < NUM_VECTOR_REGS:
            raise AssemblyError(f"vector register index {self.index} out of range")

    def __str__(self) -> str:
        return f"v{self.index}"

    @property
    def q_name(self) -> str:
        """The 128-bit load/store name of this register (``q``-form)."""
        return f"q{self.index}"

    def lane(self, lane: int) -> "VLane":
        """The float64 lane ``vN.d[lane]`` of this register."""
        return VLane(self, lane)

    def as_2d(self) -> str:
        """The full-vector arrangement name ``vN.2d``."""
        return f"v{self.index}.2d"


@dataclass(frozen=True, order=True)
class VLane:
    """One float64 lane ``vN.d[i]`` of a vector register."""

    reg: VReg
    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < LANES_PER_VECTOR:
            raise AssemblyError(f"lane index {self.index} out of range")

    def __str__(self) -> str:
        return f"{self.reg}.d[{self.index}]"


@dataclass(frozen=True, order=True)
class XReg:
    """A general-purpose 64-bit register ``x0``..``x30``.

    In the register kernel these hold the packed-buffer pointers (the paper's
    snippet uses ``x14`` for A and ``x15`` for B).
    """

    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < NUM_GENERAL_REGS:
            raise AssemblyError(f"general register index {self.index} out of range")

    def __str__(self) -> str:
        return f"x{self.index}"


def parse_vreg(text: str) -> VReg:
    """Parse ``v3``, ``q3``, ``d3``, ``v3.2d`` or ``v3.d`` into a :class:`VReg`."""
    m = _VREG_RE.match(text.strip())
    if not m:
        raise AssemblyError(f"not a vector register: {text!r}")
    return VReg(int(m.group(1)))


def parse_xreg(text: str) -> XReg:
    """Parse ``x14`` into an :class:`XReg`."""
    m = _XREG_RE.match(text.strip())
    if not m:
        raise AssemblyError(f"not a general register: {text!r}")
    return XReg(int(m.group(1)))

