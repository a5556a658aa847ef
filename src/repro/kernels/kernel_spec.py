"""Register-kernel specifications.

A :class:`KernelSpec` describes an ``mr x nr`` register kernel in terms the
generator and the performance model both consume: how many vector registers
hold the C tile, how many cycle through A and B, how many FMLA and LDR
instructions one rank-1 update (one k-iteration) needs, and the zig-zag
read schedule of the A/B registers inside one unrolled copy.

Two vectorization styles are modeled:

- ``BY_ELEMENT`` (the paper's kernels): columns of C are updated with
  by-element FMLAs (``fmla vd.2d, vn.2d, vm.d[i]``); rank-1 update per
  k-iteration; requires even mr/nr to avoid wasting lanes (eq. (11)).
- ``K_VECTORIZED`` (the ATLAS 5x5 comparison kernel of [11]): odd tiles
  cannot use by-element FMLAs without losing half the boundary lanes, so
  the kernel vectorizes along k instead — a rank-2 update per *group* of
  two k-iterations using full-vector FMLAs, holding two-lane partial sums
  per C element. No lanes are wasted, but the C tile needs mr*nr whole
  registers (25 for 5x5), leaving only a 7-register pool for the 10
  streaming A/B values per group — the short-preload-window handicap the
  simulator charges it for.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import BlockingError
from repro.model.ratios import register_kernel_ratio

#: float64 lanes per 128-bit NEON register.
LANES = 2


class KernelStyle(enum.Enum):
    """How the register kernel maps the tile onto NEON lanes."""

    BY_ELEMENT = "by-element"
    K_VECTORIZED = "k-vectorized"


@dataclass(frozen=True)
class KernelSpec:
    """Shape and instruction budget of one register kernel.

    Attributes:
        mr: Rows of the register tile.
        nr: Columns of the register tile.
        name: Display name, e.g. ``"8x6"``.
        rotated: Whether software register rotation is applied (Fig. 13's
            ablation turns this off).
        style: Lane-mapping style (see module docstring).
    """

    mr: int
    nr: int
    name: str = ""
    rotated: bool = True
    style: KernelStyle = KernelStyle.BY_ELEMENT

    def __post_init__(self) -> None:
        if self.mr < 1 or self.nr < 1:
            raise BlockingError("mr and nr must be >= 1")
        if not self.name:
            object.__setattr__(self, "name", f"{self.mr}x{self.nr}")

    # -- register budget ------------------------------------------------------

    @property
    def a_regs_per_copy(self) -> int:
        """Vector registers holding one mr x 1 column of A (lane-padded)."""
        return -(-self.mr // LANES)

    @property
    def b_regs_per_copy(self) -> int:
        """Vector registers holding one 1 x nr row of B (lane-padded)."""
        return -(-self.nr // LANES)

    @property
    def ab_regs_per_copy(self) -> int:
        """A/B registers live in one unrolled copy (7 for 8x6)."""
        return self.a_regs_per_copy + self.b_regs_per_copy

    @property
    def c_regs(self) -> int:
        """Vector registers pinned to the C tile.

        Rows are lane-padded: an odd mr wastes one lane per column.
        """
        return self.a_regs_per_copy * self.nr

    def fits_register_file(self, nf: int = 32) -> bool:
        """C tile + two copies' worth of A/B minus reuse must fit in nf.

        The paper's working set is ``c_regs`` pinned registers plus a pool
        of at least ``ab_regs_per_copy + 1`` rotating registers.
        """
        return self.c_regs + self.ab_regs_per_copy + 1 <= nf

    @property
    def rotation_pool(self) -> int:
        """Registers available for the rotating A/B pool (8 for 8x6)."""
        return self.ab_regs_per_copy + 1

    # -- per-k-group instruction counts ----------------------------------------
    #
    # A "group" is the kernel's natural update unit: one k-iteration for
    # by-element kernels (rank-1 update), two for k-vectorized kernels
    # (rank-2 update with two-lane partial sums).

    @property
    def k_iters_per_group(self) -> int:
        """k-iterations per update group (1 by-element, 2 k-vectorized)."""
        return 1 if self.style is KernelStyle.BY_ELEMENT else LANES

    @property
    def fmla_per_group(self) -> int:
        """FMLA instructions per update group."""
        if self.style is KernelStyle.BY_ELEMENT:
            return self.a_regs_per_copy * self.nr
        return self.mr * self.nr  # one full-vector FMLA per C element

    @property
    def ldr_per_group(self) -> int:
        """128-bit loads per update group."""
        if self.style is KernelStyle.BY_ELEMENT:
            return self.a_regs_per_copy + self.b_regs_per_copy
        return self.mr + self.nr  # one q-load per row/column, 2 k deep

    @property
    def flops_per_group(self) -> int:
        """Useful flops per update group."""
        return 2 * self.mr * self.nr * self.k_iters_per_group

    # -- per-k-iteration views (by-element kernels; group == iteration) --------

    @property
    def fmla_per_iter(self) -> int:
        """FMLA instructions per rank-1 update (24 for 8x6).

        Only meaningful for by-element kernels, whose group is one
        iteration; k-vectorized counts are exposed per group.
        """
        return self.fmla_per_group if self.k_iters_per_group == 1 else (
            self.fmla_per_group // self.k_iters_per_group
        )

    @property
    def ldr_per_iter(self) -> int:
        """128-bit loads per rank-1 update (7 for 8x6); per-group share
        for k-vectorized kernels."""
        return self.ldr_per_group if self.k_iters_per_group == 1 else (
            self.ldr_per_group // self.k_iters_per_group
        )

    @property
    def flops_per_iter(self) -> int:
        """Useful flops per rank-1 update: 2 * mr * nr."""
        return 2 * self.mr * self.nr

    @property
    def preload_window_limited(self) -> bool:
        """True when the C tile leaves too few pool registers to preload a
        whole group ahead (the k-vectorized 5x5's handicap)."""
        free = 32 - self.c_regs_for_style
        return free < self.ldr_per_group

    @property
    def c_regs_for_style(self) -> int:
        """Registers pinned to C under the kernel's style."""
        if self.style is KernelStyle.BY_ELEMENT:
            return self.c_regs
        return self.mr * self.nr  # two-lane partial sum per element

    @property
    def gamma(self) -> float:
        """Eq. (8) compute-to-memory ratio of this tile."""
        return register_kernel_ratio(self.mr, self.nr)

    @property
    def ldr_fmla_ratio(self) -> Tuple[int, int]:
        """Reduced LDR:FMLA ratio, Table IV's row label (7:24 for 8x6)."""
        from math import gcd

        g = gcd(self.ldr_per_group, self.fmla_per_group)
        return (self.ldr_per_group // g, self.fmla_per_group // g)

    @property
    def arithmetic_fraction(self) -> float:
        """Sec. V-A's percentage of arithmetic instructions."""
        f, l = self.fmla_per_group, self.ldr_per_group
        return f / (f + l)

    # -- read schedule ---------------------------------------------------------

    def read_schedule(self) -> List[Tuple[str, int]]:
        """The zig-zag FMLA order of one copy as (operand, slot) per read.

        Each FMLA reads one A slot (register index within the copy's A
        group) and one B slot. The kernel walks row-pairs of C, covering
        all nr columns per row-pair (Figs. 6/7), so FMLA ``i`` reads
        ``("A", i // nr)`` and ``("B", (i % nr) // LANES)``.

        Returns a list of length ``2 * fmla_per_iter`` with the A and B
        read of each FMLA in order.
        """
        reads: List[Tuple[str, int]] = []
        for i in range(self.fmla_per_iter):
            reads.append(("A", i // self.nr))
            reads.append(("B", (i % self.nr) // LANES))
        return reads

    def slot_names(self) -> List[str]:
        """Stable names of the copy's A/B value slots, A first."""
        names = [f"A{i}" for i in range(self.a_regs_per_copy)]
        names += [f"B{i}" for i in range(self.b_regs_per_copy)]
        return names


#: The four kernels evaluated in the paper's Sec. V.
KERNEL_8X6 = KernelSpec(8, 6, "8x6")
KERNEL_8X4 = KernelSpec(8, 4, "8x4")
KERNEL_4X4 = KernelSpec(4, 4, "4x4")
KERNEL_5X5_ATLAS = KernelSpec(
    5, 5, "5x5-atlas", style=KernelStyle.K_VECTORIZED
)
#: The Fig. 13 ablation kernel: 8x6 without software register rotation.
KERNEL_8X6_NO_ROTATION = KernelSpec(8, 6, "8x6-noRR", rotated=False)

PAPER_KERNELS = (KERNEL_8X6, KERNEL_8X4, KERNEL_4X4, KERNEL_5X5_ATLAS)
