"""Compute-to-memory access ratios (paper Sec. III and IV).

These are the closed-form gamma expressions the paper derives for each layer
of GEBP:

- eq. (7)/(8): the register kernel — ``gamma = 2 / (1/nr + 1/mr)``;
- eq. (14): GESS/GEBS — ``gamma = 2 / (2/nr + 1/mr + 2/kc)``;
- eq. (16): GEBP — ``gamma = 2 / (2/nr + 1/mr + 2/kc + 2/mc)``.

All are flops per word moved, with the word counts the paper attributes to
each layer (A reloaded per nr-column, B resident, C updated once per kc).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BlockingError


def _require_positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if value <= 0:
            raise BlockingError(f"{name} must be positive, got {value}")


def register_kernel_ratio(mr: int, nr: int) -> float:
    """Eq. (8): compute-to-memory ratio of the register kernel.

    Per rank-1 update, ``2*mr*nr`` flops are performed while ``mr + nr``
    words move from the L1 cache to registers.
    """
    _require_positive(mr=mr, nr=nr)
    return 2.0 / (1.0 / nr + 1.0 / mr)


def gess_ratio(mr: int, nr: int, kc: int) -> float:
    """Eq. (14): compute-to-memory ratio of GESS (and GEBS).

    Adds the L2->L1 traffic of the A sliver and the C update amortized over
    ``kc`` rank-1 updates.
    """
    _require_positive(mr=mr, nr=nr, kc=kc)
    return 2.0 / (2.0 / nr + 1.0 / mr + 2.0 / kc)


def gebp_ratio(mr: int, nr: int, kc: int, mc: int) -> float:
    """Eq. (16): compute-to-memory ratio of the whole GEBP block-panel
    multiply, including the L3->L2 movement of the B panel amortized over
    ``mc`` rows."""
    _require_positive(mr=mr, nr=nr, kc=kc, mc=mc)
    return 2.0 / (2.0 / nr + 1.0 / mr + 2.0 / kc + 2.0 / mc)


@dataclass(frozen=True)
class RatioBreakdown:
    """All three layer ratios for one blocking configuration."""

    mr: int
    nr: int
    kc: int
    mc: int
    register_kernel: float
    gess: float
    gebp: float

    @staticmethod
    def for_blocking(mr: int, nr: int, kc: int, mc: int) -> "RatioBreakdown":
        return RatioBreakdown(
            mr=mr,
            nr=nr,
            kc=kc,
            mc=mc,
            register_kernel=register_kernel_ratio(mr, nr),
            gess=gess_ratio(mr, nr, kc),
            gebp=gebp_ratio(mr, nr, kc, mc),
        )
