"""Calibrated load/FMA interference (overlap) model.

The paper's Sec. III model bounds execution time as
``T <= F*mu + (1+kappa)*W*pi*psi(gamma)`` where ``psi`` is a monotonically
decreasing *overlapping factor* of the compute-to-memory ratio ``gamma``.
The paper determines the realized overlap empirically, by
micro-benchmarking LDR:FMLA mixes whose data stays in the L1 cache
(Table IV), and treats the resulting efficiencies as upper bounds for the
DGEMM implementations.

We do the same. :class:`LoadInterferenceModel` expresses the non-overlapped
cost of one 128-bit load as ``lam * x**sigma`` core cycles, where
``x = L / (L + F)`` is the load density of the instruction mix. The two
constants are calibrated once against the published Table IV ladder
(lam = 2.0 core cycles = 1 FMLA slot, sigma = 0.77 reproduce all seven
published points within ~1.4 percentage points); they are architecture
constants of the modeled
chip, not per-experiment fudge factors — every kernel variant, block size
and thread count is evaluated through the same two numbers.

In the paper's notation: ``gamma = flops/words = 2*FMLA/LDR`` for this ISA
(each FMLA is 4 flops, each LDR moves 2 words), ``x = 2/(2+gamma)``, and
``psi(gamma) = x**sigma`` — decreasing in gamma exactly as required, with
``psi -> 1`` as ``gamma -> 0`` (for lam = 1) and ``psi -> 0`` as
``gamma -> inf``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError

#: Default calibration (see module docstring). ``lam`` is expressed in real
#: core cycles; one vector FMLA occupies the FMA pipe for
#: ``fma_occupancy = 2`` cycles on this core (4.8 Gflops at 2.4 GHz), so a
#: per-load stall of 2 cycles at density 1 equals one full FMLA slot.
DEFAULT_LAMBDA = 2.0
DEFAULT_SIGMA = 0.77
DEFAULT_FMA_OCCUPANCY = 2.0


@dataclass(frozen=True)
class LoadInterferenceModel:
    """Non-overlapped load cost as a function of instruction-mix density.

    Attributes:
        lam: Peak per-load stall in core cycles (at load density 1).
        sigma: Density exponent; higher means overlap improves faster as
            loads become sparser.
        fma_occupancy: Core cycles one vector FMLA occupies the FMA pipe.
    """

    lam: float = DEFAULT_LAMBDA
    sigma: float = DEFAULT_SIGMA
    fma_occupancy: float = DEFAULT_FMA_OCCUPANCY

    def load_density(self, loads: float, fmas: float) -> float:
        """Load density ``x = L / (L + F)`` of a mix."""
        if loads < 0 or fmas < 0 or loads + fmas == 0:
            raise SimulationError("need a non-empty, non-negative mix")
        return loads / (loads + fmas)

    def stall_per_load(self, loads: float, fmas: float) -> float:
        """Non-overlapped FMA-pipe cycles charged per load."""
        if loads == 0:
            return 0.0
        return self.lam * self.load_density(loads, fmas) ** self.sigma

    def cycles(self, loads: float, fmas: float) -> float:
        """Total core cycles for a mix: compute + non-overlapped loads."""
        return fmas * self.fma_occupancy + loads * self.stall_per_load(
            loads, fmas
        )

    def efficiency(self, loads: float, fmas: float) -> float:
        """Fraction of FMA peak achieved by the mix (Table IV's metric)."""
        if fmas == 0:
            return 0.0
        return fmas * self.fma_occupancy / self.cycles(loads, fmas)

    def psi(self, gamma: float) -> float:
        """The paper's overlapping factor psi(gamma) (Sec. III, eq. (4)).

        Normalized so that ``psi -> lam/fma_occupancy = 1`` as
        ``gamma -> 0`` and ``psi -> 0`` as ``gamma -> inf``.
        """
        if gamma <= 0:
            raise SimulationError("gamma must be positive")
        x = 2.0 / (2.0 + gamma)
        return self.lam * x**self.sigma / self.fma_occupancy
