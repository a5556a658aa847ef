"""Enumeration of the kernel-synthesis search space.

A search point — a :class:`Candidate` — fixes everything the code
generator and the blocking need to build one GEBP configuration:

- the register tile ``(mr, nr)``, drawn from the eq. (8)-(11)
  feasibility enumeration and filtered to tiles the code generator can
  realize (``KernelSpec.fits_register_file``);
- the register-rotation scheme (``solved`` exhaustive optimum, the
  paper's Table I ``paper`` cycle, the naive ``ring`` cycle, or the
  un-rotated ``static`` layout);
- the issue-schedule strategy (``earliest``, the eq. (13) optimum, or
  ``latest``, the unscheduled ablation);
- the cache blocking ``(kc, mc, nc)`` from a neighborhood around the
  analytic :func:`~repro.blocking.cache_blocking.solve_cache_blocking`
  solution, with the solver's ways-reservation ``(k1, k2, k3)``.

Enumeration is exhaustive over the gated cross product, deduplicated,
and in one canonical order (best tile first, each neighborhood centre
first), so a stable sort of scored candidates breaks ties toward the
analytic solution. :func:`~repro.tune.search.tune_search` shuffles its
copy by the search ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.arch.params import ChipParams
from repro.blocking.cache_blocking import CacheBlocking, solve_cache_blocking
from repro.blocking.register_blocking import RegisterBlockingProblem
from repro.errors import BlockingError
from repro.kernels.kernel_spec import KernelSpec
from repro.serve.query import resolve_machine

__all__ = [
    "ROTATIONS",
    "SCHEDULES",
    "Candidate",
    "enumerate_candidates",
]

#: Register-rotation schemes the enumerator knows how to realize.
ROTATIONS = ("solved", "paper", "ring", "static")

#: Issue-schedule strategies of :func:`repro.kernels.scheduling.schedule_body`.
SCHEDULES = ("earliest", "latest")


def candidate_tiles(
    chip: ChipParams, max_candidates: Optional[int] = None
) -> List[Tuple[int, int]]:
    """Distinct realizable (mr, nr) register tiles, best first.

    Tiles come from the eq. (8)-(11) feasibility enumeration, ordered by
    the analytic solver's tie-breakers (gamma descending, then
    cache-line-aligned mr, then larger mr), each pair once however many
    nrf choices admit it. Tiles the code generator cannot realize are
    dropped: eq. (9) alone admits tiles like 12x4 whose C block leaves
    no room for the rotation pool in the register file.
    """
    problem = RegisterBlockingProblem.from_core(chip.core)
    nf = chip.core.fp_registers
    line_doubles = chip.l1d.line_bytes // 8

    def sort_key(t):
        return (t.gamma, t.mr % line_doubles == 0, t.mr)

    seen: Set[Tuple[int, int]] = set()
    out: List[Tuple[int, int]] = []
    for t in sorted(problem.feasible_tiles(), key=sort_key, reverse=True):
        pair = (t.mr, t.nr)
        if pair in seen or not KernelSpec(*pair).fits_register_file(nf):
            continue
        seen.add(pair)
        out.append(pair)
        if max_candidates is not None and len(out) >= max_candidates:
            break
    return out


def neighborhood(
    value: int, step: int, multiple: int, radius: int = 1
) -> List[int]:
    """The analytic value plus ``radius`` steps either side, floored to a
    multiple and deduplicated (center first, then outward)."""
    if radius < 0:
        raise BlockingError("neighborhood radius must be >= 0")
    seen: Set[int] = set()
    out: List[int] = []
    offsets = [0]
    for r in range(1, radius + 1):
        offsets.extend((-r, r))
    for off in offsets:
        v = max(multiple, ((value + off * step) // multiple) * multiple)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


@dataclass(frozen=True)
class Candidate:
    """One fully-specified point of the search space."""

    mr: int
    nr: int
    rotation: str
    schedule: str
    kc: int
    mc: int
    nc: int
    k1: int
    k2: int
    k3: int

    @property
    def rotated(self) -> bool:
        return self.rotation != "static"

    def spec(self) -> KernelSpec:
        """The kernel shape this candidate generates code for."""
        return KernelSpec(self.mr, self.nr, rotated=self.rotated)

    def blocking(self) -> CacheBlocking:
        """The cache blocking this candidate runs under."""
        return CacheBlocking(
            mr=self.mr, nr=self.nr, kc=self.kc, mc=self.mc, nc=self.nc,
            k1=self.k1, k2=self.k2, k3=self.k3,
        )

    def doc(self) -> Dict[str, Any]:
        """Plain-JSON description (stable field order via sorted dumps)."""
        return {
            "mr": self.mr, "nr": self.nr,
            "rotation": self.rotation, "schedule": self.schedule,
            "kc": self.kc, "mc": self.mc, "nc": self.nc,
            "k1": self.k1, "k2": self.k2, "k3": self.k3,
        }

    # -- memoization class keys ---------------------------------------------

    def analytic_class(self) -> Tuple[Any, ...]:
        """Candidates sharing this tuple have identical analytic scores.

        The Sec. III/IV cost model sees the tile shape, whether the
        kernel rotates (the prefetch-hide class), and the blocking — but
        not the concrete rotation cycle or issue schedule.
        """
        return (self.mr, self.nr, self.rotated,
                self.kc, self.mc, self.nc, self.k1, self.k2, self.k3)

    def timed_class(self) -> Tuple[Any, ...]:
        """Candidates sharing this tuple have identical timed runs.

        The compiled timed engine executes the generated kernel on
        packed panels whose depth the evaluator fixes independently of
        the candidate's ``kc``, so only the code-shape fields matter.
        """
        return (self.mr, self.nr, self.rotation, self.schedule)


def _rotations_for(spec: KernelSpec, rotations: Sequence[str]) -> List[str]:
    out: List[str] = []
    for rotation in rotations:
        if rotation not in ROTATIONS:
            raise BlockingError(
                f"unknown rotation scheme {rotation!r}; "
                f"choose from {list(ROTATIONS)}"
            )
        if rotation == "paper" and spec.rotation_pool != 8:
            continue  # the Table I cycle only exists for the 8-slot pool
        if rotation == "solved" and spec.rotation_pool > 8:
            continue  # exhaustive (pool-1)! search is gated to tractable pools
        out.append(rotation)
    return out


def enumerate_candidates(
    machine: Any = "xgene",
    threads: int = 1,
    max_tiles: int = 4,
    rotations: Sequence[str] = ROTATIONS,
    schedules: Sequence[str] = SCHEDULES,
    radius: int = 1,
) -> List[Candidate]:
    """Enumerate the gated search space for ``machine``.

    Args:
        machine: Preset name (``"xgene"``, ``"mobile"``) or a machine
            document in the :mod:`repro.verify.machines` schema.
        threads: Thread count the blocking solver targets.
        max_tiles: How many top-gamma register tiles to explore.
        rotations: Rotation schemes to include (subset of
            :data:`ROTATIONS`); infeasible scheme/tile pairs are gated
            out per tile.
        schedules: Issue-schedule strategies (subset of
            :data:`SCHEDULES`).
        radius: Blocking-neighborhood radius in solver steps per axis.

    Returns:
        Deduplicated candidate list in canonical order: tiles best
        first, then each blocking neighborhood centre first, then the
        rotation and schedule gates in the order given.
    """
    for schedule in schedules:
        if schedule not in SCHEDULES:
            raise BlockingError(
                f"unknown schedule strategy {schedule!r}; "
                f"choose from {list(SCHEDULES)}"
            )
    _, chip = resolve_machine(machine)
    seen: Set[Candidate] = set()
    out: List[Candidate] = []
    for mr, nr in candidate_tiles(chip, max_tiles):
        try:
            base = solve_cache_blocking(chip, mr, nr, threads=threads)
        except BlockingError:
            continue
        schemes = _rotations_for(KernelSpec(mr, nr, rotated=True), rotations)
        for kc in neighborhood(base.kc, 128, 64, radius):
            for mc in neighborhood(base.mc, 2 * mr, mr, radius):
                for nc in neighborhood(base.nc, 16 * nr, nr, radius):
                    for rotation in schemes:
                        for schedule in schedules:
                            cand = Candidate(
                                mr=mr, nr=nr,
                                rotation=rotation, schedule=schedule,
                                kc=kc, mc=mc, nc=nc,
                                k1=base.k1, k2=base.k2, k3=base.k3,
                            )
                            if cand not in seen:
                                seen.add(cand)
                                out.append(cand)
    return out
