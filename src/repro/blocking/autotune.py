"""Simulator-driven block-size auto-tuning (the paper's future-work item).

The paper closes with "we also plan to apply auto-tuning to generate a
highly optimized GEBP". This module provides an ATLAS-style empirical
search, with the simulated chip standing in for timing runs: candidate
(mr, nr) register tiles come from the analytic feasibility constraints,
and for each tile a neighborhood of (kc, mc, nc) values around the
analytic solution is scored by the DGEMM cost model.

The headline result — reproduced in ``tests/test_tune.py`` and
``benchmarks/bench_ablation_autotune.py`` — is that the search lands on
the paper's analytic answer (8x6 with 512x56x1920 serial), confirming the
theory-guided derivation empirically.

This module is deliberately a leaf (it imports only ``arch`` and the
sibling ``blocking`` solvers); the full kernel-synthesis search in
:mod:`repro.tune` builds its candidate space from the public
:func:`candidate_tiles` and :func:`neighborhood` helpers here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Set, Tuple

from repro.arch.params import ChipParams
from repro.arch.presets import XGENE
from repro.blocking.cache_blocking import CacheBlocking, solve_cache_blocking
from repro.blocking.register_blocking import RegisterBlockingProblem
from repro.errors import BlockingError
from repro.kernels.kernel_spec import KernelSpec


@dataclass(frozen=True)
class TuneResult:
    """One scored configuration."""

    kernel: str
    blocking: CacheBlocking
    efficiency: float


#: Signature of a pluggable scoring hook for :func:`autotune`:
#: ``score(kernel_name, problem_size, threads, blocking) -> efficiency``.
ScoreFn = Callable[[str, int, int, CacheBlocking], float]


def candidate_tiles(
    chip: ChipParams,
    max_candidates: Optional[int] = None,
    require_codegen: bool = False,
) -> List[Tuple[int, int]]:
    """Distinct feasible (mr, nr) register tiles, best first.

    Tiles come from the eq. (8)-(11) feasibility enumeration and are
    ordered by the same tie-breakers the analytic solver uses: gamma
    descending, then cache-line-aligned mr, then larger mr. Each (mr, nr)
    pair appears exactly once regardless of how many nrf choices make it
    feasible.

    Args:
        chip: Architecture whose register file bounds the enumeration.
        max_candidates: Keep only the first N tiles (``None`` = all).
        require_codegen: Additionally require that the code generator can
            realize the tile — ``KernelSpec(mr, nr)`` must fit the
            register file with its rotation pool. Eq. (9) alone admits
            tiles like 12x4 whose C block leaves no room for the
            rotation registers.

    Returns:
        Deduplicated (mr, nr) list, best candidate first.
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
        if pair in seen:
            continue
        if require_codegen and not KernelSpec(t.mr, t.nr).fits_register_file(nf):
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


def autotune(
    chip: ChipParams = XGENE,
    threads: int = 1,
    problem_size: int = 2048,
    max_tiles: int = 4,
    kernel_name: str = "OpenBLAS-8x6",
    score: Optional[ScoreFn] = None,
) -> List[TuneResult]:
    """Empirically search block sizes on the simulated chip.

    Every distinct configuration is scored exactly once: both the (mr, nr)
    candidate list and the (kc, mc, nc) neighborhood grid are deduplicated
    before scoring, so a counting evaluator sees no repeats even when
    neighborhoods collapse (small caches flooring several neighbors to the
    same multiple).

    Args:
        chip: Architecture to tune for.
        threads: Thread count of the target configuration.
        problem_size: Square DGEMM size used for scoring.
        max_tiles: How many top-gamma register tiles to explore.
        kernel_name: Cost-model kernel identity used for scoring (the
            interference mix follows the tile's own shape through the
            blocking; the hide class follows this variant).
        score: Optional scoring hook
            ``score(kernel_name, problem_size, threads, blocking)`` that
            replaces the built-in cost-model call; used by tests and by
            search layers that bring their own evaluator.

    Returns:
        All scored configurations, best first (efficiency descending,
        enumeration order as the deterministic tie-break).
    """
    if problem_size < 64:
        raise BlockingError("problem_size too small to be meaningful")
    if score is None:
        from repro.sim.gemm_sim import GemmSimulator  # lazy: avoid cycle

        sim = GemmSimulator(chip)

        def score(name: str, size: int, thr: int, blk: CacheBlocking) -> float:
            return sim.simulate(name, size, size, size, threads=thr,
                                blocking=blk).efficiency

    results: List[TuneResult] = []
    scored: Set[Tuple[int, ...]] = set()
    for mr, nr in candidate_tiles(chip, max_tiles):
        try:
            base = solve_cache_blocking(chip, mr, nr, threads=threads)
        except BlockingError:
            continue
        for kc in neighborhood(base.kc, 128, 64):
            for mc in neighborhood(base.mc, 2 * mr, mr):
                for nc in neighborhood(base.nc, 16 * nr, nr):
                    config = (mr, nr, kc, mc, nc, base.k1, base.k2, base.k3)
                    if config in scored:
                        continue
                    scored.add(config)
                    blk = CacheBlocking(
                        mr=mr, nr=nr, kc=kc, mc=mc, nc=nc,
                        k1=base.k1, k2=base.k2, k3=base.k3,
                    )
                    results.append(
                        TuneResult(
                            kernel=f"{mr}x{nr}",
                            blocking=blk,
                            efficiency=score(
                                kernel_name, problem_size, threads, blk
                            ),
                        )
                    )
    if not results:
        raise BlockingError("no feasible configuration found")
    results.sort(key=lambda r: r.efficiency, reverse=True)
    return results

