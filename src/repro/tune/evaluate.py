"""The tuner's two evaluators: analytic scoring and compiled timed runs.

Stage one prices a candidate with the Sec. III/IV analytic DGEMM cost
model (:class:`~repro.sim.gemm_sim.GemmSimulator` accepts the enumerated
:class:`~repro.kernels.kernel_spec.KernelSpec` directly). Stage two
generates the candidate's kernel — rotation plan, issue schedule,
prefetches — and executes it on seeded packed panels through the
compiled timed engine (``engine="compiled"``), which is exact for every
compilable variant.

Not every enumerated variant schedules: some rotation-plan/strategy
pairs leave no legal window for a load (e.g. the naive ring cycle under
the ``earliest`` strategy for 8x6). Those evaluate to an *infeasible*
record — ``{"feasible": false, "reason": ...}`` — which is memoized like
any other result so re-runs never retry a known-dead variant.

Rotation plans and generated kernels are cached per process in bounded
memos: an exhaustive ``solve_rotation`` over an 8-slot pool costs
~0.3 s, and the same plan is shared by every blocking neighborhood of
the tile. Threads racing on one key share one plan and one kernel, so
``compile_kernel`` (keyed by kernel identity) compiles it once.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.arch.params import ChipParams
from repro.errors import ReproError
from repro.kernels.codegen import GeneratedKernel, generate_kernel
from repro.kernels.kernel_spec import KernelSpec
from repro.kernels.rotation import (
    RotationPlan,
    paper_plan,
    plan_from_cycle,
    solve_rotation,
    static_plan,
)
from repro.memo import BoundedMemo
from repro.sim.timed_executor import run_timed_gebp

__all__ = [
    "resolve_plan",
    "build_kernel",
    "analytic_eval",
    "timed_eval",
]


#: Rotation plans by ``(mr, nr, rotation)``.
_PLANS: BoundedMemo[RotationPlan] = BoundedMemo(64)

#: Generated kernels by ``(mr, nr, rotation, schedule, kc)``.
_KERNELS: BoundedMemo[GeneratedKernel] = BoundedMemo(64)


def _plan(mr: int, nr: int, rotation: str) -> RotationPlan:
    """The plan for one (tile, scheme): ``solved`` costs ~0.3 s."""
    return _PLANS.get_or_make(
        (mr, nr, rotation), lambda: _make_plan(mr, nr, rotation)
    )


def _make_plan(mr: int, nr: int, rotation: str) -> RotationPlan:
    spec = KernelSpec(mr, nr, rotated=rotation != "static")
    if rotation == "static":
        return static_plan(spec)
    if rotation == "paper":
        return paper_plan(spec)
    if rotation == "ring":
        return plan_from_cycle(spec, tuple(range(spec.rotation_pool)))
    if rotation == "solved":
        return solve_rotation(spec)
    raise ReproError(f"unknown rotation scheme {rotation!r}")


def resolve_plan(spec: KernelSpec, rotation: str) -> RotationPlan:
    """The rotation plan realizing ``rotation`` for ``spec`` (cached)."""
    return _plan(spec.mr, spec.nr, rotation)


def build_kernel(
    mr: int, nr: int, rotation: str, schedule: str, kc: int
) -> GeneratedKernel:
    """Generate (and cache) the kernel for one code-shape variant.

    Raises the underlying :class:`~repro.errors.ReproError` subclass
    (``SchedulingError``, ``RegisterAllocationError``, ...) when the
    variant cannot be realized; callers record that as infeasible.
    """
    spec = KernelSpec(mr, nr, rotated=rotation != "static")
    return _KERNELS.get_or_make(
        (mr, nr, rotation, schedule, kc),
        lambda: generate_kernel(
            spec, kc=kc, plan=_plan(mr, nr, rotation),
            schedule_strategy=schedule,
        ),
    )


def analytic_eval(
    chip: ChipParams, doc: Dict[str, Any]
) -> Dict[str, Any]:
    """Analytic cost-model score of one (tile, blocking) class.

    ``doc`` is the canonical evaluation document built by the search
    (fields: mr/nr/rotated, kc/mc/nc/k1/k2/k3, problem_size, threads).
    Returns plain-JSON stats (efficiency, gflops, cycles).
    """
    from repro.blocking.cache_blocking import CacheBlocking
    from repro.sim.gemm_sim import GemmSimulator

    spec = KernelSpec(doc["mr"], doc["nr"], rotated=doc["rotated"])
    blocking = CacheBlocking(
        mr=doc["mr"], nr=doc["nr"],
        kc=doc["kc"], mc=doc["mc"], nc=doc["nc"],
        k1=doc["k1"], k2=doc["k2"], k3=doc["k3"],
    )
    size = doc["problem_size"]
    perf = GemmSimulator(chip).simulate(
        spec, size, size, size,
        threads=doc["threads"], blocking=blocking,
    )
    return {
        "efficiency": perf.efficiency,
        "gflops": perf.gflops,
        "cycles": perf.cycles,
    }


def _packed_operands(
    na: int, nb: int, kc: int, mr: int, nr: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    packed_a = rng.standard_normal((na, kc, mr))
    packed_b = rng.standard_normal((nb, kc, nr))
    return packed_a, packed_b


def timed_eval(
    chip: ChipParams, doc: Dict[str, Any],
    metrics: Optional[Any] = None,
) -> Dict[str, Any]:
    """Compiled timed run of one code-shape variant.

    ``doc`` fields: mr/nr/rotation/schedule, bodies (unrolled bodies per
    panel depth), na/nb (packed panel counts), hw_late, seed. The panel
    depth is ``plan.unroll * bodies`` so every variant runs whole bodies
    regardless of its pool size. Returns feasible stats (efficiency,
    cycles, cycles_per_iteration, kc) or an infeasible record with the
    generator's reason.
    """
    mr, nr = doc["mr"], doc["nr"]
    rotation, schedule = doc["rotation"], doc["schedule"]
    spec = KernelSpec(mr, nr, rotated=rotation != "static")
    try:
        plan = resolve_plan(spec, rotation)
        kc = plan.unroll * doc["bodies"]
        kernel = build_kernel(mr, nr, rotation, schedule, kc)
    except ReproError as exc:
        return {"feasible": False, "reason": str(exc), "kc": None}
    packed_a, packed_b = _packed_operands(
        doc["na"], doc["nb"], kc, mr, nr, doc["seed"]
    )
    run = run_timed_gebp(
        kernel, packed_a, packed_b,
        chip=chip, hw_late=doc["hw_late"], engine="compiled",
        metrics=metrics,
    )
    return {
        "feasible": True,
        "efficiency": run.efficiency,
        "cycles": int(run.cycles),
        "cycles_per_iteration": run.cycles_per_iteration,
        "kc": kc,
    }
