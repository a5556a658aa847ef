"""The autotuner: parallel, memoized kernel search over the codegen space.

:mod:`~repro.tune.space` owns the search space — register tiles,
rotation schemes, issue schedules and blocking neighborhoods;
:mod:`~repro.tune.evaluate` prices candidates analytically and times the
survivors through the compiled engine; :mod:`~repro.tune.memo` keys every
evaluation by content hash into a persistent result store; and
:mod:`~repro.tune.search` composes them into the two-stage search behind
``repro tune``, and scores the ``ablation_autotune`` exhibit's
block-size grid (:func:`autotune_ablation`) on the same space.
"""

from repro.tune.evaluate import (
    analytic_eval,
    build_kernel,
    resolve_plan,
    timed_eval,
)
from repro.tune.memo import TUNE_SCHEMA_VERSION, eval_key
from repro.tune.search import autotune_ablation, tune_search
from repro.tune.space import (
    ROTATIONS,
    SCHEDULES,
    Candidate,
    enumerate_candidates,
)

__all__ = [
    "ROTATIONS",
    "SCHEDULES",
    "TUNE_SCHEMA_VERSION",
    "Candidate",
    "analytic_eval",
    "autotune_ablation",
    "build_kernel",
    "enumerate_candidates",
    "eval_key",
    "resolve_plan",
    "timed_eval",
    "tune_search",
]
