"""The two-stage, parallel, memoized kernel search.

Stage one scores every *analytic class* — candidates that the cost model
cannot distinguish (same tile, rotated bit and blocking) collapse into
one evaluation — and keeps the ``top_k`` best-scoring classes as the
frontier. Stage two times every distinct *code-shape variant* (tile,
rotation scheme, issue schedule) among the surviving candidates through
the compiled engine. The final ranking orders survivors by exact timed
efficiency, with the analytic score deciding between blockings the timed
stage cannot separate (it runs fixed-depth panels), and a canonical-JSON
tie-break making the whole search deterministic.

Both stages run their evaluations through the serving layer's
memoized-answer step (:func:`repro.serve.engine.memoized`): every result
is memoized by content hash (:func:`repro.tune.memo.eval_key`) in a
:class:`~repro.serve.store.ResultStore`, and cache-missing evaluations
run as jobs on a :class:`~repro.gemm.pool.WorkerPool` when one is
supplied. Re-runs and overlapping searches are therefore near-free: the
warm pass recomputes nothing and reproduces the cold result
bit-identically (the ``tune.memo`` oracle and
``benchmarks/bench_tune_throughput.py`` both enforce this).
"""

from __future__ import annotations

import json
import random
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.arch.presets import XGENE
from repro.errors import BlockingError
from repro.gemm.pool import WorkerPool
from repro.obs.metrics import MetricsRegistry
from repro.serve.engine import make_answer, memoized
from repro.serve.query import resolve_machine
from repro.serve.store import ResultStore
from repro.sim.gemm_sim import GemmSimulator
from repro.tune.evaluate import analytic_eval, timed_eval
from repro.tune.memo import TUNE_SCHEMA_VERSION, eval_key
from repro.tune.space import ROTATIONS, SCHEDULES, Candidate, enumerate_candidates

__all__ = ["autotune_ablation", "tune_search"]

#: Ranked entries reported in the result document's ``top`` list.
TOP_REPORTED = 5


def _canon(doc: Dict[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True)


def _evaluate_stage(
    docs: Dict[Tuple[Any, ...], Dict[str, Any]],
    compute: Callable[[Dict[str, Any]], Dict[str, Any]],
    command: str,
    engines: Dict[str, Any],
    store: Optional[ResultStore],
    pool: Optional[WorkerPool],
    metrics: Optional[MetricsRegistry],
    counter: str,
) -> Tuple[Dict[Tuple[Any, ...], Dict[str, Any]], Dict[str, int]]:
    """Memoized, optionally pool-parallel evaluation of one stage.

    ``docs`` maps a stage-specific class tuple to its canonical
    evaluation document. Returns class tuple -> stats, and the stage's
    memo counts. The first failing evaluation's exception is re-raised.
    """
    def answer(doc: Dict[str, Any]) -> Dict[str, Any]:
        return make_answer(command, doc, compute(doc), engines)

    outcomes = memoized(store, [
        (eval_key(doc), doc, partial(answer, doc)) for doc in docs.values()
    ], pool)
    misses = sum(1 for source, _ in outcomes if source != "hit")
    if metrics is not None and misses:
        metrics.inc(counter, misses)
    for source, value in outcomes:
        if source == "error":
            raise value
    counts = {"hits": len(outcomes) - misses, "misses": misses,
              "stored": misses if store is not None else 0}
    stats = {cls: value["stats"] for cls, (_, value) in zip(docs, outcomes)}
    return stats, counts


def tune_search(
    machine: Any = "xgene",
    threads: int = 1,
    problem_size: int = 2048,
    max_tiles: int = 4,
    top_k: int = 12,
    radius: int = 1,
    bodies: int = 2,
    na: int = 1,
    nb: int = 1,
    hw_late: float = 0.25,
    seed: int = 0,
    rotations: Sequence[str] = ROTATIONS,
    schedules: Sequence[str] = SCHEDULES,
    store: Optional[ResultStore] = None,
    pool: Optional[WorkerPool] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[str, Any]:
    """Run the full two-stage kernel search and return its result doc.

    Args:
        machine: Preset name or machine document (as in the serve layer).
        threads: Thread count the blocking solver targets.
        problem_size: Square DGEMM size the analytic stage prices.
        max_tiles: Top-gamma register tiles to enumerate.
        top_k: Analytic classes surviving into the timed stage.
        radius: Blocking-neighborhood radius per axis.
        bodies: Unrolled bodies per timed panel depth (``kc = unroll *
            bodies`` per variant).
        na, nb: Packed A/B panel counts for the timed run.
        hw_late: Hardware-prefetch lateness passed to the timed engine.
        seed: Shuffles the candidate order and seeds the timed operand
            values.
        rotations, schedules: Search-space gates (see
            :mod:`repro.tune.space`).
        store: Persistent memo store (``None`` = evaluate everything).
        pool: Job pool for cache-missing evaluations (``None`` = inline).
        metrics: Optional registry (``tune.*`` counters and spans).

    Returns:
        A plain-JSON result document. Every section except ``memo`` is
        invariant across cold and warm runs of the same parameters.
    """
    if problem_size < 64:
        raise BlockingError("problem_size too small to be meaningful")
    if top_k < 1:
        raise BlockingError("top_k must be >= 1")
    label, chip = resolve_machine(machine)
    candidates = enumerate_candidates(
        machine, threads=threads, max_tiles=max_tiles,
        rotations=rotations, schedules=schedules, radius=radius,
    )
    random.Random(seed).shuffle(candidates)
    if not candidates:
        raise BlockingError("search space is empty for this machine")
    if metrics is not None:
        metrics.inc("tune.searches")
        metrics.observe("tune.candidates", len(candidates))

    # -- stage one: analytic scoring of every distinct class ----------------
    analytic_docs: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
    for cand in candidates:
        cls = cand.analytic_class()
        if cls not in analytic_docs:
            analytic_docs[cls] = {
                "stage": "analytic",
                "machine": machine,
                "mr": cand.mr, "nr": cand.nr, "rotated": cand.rotated,
                "kc": cand.kc, "mc": cand.mc, "nc": cand.nc,
                "k1": cand.k1, "k2": cand.k2, "k3": cand.k3,
                "problem_size": problem_size,
                "threads": threads,
            }
    analytic_stats, analytic_memo = _evaluate_stage(
        analytic_docs,
        lambda doc: analytic_eval(chip, doc),
        command="tune-eval-analytic",
        engines={"analytic": {"selected": "gemm-sim", "fallback_reason": None}},
        store=store, pool=pool, metrics=metrics,
        counter="tune.analytic_evals",
    )

    ranked_classes = sorted(
        analytic_docs,
        key=lambda cls: (-analytic_stats[cls]["efficiency"],
                         _canon(analytic_docs[cls])),
    )
    frontier = set(ranked_classes[:top_k])
    survivors = [c for c in candidates if c.analytic_class() in frontier]

    # -- stage two: compiled timed runs of surviving code shapes ------------
    timed_docs: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
    for cand in survivors:
        cls = cand.timed_class()
        if cls not in timed_docs:
            timed_docs[cls] = {
                "stage": "timed",
                "machine": machine,
                "mr": cand.mr, "nr": cand.nr,
                "rotation": cand.rotation, "schedule": cand.schedule,
                "bodies": bodies, "na": na, "nb": nb,
                "hw_late": hw_late, "seed": seed,
            }
    timed_stats, timed_memo = _evaluate_stage(
        timed_docs,
        lambda doc: timed_eval(chip, doc),
        command="tune-eval-timed",
        engines={"timed": {"selected": "compiled", "fallback_reason": None}},
        store=store, pool=pool, metrics=metrics,
        counter="tune.timed_evals",
    )

    # -- final ranking ------------------------------------------------------
    def final_key(cand: Candidate) -> Tuple[Any, ...]:
        timed = timed_stats[cand.timed_class()]
        analytic = analytic_stats[cand.analytic_class()]
        return (
            0 if timed["feasible"] else 1,
            -timed.get("efficiency", 0.0),
            -analytic["efficiency"],
            _canon(cand.doc()),
        )

    ranked = sorted(survivors, key=final_key)
    winner = ranked[0]
    winner_timed = timed_stats[winner.timed_class()]
    if not winner_timed["feasible"]:
        raise BlockingError(
            "no surviving candidate compiled; widen rotations/schedules"
        )
    feasible_variants = sum(
        1 for s in timed_stats.values() if s["feasible"]
    )
    prune_ratio = len(candidates) / max(1, len(timed_docs))

    def entry(cand: Candidate) -> Dict[str, Any]:
        return {
            "candidate": cand.doc(),
            "analytic": analytic_stats[cand.analytic_class()],
            "timed": timed_stats[cand.timed_class()],
        }

    # The reported top list shows the best blocking per code shape —
    # without the dedup it would be one kernel repeated across its
    # blocking neighborhood.
    top_entries: List[Dict[str, Any]] = []
    reported = set()
    for cand in ranked:
        shape = cand.timed_class()
        if shape in reported:
            continue
        reported.add(shape)
        top_entries.append(entry(cand))
        if len(top_entries) >= TOP_REPORTED:
            break

    return {
        "tune_schema_version": TUNE_SCHEMA_VERSION,
        "machine": label,
        "params": {
            "machine": machine, "threads": threads,
            "problem_size": problem_size, "max_tiles": max_tiles,
            "top_k": top_k, "radius": radius, "bodies": bodies,
            "na": na, "nb": nb, "hw_late": hw_late, "seed": seed,
            "rotations": list(rotations), "schedules": list(schedules),
        },
        "space": {
            "enumerated": len(candidates),
            "analytic_classes": len(analytic_docs),
            "survivors": len(survivors),
            "timed_variants": len(timed_docs),
            "feasible_variants": feasible_variants,
        },
        "stats": {
            "prune_ratio": prune_ratio,
        },
        "winner": entry(winner),
        "top": top_entries,
        "memo": {
            "analytic": analytic_memo,
            "timed": timed_memo,
        },
    }


def autotune_ablation() -> List[Tuple[Candidate, float]]:
    """The ``ablation_autotune`` exhibit's grid search, best first.

    Every blocking of the top three X-Gene tiles (one static-rotation,
    earliest-schedule code shape per blocking: 81 configurations) is
    priced by the cost model as the paper's OpenBLAS-8x6 kernel on a
    serial 2048^3 DGEMM. The sort is stable over the canonical
    enumeration order, so tied scores rank the analytic centre first.
    """
    sim = GemmSimulator(XGENE)
    grid = enumerate_candidates(
        "xgene", threads=1, max_tiles=3, rotations=("static",),
        schedules=("earliest",), radius=1,
    )
    scored = [
        (c, sim.simulate("OpenBLAS-8x6", 2048, 2048, 2048, threads=1,
                         blocking=c.blocking()).efficiency)
        for c in grid
    ]
    return sorted(scored, key=lambda entry: -entry[1])
