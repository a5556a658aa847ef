"""Throughput of the memoized kernel autotuner, cold vs warm.

Runs the same two-stage search (:func:`repro.tune.search.tune_search`)
twice against one initially-empty result store and checks four things:

- the search rediscovers the paper's kernel on the X-Gene preset: the
  winner is **8x6 with kc=512** (solved rotation, earliest schedule) —
  notably *through* the timed stage, since the analytic prior alone
  ranks 6x8 first;
- analytic pruning is load-bearing: the number of compiled timed
  evaluations is at least **5x** smaller than the enumerated space;
- the warm pass answers **every** evaluation from the persisted store
  (zero computes) and its result document is **bit-identical** to the
  cold pass's, memo counters aside — the same claim the ``tune.memo``
  oracle fuzzes;
- the warm replay clears the **10x** wall-clock speedup floor the
  memoization exists for (both in full and ``--smoke`` mode).

Runs standalone (``python bench_tune_throughput.py [--smoke]`` — the CI
gate) or under pytest-benchmark with the rest of the harness. The full
run publishes ``benchmarks/results/baseline_tune.json`` with the space
and winner counters (deterministic regression surface) and the measured
evals/s (under ``stats.timing``, which the baseline comparator skips as
wall clock).
"""

from __future__ import annotations

import json
from typing import Any, Dict

from _harness import Bench, two_pass

MIN_SPEEDUP = 10.0
MIN_PRUNE_RATIO = 5.0

#: Search budgets. Smoke shrinks the tile pool; both use the default
#: frontier so the 8x6-vs-6x8 flip stays in play.
FULL_PARAMS: Dict[str, Any] = dict(
    machine="xgene", threads=1, problem_size=2048,
    max_tiles=4, top_k=12, radius=1, bodies=2, seed=0,
)
SMOKE_PARAMS: Dict[str, Any] = dict(FULL_PARAMS, max_tiles=3)


def _summarize(result: Dict[str, Any]):
    """A pass's memo counters, and its document with them stripped."""
    memo = result["memo"]
    hits = memo["analytic"]["hits"] + memo["timed"]["hits"]
    computed = memo["analytic"]["misses"] + memo["timed"]["misses"]
    doc = {k: v for k, v in result.items() if k != "memo"}
    return ({"evals": hits + computed, "hits": hits, "computed": computed},
            json.dumps(doc, sort_keys=True))


class TuneBench(Bench):
    command = "bench_tune_throughput"
    text_name, json_name = "tune_throughput", "baseline_tune"
    labels = ("full search", "smoke")
    engines = {
        "analytic": {"selected": "gemm-sim", "fallback_reason": None},
        "timed": {"selected": "compiled", "fallback_reason": None},
    }

    def run(self, smoke: bool):
        """Search twice against one (initially empty) result store."""
        from repro.tune import tune_search

        params = SMOKE_PARAMS if smoke else FULL_PARAMS
        return two_pass(
            "evals", 2,
            lambda store, pool: tune_search(store=store, pool=pool, **params),
            _summarize,
        )

    def params(self, two, label: str):
        return {"label": label,
                **{k: v for k, v in two.result["params"].items()
                   if not isinstance(v, list)}}

    def stats(self, two):
        r = two.result
        return {"space": r["space"], "prune_ratio": r["stats"]["prune_ratio"],
                "winner": r["winner"], **two.stats()}

    def check(self, two, smoke: bool) -> None:
        winner = two.result["winner"]["candidate"]
        assert (winner["mr"], winner["nr"]) == (8, 6), (
            f"search lost the paper's kernel: winner {winner}"
        )
        assert winner["kc"] == 512, (
            f"winner blocking drifted off kc=512: {winner}"
        )
        assert (winner["rotation"], winner["schedule"]) == (
            "solved", "earliest",
        ), f"winner code shape drifted: {winner}"
        prune = two.result["stats"]["prune_ratio"]
        assert prune >= MIN_PRUNE_RATIO, (
            f"analytic pruning ratio {prune:.1f}x below the "
            f"{MIN_PRUNE_RATIO:.0f}x floor"
        )
        two.check(MIN_SPEEDUP)

    def format(self, two, label: str) -> str:
        r = two.result
        winner, space = r["winner"]["candidate"], r["space"]
        title = f"Memoized kernel autotuning, cold vs warm ({label})"
        return (
            f"{two.table(title)}\n"
            f"winner: {winner['mr']}x{winner['nr']} "
            f"({winner['rotation']}/{winner['schedule']}) at "
            f"{winner['kc']}x{winner['mc']}x{winner['nc']}\n"
            f"space: {space['enumerated']} candidates -> "
            f"{space['timed_variants']} timed "
            f"(prune {r['stats']['prune_ratio']:.1f}x)\n"
            f"warm pass: {two.speedup:.1f}x speedup, result "
            f"bit-identical: {two.identical}"
        )


BENCH = TuneBench()


def test_tune_throughput(benchmark):
    BENCH.test(benchmark)


if __name__ == "__main__":
    raise SystemExit(BENCH.main())
