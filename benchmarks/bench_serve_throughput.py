"""Throughput of the memoized query-serving layer, cold vs warm.

Runs the committed mixed-kind batch (``benchmarks/data/serve_batch.jsonl``
— simulate, cachesim and timed queries with deliberate duplicates)
twice through a :class:`repro.serve.QueryEngine` on a fresh cache
directory and checks three things:

- the second (fully cached) pass serves **every** occurrence from the
  store: ``hits == queries``, zero computes, zero errors;
- every answer document of the warm pass is **byte-identical** to the
  cold pass's (the serialized JSON lines compare equal, which is the
  same claim the ``serve.cache`` oracle fuzzes);
- the warm pass clears the wall-clock speedup floor the cache exists
  for (>= 10x on the full batch; >= 3x in ``--smoke`` mode, whose
  shorter batch amortizes less).

Runs standalone (``python bench_serve_throughput.py [--smoke]`` — the CI
smoke gate) or under pytest-benchmark with the rest of the harness. The
full run publishes ``benchmarks/results/baseline_serve.json`` with the
serving counters (deterministic regression surface) and the measured
queries/s (under ``stats.timing``, which the baseline comparator skips
as wall clock).
"""

from __future__ import annotations

import json
import pathlib
from typing import List, Optional

from _harness import Bench, selected, two_pass

BATCH_FILE = pathlib.Path(__file__).parent / "data" / "serve_batch.jsonl"

#: Queries taken from the batch in smoke mode (full mode takes them all).
SMOKE_COUNT = 8

MIN_SPEEDUP_FULL = 10.0
MIN_SPEEDUP_SMOKE = 3.0


def load_batch(limit: Optional[int] = None) -> List[dict]:
    docs = []
    for line in BATCH_FILE.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        docs.append(json.loads(line))
    return docs[:limit] if limit is not None else docs


class ServeBench(Bench):
    command = "bench_serve_throughput"
    text_name, json_name = "serve_throughput", "baseline_serve"
    labels = ("committed batch", "smoke")
    engines = selected(serve="pool")

    def run(self, smoke: bool):
        """Serve the batch twice against one (initially empty) store."""
        from repro.serve import QueryEngine

        docs = load_batch(SMOKE_COUNT if smoke else None)

        def serve(store, pool):
            engine = QueryEngine(store, pool=pool)
            return engine, engine.run_batch(list(docs))

        return two_pass(
            "queries", 4, serve,
            lambda out: (out[0].stats.as_dict(),
                         [a.to_json_line() for a in out[1]]),
        )

    def params(self, result, label: str):
        return {"label": label, "batch": BATCH_FILE.name}

    def stats(self, result):
        return result.stats()

    def check(self, result, smoke: bool) -> None:
        errors = [result.counts[p]["errors"] for p in result.counts]
        assert not any(errors), f"query errors (cold, warm): {errors}"
        result.check(MIN_SPEEDUP_SMOKE if smoke else MIN_SPEEDUP_FULL)

    def format(self, result, label: str) -> str:
        title = f"Memoized query serving, cold vs warm ({label})"
        return (
            f"{result.table(title)}\nwarm pass: {result.speedup:.1f}x "
            f"speedup, answers byte-identical: {result.identical}"
        )


BENCH = ServeBench()


def test_serve_throughput(benchmark):
    BENCH.test(benchmark)


if __name__ == "__main__":
    raise SystemExit(BENCH.main())
