"""One harness for the engine-throughput, serving and workload benches.

A bench declares a :class:`Bench` subclass: its points and params, its
run function, its text table, its stats document and its gates. This
module does the rest the same way for every bench:

- :meth:`Bench.main` is the standalone entry
  (``python benchmarks/bench_X.py [--smoke] [--json PATH]``, the CI
  gate). Smoke mode prints the table and writes no results file; full
  mode and the pytest entry :meth:`Bench.test` both save
  ``results/<text_name>.txt`` and ``results/<json_name>.json``. The
  gates run after the results are written, and ``ok`` is printed only
  when they all hold.
- :meth:`Bench.report` wraps the stats in a :class:`RunReport`.
- :class:`PairBench` times an old and a new engine point by point and
  gates bit-identity, zero scalar fallbacks and the aggregate speedup.
- :func:`two_pass` runs a cold and a warm pass over one fresh result
  store and worker pool.

Wall-clock leaves use ``_seconds``/``_per_s`` names or live under
``stats.timing``, which the baseline comparator skips; everything else
in a report is the deterministic regression surface.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import shutil
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from conftest import save_json, save_report

from repro.analysis import format_table
from repro.obs import RunReport

PASSES = ("cold", "warm")


def selected(**slots: str) -> Dict[str, Dict[str, Any]]:
    """Engine records for slots that always run the engine requested."""
    return {
        slot: {"requested": name, "selected": name, "fallback_reason": None}
        for slot, name in slots.items()
    }


def time_each(keys: Sequence[Any], run: Callable[[Any], Any]):
    """``run(key)`` for each key in order: the outputs and their seconds."""
    outs, secs = [], []
    for key in keys:
        t0 = time.perf_counter()
        outs.append(run(key))
        secs.append(time.perf_counter() - t0)
    return outs, secs


class Bench:
    """One bench; subclasses fill in the attributes and the hooks."""

    #: ``RunReport.command`` and the results file stems.
    command: str
    text_name: str
    json_name: str
    #: Table labels of the full and the smoke run.
    labels: Tuple[str, str] = ("full", "smoke")
    engines: Dict[str, Any] = {}
    results = pathlib.Path(__file__).parent / "results"

    def run(self, smoke: bool) -> Any:
        raise NotImplementedError

    def format(self, result: Any, label: str) -> str:
        raise NotImplementedError

    def stats(self, result: Any) -> Dict[str, Any]:
        raise NotImplementedError

    def check(self, result: Any, smoke: bool) -> None:
        raise NotImplementedError

    def params(self, result: Any, label: str) -> Dict[str, Any]:
        return {"label": label}

    def report(self, result: Any, smoke: bool) -> RunReport:
        return RunReport(
            command=self.command,
            created=time.strftime("%Y-%m-%dT%H:%M:%S"),
            params=self.params(result, self.labels[smoke]),
            engines=self.engines,
            stats=self.stats(result),
        )

    def write(self, result: Any, smoke: bool,
              json_path: Optional[str] = None) -> None:
        """Print (smoke) or save (full) the table; write the report to
        ``json_path``, or in full mode by default to the results dir."""
        text = self.format(result, self.labels[smoke])
        report = self.report(result, smoke)
        if smoke:
            print(text)
        else:
            self.results.mkdir(exist_ok=True)
            save_report(self.results, self.text_name, text)
        if json_path:
            report.write(json_path)
            print(f"wrote {json_path}")
        elif not smoke:
            save_json(self.results, self.json_name, report)

    def main(self, argv: Optional[Sequence[str]] = None) -> int:
        parser = argparse.ArgumentParser(
            description=sys.modules[type(self).__module__].__doc__
        )
        parser.add_argument(
            "--smoke", action="store_true",
            help="short run, relaxed floors, no results file (the CI gate)",
        )
        parser.add_argument(
            "--json", metavar="PATH", default=None,
            help="also write a structured RunReport document to PATH",
        )
        args = parser.parse_args(argv)
        result = self.run(args.smoke)
        self.write(result, args.smoke, args.json)
        self.check(result, args.smoke)
        print("ok")
        return 0

    def test(self, benchmark: Any) -> None:
        """The pytest-benchmark entry: :meth:`main`'s full mode."""
        result = benchmark.pedantic(self.run, args=(False,), rounds=1,
                                    iterations=1)
        self.write(result, False)
        self.check(result, False)


@dataclasses.dataclass(frozen=True)
class PairRow:
    """One point timed under the old and the new engine of a pair."""

    key: str
    cells: Tuple[Any, ...]
    old_s: float
    new_s: float
    identical: bool
    #: The row's deterministic report leaves besides ``identical``.
    doc: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Accesses the new engine served through the per-access fallback.
    fallback: int = 0
    #: Work units, for the summary line and the rate column.
    count: int = 0

    @property
    def speedup(self) -> float:
        return self.old_s / self.new_s


def aggregate_speedup(rows: Sequence[PairRow]) -> float:
    return sum(r.old_s for r in rows) / sum(r.new_s for r in rows)


class PairBench(Bench):
    """A bench timing an old and a new engine over the same points.

    Every row must be bit-identical across the pair with zero scalar
    fallbacks, and the total old seconds over the total new seconds must
    clear ``floors[smoke]``.
    """

    #: Old and new engine names: table headers and report keys.
    pair: Tuple[str, str]
    floors: Tuple[float, float]
    title: str
    lead: Tuple[str, ...]
    #: Rate column header (``count`` per new-engine second), if any.
    rate: Optional[str] = None
    #: Unit of ``count`` in the summary line, if any.
    unit: Optional[str] = None
    claim: str

    def format(self, rows: List[PairRow], label: str) -> str:
        old, new = self.pair
        rate = [self.rate] if self.rate else []
        text = format_table(
            [*self.lead, f"{old} s", f"{new} s", "speedup", *rate],
            [[*r.cells, r.old_s, r.new_s, r.speedup,
              *([r.count / r.new_s] if rate else [])] for r in rows],
            title=f"{self.title} ({label})",
        )
        total = (f"{sum(r.count for r in rows)} {self.unit}, "
                 if self.unit else "")
        return (f"{text}\naggregate: {total}"
                f"{aggregate_speedup(rows):.1f}x speedup, {self.claim}")

    def stats(self, rows: List[PairRow]) -> Dict[str, Any]:
        old, new = self.pair
        return {
            "rows": {
                r.key: {**r.doc, "identical": r.identical,
                        f"{old}_seconds": r.old_s,
                        f"{new}_seconds": r.new_s}
                for r in rows
            },
            "aggregate": {"speedup_seconds": aggregate_speedup(rows)},
        }

    def check(self, rows: List[PairRow], smoke: bool) -> None:
        for r in rows:
            assert r.identical, f"{r.key}: the engines disagree"
            assert r.fallback == 0, (
                f"{r.key}: {r.fallback} accesses took the per-access "
                f"scalar fallback"
            )
        agg, floor = aggregate_speedup(rows), self.floors[smoke]
        assert agg >= floor, (
            f"aggregate speedup {agg:.1f}x below the {floor:.0f}x floor"
        )


@dataclasses.dataclass(frozen=True)
class TwoPass:
    """A cold and a warm pass over one store."""

    #: What a pass counts; the first key of each ``counts`` entry.
    unit: str
    counts: Dict[str, Dict[str, int]]
    seconds: Dict[str, float]
    #: Whether the warm pass's output equals the cold pass's.
    identical: bool
    #: The warm pass's output.
    result: Any

    @property
    def speedup(self) -> float:
        return self.seconds["cold"] / max(self.seconds["warm"], 1e-9)

    def rate(self, p: str) -> float:
        s = self.seconds[p]
        return self.counts[p][self.unit] / s if s > 0 else 0.0

    def table(self, title: str) -> str:
        return format_table(
            ["pass", *self.counts["cold"], "seconds", f"{self.unit}/s"],
            [[p, *self.counts[p].values(), self.seconds[p], self.rate(p)]
             for p in PASSES],
            title=title,
        )

    def stats(self) -> Dict[str, Any]:
        return {
            "passes": self.counts,
            "identical": self.identical,
            "timing": {
                "cold_seconds": self.seconds["cold"],
                "warm_seconds": self.seconds["warm"],
                "speedup": self.speedup,
                **{f"{p}_{self.unit}_per_s": self.rate(p) for p in PASSES},
            },
        }

    def check(self, min_speedup: float) -> None:
        warm = self.counts["warm"]
        assert warm["computed"] == 0 and warm["hits"] == warm[self.unit], (
            f"warm pass not fully cached: {warm}"
        )
        assert self.identical, "warm-pass output differs from the cold pass"
        assert self.speedup >= min_speedup, (
            f"warm-pass speedup {self.speedup:.1f}x below the "
            f"{min_speedup:.0f}x floor"
        )


def two_pass(
    unit: str, threads: int, run_pass: Callable[[Any, Any], Any],
    summarize: Callable[[Any], Tuple[Dict[str, int], Any]],
) -> TwoPass:
    """Time ``run_pass(store, pool)`` cold, then warm, on one fresh
    :class:`ResultStore` and a :class:`WorkerPool` of ``threads`` (none
    for one thread); both are torn down afterwards.

    ``summarize(output)`` runs untimed and returns the pass's counters
    and the fingerprint the two passes must agree on.
    """
    from repro.gemm.pool import WorkerPool
    from repro.serve.store import ResultStore

    tmp = tempfile.mkdtemp(prefix=f"bench-{unit}-")
    pool = WorkerPool(threads) if threads > 1 else None
    try:
        store = ResultStore(tmp)
        outs, secs = time_each(PASSES, lambda _: run_pass(store, pool))
    finally:
        if pool is not None:
            pool.close()
        shutil.rmtree(tmp, ignore_errors=True)
    (cold, cold_fp), (warm, warm_fp) = map(summarize, outs)
    return TwoPass(unit, dict(zip(PASSES, (cold, warm))),
                   dict(zip(PASSES, secs)), cold_fp == warm_fp, outs[1])
