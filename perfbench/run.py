"""Host-time benchmark of the simulator stack.

Measures what the Python stack takes to answer, never simulated time:
every modeled output (Gflops, cycles, miss counts) is checked against a
recorded SHA-256 instead. One run is one fresh process driving one
workload from a single client as a closed loop (the next request is sent
only after the previous one returned). Cache misses are computed on a
``WorkerPool(2)``. Times are host-speed-normalized with the reference
slice of ``calibrate.py``, timed after every block of requests.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-cold --seed 0 --seconds 20 --trace 0

Workloads: ``serve-cold``, ``serve-hot``, ``tune-cold``, ``exhibit-cold``
(see ``workloads.py`` and ``README.md``). ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs with layer wrappers installed
(``tracer.py``), prints every per-layer metric and compares its
throughput with an untraced child run of the same seed. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the metrics it carries are the ones
``BENCHMARK.json`` lists. Exit code 1 means an output-gate failure or a
nonzero error rate; exit code 2 means the run could not start.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from calibrate import NOMINAL_SLICE_S, Reference  # noqa: E402

WORKLOADS = ("serve-cold", "serve-hot", "tune-cold", "exhibit-cold")
POOL_THREADS = 2
#: Fresh processes that repeat the set-up after the run; ``setup_s`` is
#: the median of theirs and the run's own. A single set-up of ~0.3 s
#: spreads by up to 45% across runs on a 2-vCPU VM.
SETUP_PROBES = 2
#: Request seconds between two reference slices.
CALIBRATE_EVERY_S = 0.1
#: Percentiles tried for ``latency_tail_ms``, highest first; the first
#: with at least ``TAIL_BEYOND`` samples above it is reported.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10
#: The paper's kernel, rediscovered by every X-Gene search: (mr, nr, kc).
XGENE_WINNER = (8, 6, 512)
#: Problems kept verbatim in the report (the rest are counted).
MAX_PROBLEMS = 8


class BenchError(Exception):
    """The benchmark could not start (e.g. no program source)."""


def import_program(workload: str) -> None:
    """Put the checkout's ``src`` first on the path and import the entry
    points ``workload`` calls.

    Importing here, before the first request, keeps import time in
    ``setup_s`` instead of in the first request's latency. Anything else
    loads lazily, as it does for users.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not {src}")
    import repro.gemm.pool  # noqa: F401

    if workload == "tune-cold":
        import repro.tune  # noqa: F401
    else:
        import repro.serve  # noqa: F401


def line_sha(line: str) -> str:
    """The recorded form of an answer: SHA-256 of its canonical JSON
    line (``json.dumps(answer, sort_keys=True)``)."""
    return hashlib.sha256(line.encode()).hexdigest()[:32]


# -- workloads ----------------------------------------------------------------


class Workload:
    """One workload's set-up, request stream, and output gate.

    ``execute`` is the only timed part; ``check`` runs between requests
    and returns ``(ops attempted, ops failed)``.
    """

    golden_table = ""
    #: Whether the workload computes on the pool's workers, so its
    #: reference slices run there too (see ``calibrate.py``).
    computes_on_pool = False

    def __init__(self, seed: int, work: Path, golden: Dict[str, Any]) -> None:
        self.seed = seed
        self.work = work
        self.golden = golden.get(self.golden_table, {})
        self.problems: List[str] = []
        self.problem_count = 0
        self._dirs = 0
        self.pool: Any = None
        from repro.obs.run_report import validate_report

        # Bound before any tracer runs, so the gate's own validation is
        # never counted as a layer call.
        self._validate = validate_report

    def problem(self, text: str) -> None:
        self.problem_count += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(text)

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.work / f"store-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def setup(self) -> None:
        from repro.gemm.pool import WorkerPool

        self.pool = WorkerPool(POOL_THREADS)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    def verify(self, doc: Dict[str, Any], answer: Dict[str, Any],
               report: bool = True) -> str:
        """Gate one answer; returns its canonical JSON line."""
        if report:
            for issue in self._validate(answer)[:1]:
                self.problem(f"answer fails validate_report: {issue}")
        line = json.dumps(answer, sort_keys=True)
        sha = line_sha(line)
        expected = self.golden.get(wl.input_digest(doc))
        if expected is None:
            self.problem(f"no recorded answer for input {json.dumps(doc)[:120]}")
        elif expected != sha:
            self.problem(f"answer moved for input {json.dumps(doc)[:120]}")
        return line

    def check_served(self, docs: Sequence[Dict[str, Any]], answers: Any,
                     err: Optional[BaseException],
                     source: str) -> Tuple[int, int]:
        if err is not None:
            self.problem(f"run_batch raised {err!r}")
            return len(docs), len(docs)
        failed = 0
        for doc, ans in zip(docs, answers):
            if ans.source == "error":
                failed += 1
                self.problem(f"error answer: {ans.answer['stats']['error']}")
                continue
            if ans.source != source:
                self.problem(f"expected a {source} answer, got {ans.source}")
            self.verify(doc, ans.answer)
        return len(docs), failed


class ServeCold(Workload):
    """Batches of 4 distinct GEMM queries against an empty store."""

    golden_table = "serve"
    batches = staticmethod(wl.serve_cold_batches)
    computes_on_pool = True

    def setup(self) -> None:
        super().setup()
        self.stream = self.batches(self.seed)
        self.epoch = 0
        self.engine = self._engine()

    def _engine(self) -> Any:
        from repro.serve import QueryEngine

        return QueryEngine(self.fresh_dir(), pool=self.pool)

    def next_request(self) -> Any:
        epoch, docs = next(self.stream)
        if epoch != self.epoch:
            # A new epoch repeats earlier inputs: a fresh store keeps
            # every query a cache miss.
            self.epoch = epoch
            self.engine = self._engine()
        return docs

    def execute(self, docs: Any) -> Any:
        return self.engine.run_batch(docs)

    def check(self, docs: Any, answers: Any,
              err: Optional[BaseException]) -> Tuple[int, int]:
        return self.check_served(docs, answers, err, "computed")


class ExhibitCold(ServeCold):
    """Stencil and conv exhibit queries, one per request, served cold."""

    golden_table = "exhibit"
    batches = staticmethod(wl.exhibit_batches)
    # One query per batch: the engine computes it inline.
    computes_on_pool = False


class ServeHot(Workload):
    """Zipf repeats of a pre-filled store, in batches of 16: all hits."""

    golden_table = "serve"

    def setup(self) -> None:
        from repro.serve import QueryEngine

        super().setup()
        self.engine = QueryEngine(self.fresh_dir(), pool=self.pool)
        prefill = wl.serve_hot_prefill(self.seed)
        self.lines: Dict[str, str] = {}
        for start in range(0, len(prefill), wl.SERVE_BATCH):
            docs = prefill[start:start + wl.SERVE_BATCH]
            for doc, ans in zip(docs, self.engine.run_batch(docs)):
                if ans.source != "computed":
                    raise BenchError(f"pre-fill answer was {ans.source}")
                self.lines[ans.key] = self.verify(doc, ans.answer)
        self.answers = {key: json.loads(line)
                        for key, line in self.lines.items()}
        self.byte_checked: Set[str] = set()
        self.stream = wl.serve_hot_batches(self.seed)

    def next_request(self) -> Any:
        return next(self.stream)

    def execute(self, docs: Any) -> Any:
        return self.engine.run_batch(docs)

    def check(self, docs: Any, answers: Any,
              err: Optional[BaseException]) -> Tuple[int, int]:
        if err is not None:
            self.problem(f"run_batch raised {err!r}")
            return len(docs), len(docs)
        failed = 0
        for ans in answers:
            if ans.source != "hit":
                failed += ans.source == "error"
                self.problem(f"expected a hit, got {ans.source}")
                continue
            # A hit byte-equal to its pre-fill answer passes validate_report
            # as that answer did; only a differing one needs validating.
            # Equal values can still print differently (1 and 1.0), so
            # each key's first hit is compared as bytes; later hits of it
            # parse the same store file, and comparing values is cheaper.
            same = ans.answer == self.answers.get(ans.key)
            if same and ans.key not in self.byte_checked:
                same = ans.to_json_line() == self.lines[ans.key]
                self.byte_checked.add(ans.key)
            if not same:
                self.problem(f"hit for {ans.key[:12]} differs from pre-fill")
                for issue in self._validate(ans.answer)[:1]:
                    self.problem(f"answer fails validate_report: {issue}")
        return len(docs), failed


class TuneCold(Workload):
    """``tune_search`` calls, each on a fresh empty store."""

    golden_table = "tune"
    computes_on_pool = True

    def setup(self) -> None:
        super().setup()
        self.stream = wl.tune_stream(self.seed)

    def next_request(self) -> Any:
        from repro.serve.store import ResultStore

        _, kwargs = next(self.stream)
        return kwargs, ResultStore(self.fresh_dir())

    def execute(self, req: Any) -> Any:
        from repro.tune import tune_search

        kwargs, store = req
        return tune_search(**kwargs, store=store, pool=self.pool)

    def check(self, req: Any, result: Any,
              err: Optional[BaseException]) -> Tuple[int, int]:
        kwargs, store = req
        try:
            if err is not None:
                self.problem(f"tune_search raised {err!r}")
                return 1, 1
            # Every memoized evaluation is a RunReport answer on disk.
            for key in store.keys():
                entry = json.loads(store.path_for(key).read_text())
                for issue in self._validate(entry["answer"])[:1]:
                    self.problem(f"eval answer fails validate_report: {issue}")
            self.verify(kwargs, result, report=False)
            winner = result["winner"]["candidate"]
            got = (winner["mr"], winner["nr"], winner["kc"])
            if kwargs["machine"] == "xgene" and got != XGENE_WINNER:
                self.problem(f"xgene seed {kwargs['seed']} winner {got}, "
                             f"expected {XGENE_WINNER}")
            memo = result["memo"]
            return memo["analytic"]["misses"] + memo["timed"]["misses"], 0
        finally:
            shutil.rmtree(store.root, ignore_errors=True)


CLASSES = {
    "serve-cold": ServeCold,
    "serve-hot": ServeHot,
    "tune-cold": TuneCold,
    "exhibit-cold": ExhibitCold,
}


# -- measurement --------------------------------------------------------------


class Measurement:
    """What the closed loop observed.

    ``latencies`` are raw seconds; ``normalized`` holds the same requests
    scaled by the reference slices timed before and after their block.
    """

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.normalized: List[float] = []
        self.slices: List[float] = []
        self.windows: List[Tuple[float, float]] = []
        self.ops = 0
        self.failed = 0
        self.measured = 0.0
        self.wall = 0.0

    def calibrate(self, reference: Reference, before: float,
                  block_s: float) -> float:
        """Time one slice per ``CALIBRATE_EVERY_S`` of the block just
        sent, normalize the block's requests by the median slice time
        before and after it, and return the median after."""
        count = max(1, round(block_s / CALIBRATE_EVERY_S))
        times = [reference.slice() for _ in range(count)]
        self.slices.extend(times)
        after = statistics.median(times)
        scale = NOMINAL_SLICE_S / ((before + after) / 2)
        self.normalized.extend(
            t * scale for t in self.latencies[len(self.normalized):])
        return after

    @property
    def normalized_s(self) -> float:
        return sum(self.normalized)


def measure(workload: Workload, reference: Reference,
            seconds: float) -> Measurement:
    """Send requests one after another until ``seconds`` of them, timing
    a reference slice after every ``CALIBRATE_EVERY_S`` of requests."""
    m = Measurement()
    # Hard stop well inside the per-run time limit, whatever the gate costs.
    wall_cap = 3 * seconds + 30
    start = time.perf_counter()
    before = statistics.median(reference.slice() for _ in range(3))
    block_s = 0.0
    while m.measured < seconds and time.perf_counter() - start < wall_cap:
        req = workload.next_request()
        t0 = time.perf_counter()
        try:
            out, err = workload.execute(req), None
        except Exception as exc:  # counted as failed ops, loop goes on
            out, err = None, exc
        t1 = time.perf_counter()
        ops, failed = workload.check(req, out, err)
        m.latencies.append(t1 - t0)
        m.windows.append((t0, t1))
        m.measured += t1 - t0
        m.ops += ops
        m.failed += failed
        block_s += t1 - t0
        if block_s >= CALIBRATE_EVERY_S:
            before = m.calibrate(reference, before, block_s)
            block_s = 0.0
    if len(m.normalized) < len(m.latencies):
        m.calibrate(reference, before, block_s)
    m.wall = time.perf_counter() - start
    return m


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(percentile, value)`` of the highest ladder rung with enough
    samples beyond it, or ``None`` when the run is too short."""
    n = len(values)
    for pct in TAIL_LADDER:
        if n - max(1, math.ceil(pct / 100.0 * n)) >= TAIL_BEYOND:
            return pct, percentile(values, pct)
    return None


def setup_probe(workload: str, seed: int) -> float:
    """``setup_s`` of one fresh process (imports, pool, store, pre-fill)."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def untraced_ops_per_s(workload: str, seed: int, seconds: float) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])[
        "metrics"]["ops_per_s"]["value"]


def listed_metrics(kind: str) -> List[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [entry["name"] for entry in spec[kind]]


def emit(correct: bool, m: Measurement,
         metrics: Dict[str, Tuple[float, str]], kind: str) -> None:
    names = listed_metrics(kind)
    missing = [n for n in names if n not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, m.ops),
        "failed": m.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                    for n in names},
    }))


def end_to_end(m: Measurement, setups: List[float]) -> Dict[str, Tuple[float, str]]:
    done = m.ops - m.failed
    return {
        "ops_per_s": (done / m.normalized_s, "1/s"),
        "latency_p50_ms": (statistics.median(m.normalized) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def print_end_to_end(name: str, m: Measurement,
                     metrics: Dict[str, Tuple[float, str]],
                     setups: List[float]) -> None:
    print(f"{name}: {len(m.latencies)} requests, {m.ops} ops, "
          f"{m.measured:.2f} s measured ({m.wall:.2f} s wall); "
          f"{len(m.slices)} reference slices, median "
          f"{statistics.median(m.slices) * 1e3:.2f} ms "
          f"(nominal {NOMINAL_SLICE_S * 1e3:.2f} ms)")
    for key in ("ops_per_s", "latency_p50_ms"):
        print(f"  {key:<16} {metrics[key][0]:12.4f} {metrics[key][1]}")
    raw_rate = (m.ops - m.failed) / m.measured
    raw_p50 = statistics.median(m.latencies) * 1e3
    print(f"  {'raw':<16} {raw_rate:12.4f} 1/s, p50 {raw_p50:.4f} ms "
          "(not normalized)")
    tl = tail(m.normalized)
    if tl is None:
        print(f"  {'latency_tail_ms':<16} {'omitted':>12} "
              f"(only {len(m.latencies)} requests)")
    else:
        print(f"  {'latency_tail_ms':<16} {tl[1] * 1e3:12.4f} ms "
              f"(p{tl[0]:g} of {len(m.latencies)} requests)")
    rate = m.failed / m.ops if m.ops else 0.0
    print(f"  {'error_rate':<16} {rate:12.4f} ratio ({m.failed}/{m.ops})")
    print(f"  {'setup_s':<16} {metrics['setup_s'][0]:12.4f} s (median of "
          + ", ".join(f"{s:.3f}" for s in setups)
          + "; the first is this run's)")
    print(f"  {'peak_rss_mb':<16} {metrics['peak_rss_mb'][0]:12.1f} MB")


# -- main ---------------------------------------------------------------------


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print setup seconds, exit")
    return p.parse_args(argv)


def run(args: argparse.Namespace, work: Path) -> int:
    import_program(args.workload)
    golden = json.loads((HERE / "golden.json").read_text())
    workload = CLASSES[args.workload](args.seed, work, golden)
    try:
        workload.setup()
        setup_s = time.perf_counter() - _T0
        # Set-up ran on this thread, so its slices do too.
        setup_s *= Reference(work).scale()
        if args.setup_probe:
            print(f"{setup_s:.6f}")
            return 0
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        reference = Reference(
            work, workload.pool if workload.computes_on_pool else None)
        m = measure(workload, reference, args.seconds)
    finally:
        workload.close()
    if tracer is not None:
        layers = trace_report(args, workload, tracer, m)
    else:
        setups = [setup_s] + [setup_probe(args.workload, args.seed)
                              for _ in range(SETUP_PROBES)]
        metrics = end_to_end(m, setups)
        print_end_to_end(args.workload, m, metrics, setups)
    problems = workload.problems
    if workload.problem_count > len(problems):
        problems = problems + [
            f"... {workload.problem_count - len(problems)} more"]
    for text in problems:
        print(f"GATE FAILURE: {text}")
    correct = workload.problem_count == 0
    print("gate: " + ("ok" if correct else "FAILED"))
    if tracer is not None:
        emit(correct, m, layers, "per_layer")
    else:
        emit(correct, m, metrics, "end_to_end")
    return 0 if correct and m.failed == 0 else 1


def trace_report(args: argparse.Namespace, workload: Workload,
                 tracer: Any, m: Measurement) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics plus the tracer's self-check (gate problems)."""
    from tracer import PER_OP_COUNTS, layer_metrics, zero_call_problems

    for text in tracer.placement_problems():
        workload.problem(f"tracer: {text}")
    stats, extras = tracer.totals()
    layers = layer_metrics(stats, extras)
    for text in zero_call_problems(args.workload, layers):
        workload.problem(f"tracer: {text}")
    # Spans only run inside requests, so request time is the wall clock
    # they can overlap; each pool worker adds one more thread of it.
    self_sum = sum(rec[1] for rec in stats.values())
    limit = m.measured * (1 + POOL_THREADS)
    if self_sum > limit:
        workload.problem(f"tracer: summed self time {self_sum:.3f} s exceeds "
                         f"request time x (1 + pool threads) = {limit:.3f} s")
    # Self time as a share of request time: comparable across runs of
    # one length, and an honest 0 for a layer the workload never calls.
    for name in [n for n in layers if n.endswith("self_s")]:
        layers[name[:-len("self_s")] + "share"] = (
            layers[name][0] / m.measured, "ratio")
    for name in ("pool.queue_wait", "pool.run"):
        layers[f"{name}_share"] = (layers[f"{name}_s"][0] / m.measured,
                                   "ratio")
    done = max(1, m.ops - m.failed)
    for name in PER_OP_COUNTS:
        layers[f"{name}_per_op"] = (layers[name][0] / done, "1/op")
    unattributed = m.measured - tracer.covered_seconds(m.windows)
    traced = (m.ops - m.failed) / m.normalized_s
    untraced = untraced_ops_per_s(args.workload, args.seed, args.seconds)
    layers["trace.request_s"] = (m.measured, "s")
    layers["trace.self_sum_s"] = (self_sum, "s")
    layers["trace.unattributed_s"] = (unattributed, "s")
    layers["trace.unattributed_share"] = (unattributed / m.measured, "ratio")
    layers["trace.ops_per_s"] = (traced, "1/s")
    layers["trace.overhead"] = (traced / untraced if untraced else 0.0,
                                "ratio")
    print(f"{args.workload} traced: {len(m.latencies)} requests, {m.ops} ops, "
          f"{m.measured:.2f} s measured; untraced child {untraced:.4f} ops/s")
    width = max(len(n) for n in layers)
    for name, (value, unit) in layers.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        print(f"  {name:<{width}} {shown} {unit}")
    return layers


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    work_root = ROOT / ".perfbench-work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        return run(args, work)
    except (BenchError, ImportError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as exc:
        print(f"perfbench: cannot run: {exc!r}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
