"""Command-line interface.

Exposes the library's main entry points without writing Python::

    repro blocks --mr 8 --nr 6 --threads 8     # Table III derivation
    repro kernel --variant OpenBLAS-8x6        # Fig. 8 assembly
    repro simulate --kernel OpenBLAS-8x6 --size 4096 --threads 8
    repro microbench                           # Table IV ladder
    repro cachesim --kernel OpenBLAS-8x6       # cache replay, both engines
    repro timed --kernel OpenBLAS-8x6          # timed run, both engines
    repro pool --threads 4                     # worker-pool engine timing
    repro sweep --threads 8 --start 256 --stop 6400 --step 512
    repro verify --suite all --seed 0          # differential fuzz sweep
    repro verify --replay tests/cases/x.json   # re-run a shrunk case
    repro query --batch jobs.jsonl             # memoized query serving
    repro serve --warm xgene                   # pre-warm the result cache
    repro asym --machine big_little            # big.LITTLE partition/energy
    repro stencil --smoke                      # blocked-vs-unblocked stencil
    repro conv --smoke                         # direct-vs-im2col convolution
    repro report out.json                      # render a structured report
    repro report --diff baseline.json out.json # regression comparison

All subcommands print plain text and accept ``--json <path>`` to also
write a structured, schema-versioned :class:`~repro.obs.RunReport`
(engine selections, metric counters, stat-object snapshots) — the input
of ``repro report``. ``main`` returns a process exit code so it can be
unit-tested directly.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Dict, List, Optional

from repro._version import __version__
from repro.analysis.experiments import EXHIBITS, table4_microbench
from repro.analysis.report import format_series, format_table
from repro.arch.presets import XGENE, get_preset, preset_names
from repro.blocking.cache_blocking import solve_cache_blocking
from repro.blocking.register_blocking import RegisterBlockingProblem
from repro.errors import ReproError
from repro.kernels.variants import VARIANTS, get_variant
from repro.obs import MetricsRegistry, RunReport
from repro.sim.gemm_sim import GemmSimulator


def _wants_report(args: argparse.Namespace) -> bool:
    return bool(getattr(args, "json", None))


def _emit_report(
    args: argparse.Namespace,
    command: str,
    params: Dict[str, Any],
    engines: Optional[Dict[str, Dict[str, Any]]] = None,
    metrics: Optional[MetricsRegistry] = None,
    stats: Optional[Dict[str, Any]] = None,
) -> None:
    """Write a validated RunReport to ``args.json`` when requested."""
    if not _wants_report(args):
        return
    report = RunReport(
        command=command,
        created=time.strftime("%Y-%m-%dT%H:%M:%S"),
        params=params,
        engines=engines or {},
        metrics=metrics.as_dict() if metrics is not None else {},
        stats=stats or {},
    )
    report.write(args.json)
    print(f"wrote {args.json}")


def _cmd_blocks(args: argparse.Namespace) -> int:
    chip = XGENE
    if args.mr is None or args.nr is None:
        best = RegisterBlockingProblem.from_core(chip.core).solve()
        mr, nr = best.mr, best.nr
        print(f"register blocking: {mr}x{nr} (gamma {best.gamma:.3f}, "
              f"nrf {best.nrf})")
    else:
        mr, nr = args.mr, args.nr
    blk = solve_cache_blocking(chip, mr, nr, threads=args.threads)
    print(f"cache blocking for {args.threads} thread(s) on {chip.name}: "
          f"{blk}  (k1={blk.k1}, k2={blk.k2}, k3={blk.k3})")
    _emit_report(
        args, "blocks",
        params={"mr": mr, "nr": nr, "threads": args.threads},
        stats={"blocking": {
            "mr": blk.mr, "nr": blk.nr, "kc": blk.kc, "mc": blk.mc,
            "nc": blk.nc, "k1": blk.k1, "k2": blk.k2, "k3": blk.k3,
        }},
    )
    return 0


def _cmd_kernel(args: argparse.Namespace) -> int:
    kernel = get_variant(args.variant, kc=args.kc)
    body = kernel.body
    print(f"// {args.variant}: {len(body)} instructions per body "
          f"({body.num_fmla} fmla, {body.num_loads} ldr, "
          f"{body.num_prefetches} prfm), LDR:FMLA = "
          f"{body.ldr_fmla_ratio[0]}:{body.ldr_fmla_ratio[1]}")
    print(f"// rotation distance {kernel.plan.min_distance}, "
          f"schedule distance {kernel.schedule.min_load_use_distance}")
    print(body.to_text())
    _emit_report(
        args, "kernel",
        params={"variant": args.variant, "kc": args.kc},
        stats={"body": {
            "instructions": len(body),
            "fmla": body.num_fmla,
            "ldr": body.num_loads,
            "prfm": body.num_prefetches,
            "rotation_distance": kernel.plan.min_distance,
            "schedule_distance": kernel.schedule.min_load_use_distance,
        }},
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    metrics = MetricsRegistry() if _wants_report(args) else None
    sim = GemmSimulator(XGENE, metrics=metrics)
    m = args.m or args.size
    n = args.n or args.size
    k = args.k or args.size
    perf = sim.simulate(args.kernel, m, n, k, threads=args.threads)
    print(f"{args.kernel} on {m}x{n}x{k}, {args.threads} thread(s): "
          f"{perf.gflops:.2f} Gflops ({perf.efficiency:.1%} of "
          f"{XGENE.peak_flops_for(args.threads) / 1e9:.1f} Gflops peak)")
    print(f"blocking: {perf.blocking}")
    total = sum(v for k_, v in perf.breakdown.items()
                if k_ != "bandwidth_floor")
    for name, cycles in perf.breakdown.items():
        if name == "bandwidth_floor":
            continue
        print(f"  {name:10s} {cycles / max(total, 1):6.1%} of modeled cycles")
    _emit_report(
        args, "simulate",
        params={"kernel": args.kernel, "m": m, "n": n, "k": k,
                "threads": args.threads},
        engines={"model": {"requested": "analytic", "selected": "analytic",
                           "fallback_reason": None}},
        metrics=metrics,
        stats={"performance": {
            "cycles": perf.cycles,
            "flops": perf.flops,
            "gflops": perf.gflops,
            "efficiency": perf.efficiency,
            "l1_loads": perf.l1_loads,
            "breakdown": dict(perf.breakdown),
        }},
    )
    return 0


def _cmd_microbench(args: argparse.Namespace) -> int:
    rows = table4_microbench()
    print(EXHIBITS["table4_microbench"].render(rows, ()))
    _emit_report(
        args, "microbench",
        params={},
        stats={"ladder": {
            r.ratio_label: {
                "model_efficiency": r.model_efficiency,
                "paper_efficiency": r.paper_efficiency,
            }
            for r in rows
        }},
    )
    return 0


def _cmd_pool(args: argparse.Namespace) -> int:
    """Exercise the persistent-pool parallel engine on real OS threads.

    Times a loop of small-matrix ``parallel_dgemm`` calls under the
    per-iteration thread-spawn baseline and under the persistent worker
    pool, then prints the pool's per-thread pack/GEBP counters — the
    engine's observability hook.
    """
    import time

    import numpy as np

    from repro.blocking.cache_blocking import CacheBlocking
    from repro.gemm import PoolStats, WorkerPool, parallel_dgemm

    if args.reps < 1:
        raise ReproError(f"--reps must be >= 1, got {args.reps}")
    if args.size < 1:
        raise ReproError(f"--size must be >= 1, got {args.size}")
    rng = np.random.default_rng(0)
    size = args.size
    a = np.asfortranarray(rng.standard_normal((size, size)))
    b = np.asfortranarray(rng.standard_normal((size, size)))
    c = np.asfortranarray(rng.standard_normal((size, size)))
    # Small blocks so the loop nest has many barrier steps — the regime
    # where engine overhead, not arithmetic, dominates.
    blk = CacheBlocking(mr=8, nr=6, kc=64, mc=24, nc=48, k1=1, k2=2, k3=1)

    def run_loop(pool) -> float:
        parallel_dgemm(a, b, c.copy(order="F"), threads=args.threads,
                       blocking=blk, use_os_threads=True, pool=pool)
        t0 = time.perf_counter()
        for _ in range(args.reps):
            parallel_dgemm(a, b, c.copy(order="F"), threads=args.threads,
                           blocking=blk, use_os_threads=True, pool=pool)
        return time.perf_counter() - t0

    spawn_s = run_loop("spawn")
    with WorkerPool(args.threads) as pool:
        pool_s = run_loop(pool)
        stats = PoolStats()
        parallel_dgemm(a, b, c.copy(order="F"), threads=args.threads,
                       blocking=blk, use_os_threads=True, pool=pool,
                       stats=stats)
    print(format_table(
        ["engine", "total s", "ms/call"],
        [["spawn-per-iteration", spawn_s, spawn_s / args.reps * 1e3],
         ["persistent pool", pool_s, pool_s / args.reps * 1e3]],
        title=f"{size}x{size}x{size}, {args.threads} threads, "
              f"{args.reps} calls",
    ))
    print(f"pool speedup: {spawn_s / pool_s:.2f}x over per-iteration "
          f"spawning ({stats.steps} barrier steps/call)")
    print(format_table(
        ["thread", "packA", "packB", "gebp",
         "packA ms", "packB ms", "gebp ms"],
        stats.summary_rows(),
        title="per-thread counters (one call)",
    ))
    from repro.obs import snapshot_pool_stats

    _emit_report(
        args, "pool",
        params={"threads": args.threads, "size": args.size,
                "reps": args.reps},
        engines={"pool": {"requested": "persistent",
                          "selected": "persistent",
                          "fallback_reason": None}},
        stats={
            "pool": snapshot_pool_stats(stats),
            "timing": {
                "spawn_seconds": spawn_s,
                "pool_seconds": pool_s,
                "speedup": spawn_s / pool_s,
            },
        },
    )
    return 0


def _cmd_cachesim(args: argparse.Namespace) -> int:
    """Replay a GEBP slice through the cache sim, timing both engines.

    Runs the scalar oracle and the vectorized batched engine on fresh
    identical hierarchies, checks their counters are bit-identical and
    prints throughput plus the Table VII miss-rate view.
    """
    import dataclasses
    import time

    from repro.memory.hierarchy import MemoryHierarchy
    from repro.sim.gebp_cachesim import gebp_traces, simulate_gebp_cache

    sim = GemmSimulator(XGENE)
    spec = VARIANTS[args.kernel]
    blk = sim.default_blocking(args.kernel, args.threads)
    warm, main_trace, _ = gebp_traces(
        spec, blk, chip=XGENE, nc_slice=args.nc_slice
    )
    line = XGENE.l1d.line_bytes
    accesses = warm.line_count(line) + main_trace.line_count(line)

    metrics = MetricsRegistry() if _wants_report(args) else None
    results = {}
    timings = {}
    hierarchies = {}
    for engine in ("scalar", "batched"):
        h = MemoryHierarchy(XGENE, seed=args.seed)
        hierarchies[engine] = h
        t0 = time.perf_counter()
        results[engine] = simulate_gebp_cache(
            spec, blk, chip=XGENE, hierarchy=h,
            nc_slice=args.nc_slice, engine=engine, metrics=metrics,
        )
        timings[engine] = time.perf_counter() - t0

    identical = dataclasses.astuple(results["scalar"]) == dataclasses.astuple(
        results["batched"]
    )
    print(f"{args.kernel}, {args.threads} thread(s), blocking {blk}")
    print(format_table(
        ["engine", "seconds", "accesses/s"],
        [[e, timings[e], accesses / timings[e]] for e in results],
        title=f"replay of {accesses} line accesses",
    ))
    print(f"speedup: {timings['scalar'] / timings['batched']:.1f}x, "
          f"counters bit-identical: {identical}")
    r = results["batched"]
    print(f"L1: {r.l1_loads} loads, {r.l1_load_misses} misses "
          f"({r.l1_load_miss_rate:.2%}); L2: {r.l2_loads} loads, "
          f"{r.l2_load_misses} misses; DRAM: {r.dram_accesses} lines")
    from repro.obs import snapshot_gebp_cache_result, snapshot_hierarchy

    _emit_report(
        args, "cachesim",
        params={"kernel": args.kernel, "threads": args.threads,
                "nc_slice": args.nc_slice, "seed": args.seed},
        engines={
            e: {"requested": e, "selected": e, "fallback_reason": None}
            for e in results
        },
        metrics=metrics,
        stats={
            "result": snapshot_gebp_cache_result(r),
            "hierarchy": snapshot_hierarchy(hierarchies["batched"]),
            "identical": identical,
        },
    )
    if not identical:
        print("error: engines disagree", file=sys.stderr)
        return 1
    return 0


def _cmd_timed(args: argparse.Namespace) -> int:
    """Timing-functional kernel run, comparing execution engines.

    With ``--engine both`` (the default) runs one micro-tile of the
    chosen variant through the interpreted oracle and the compiled
    template engine, checks every observable (cycles, stall breakdown,
    load-latency histogram, C values) is bit-identical, and prints the
    timing detail plus engine throughput. With a single engine runs only
    that one; ``auto`` and ``compiled`` both run the compiled engine,
    which errors with the compilability reason on a kernel it cannot
    lower.
    """
    import time

    import numpy as np

    metrics = MetricsRegistry() if _wants_report(args) else None
    sim = GemmSimulator(XGENE, metrics=metrics)
    engine_list = (
        ["interpreted", "compiled"]
        if args.engine == "both"
        else [args.engine]
    )
    runs = {}
    timings = {}
    for engine in engine_list:
        t0 = time.perf_counter()
        runs[engine] = sim.timed_kernel(
            args.kernel, kc=args.kc, engine=engine, hw_late=args.hw_late,
            seed=args.seed,
        )
        timings[engine] = time.perf_counter() - t0
    identical = True
    if args.engine == "both":
        ri, rc = runs["interpreted"], runs["compiled"]
        identical = (
            ri.pipeline == rc.pipeline
            and ri.load_latencies == rc.load_latencies
            and np.array_equal(ri.c_tile, rc.c_tile)
        )
    r = runs[engine_list[-1]]
    kc = args.kc or round(r.cycles / r.cycles_per_iteration)
    print(f"{args.kernel}, kc={kc}: {r.cycles} cycles "
          f"({r.cycles_per_iteration:.3f}/iter), "
          f"efficiency {r.efficiency:.1%}")
    p = r.pipeline
    print(f"stalls: raw {p.raw_stall_cycles}, structural "
          f"{p.structural_stall_cycles}, war {p.war_stall_cycles}; "
          f"ipc {p.ipc:.2f}")
    hist = ", ".join(
        f"{lat}cy x{cnt}" for lat, cnt in sorted(r.load_latencies.items())
    )
    print(f"load latencies: {hist}")
    print(format_table(
        ["engine", "seconds", "k-iters/s"],
        [[e, timings[e], kc / timings[e]] for e in runs],
        title="engine timing",
    ))
    if args.engine == "both":
        print(f"speedup: "
              f"{timings['interpreted'] / timings['compiled']:.1f}x, "
              f"bit-identical: {identical}")
    else:
        print(f"engine: {r.engine} (requested {args.engine})")
    from repro.obs import snapshot_timed_run

    _emit_report(
        args, "timed",
        params={"kernel": args.kernel, "kc": kc, "hw_late": args.hw_late,
                "engine": args.engine, "seed": args.seed},
        engines={
            # fallback_reason stays null for report-schema compatibility.
            e: {"requested": args.engine, "selected": run.engine,
                "fallback_reason": None}
            for e, run in runs.items()
        },
        metrics=metrics,
        stats={
            "run": snapshot_timed_run(r),
            "identical": identical,
        },
    )
    if not identical:
        print("error: engines disagree", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    metrics = MetricsRegistry() if _wants_report(args) else None
    sim = GemmSimulator(XGENE, metrics=metrics)
    sizes = list(range(args.start, args.stop + 1, args.step))
    series = []
    for kernel in args.kernels:
        gfs = [
            sim.simulate(kernel, s, s, s, threads=args.threads).gflops
            for s in sizes
        ]
        series.append((kernel, gfs))
    print(format_series(sizes, series, x_label="size",
                        title=f"Gflops vs size ({args.threads} thread(s))"))
    _emit_report(
        args, "sweep",
        params={"kernels": list(args.kernels), "threads": args.threads,
                "start": args.start, "stop": args.stop, "step": args.step},
        metrics=metrics,
        stats={"gflops": {
            kernel: {str(s): gf for s, gf in zip(sizes, gfs)}
            for kernel, gfs in series
        }},
    )
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    """Regenerate every paper exhibit into a results directory."""
    import pathlib

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sizes = tuple(range(args.start, args.stop + 1, args.step))
    for name, exhibit in EXHIBITS.items():
        path = out / f"{name}.txt"
        path.write_text(exhibit.render(exhibit.run(sizes), sizes) + "\n")
        print(f"wrote {path}")
    print(f"all exhibits written to {out}/")
    _emit_report(
        args, "experiments",
        params={"out": str(out), "start": args.start, "stop": args.stop,
                "step": args.step},
        stats={"exhibits": {name: True for name in sorted(EXHIBITS)}},
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Differential verification: fuzz sweep, self-test, case replay.

    The default mode runs a seeded sweep of every selected oracle plus
    the mutation self-test, prints a per-oracle summary, and exits
    nonzero if any case mismatches or the self-test fails to catch its
    injected fault. ``--replay FILE`` instead re-runs one committed case
    file; ``--list`` just prints the registry.
    """
    from repro.verify import (
        BUDGETS,
        all_oracles,
        replay_case,
        run_suite,
        suites,
    )

    if args.list:
        print(format_table(
            ["oracle", "suite", "checks"],
            [[o.name, o.suite, o.description] for o in all_oracles()],
            title=f"registered oracles (suites: {', '.join(suites())})",
        ))
        return 0

    if args.replay is not None:
        outcome = replay_case(args.replay)
        status = "PASS" if outcome.ok else "FAIL"
        print(f"{args.replay}: oracle {outcome.oracle} -> {status}")
        for mismatch in outcome.mismatches[:10]:
            print(f"  {mismatch}")
        _emit_report(
            args, "verify",
            params={"replay": str(args.replay), "oracle": outcome.oracle},
            stats={"verify": {
                "replay": str(args.replay),
                "oracle": outcome.oracle,
                "passed": outcome.ok,
                "mismatches": outcome.mismatches[:10],
            }},
        )
        return 0 if outcome.ok else 1

    doc = run_suite(
        seed=args.seed,
        budget=args.budget,
        suite=args.suite,
        selftest=not args.no_selftest,
        shrink_dir=args.cases_dir,
    )
    cases = BUDGETS[args.budget]
    rows = []
    for name, entry in doc["oracles"].items():
        rows.append([
            name,
            entry["cases"],
            len(entry["failures"]),
            "pass" if entry["passed"] else "FAIL",
        ])
    print(format_table(
        ["oracle", "cases", "failures", "status"],
        rows,
        title=f"verify sweep: suite={args.suite} seed={args.seed} "
              f"budget={args.budget} ({cases} cases/oracle)",
    ))
    for name, entry in doc["oracles"].items():
        for failure in entry["failures"]:
            print(f"{name} case {failure['case_index']} mismatches:")
            for mismatch in failure["mismatches"][:5]:
                print(f"  {mismatch}")
            if "case_file" in failure:
                print(f"  shrunk repro written to {failure['case_file']}")
    if "selftest" in doc:
        caught = doc["selftest"]["passed"]
        print(f"mutation self-test: "
              f"{'fault caught by every oracle' if caught else 'FAILED'}")
    print(f"verify: {'PASS' if doc['passed'] else 'FAIL'}")
    _emit_report(
        args, "verify",
        params={"suite": args.suite, "seed": args.seed,
                "budget": args.budget},
        stats={"verify": doc},
    )
    return 0 if doc["passed"] else 1


def _load_batch(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL batch file (``-`` = stdin); blank/# lines skipped."""
    import json

    if path == "-":
        fh = sys.stdin
    else:
        try:
            fh = open(path)
        except OSError as exc:
            raise ReproError(f"cannot read batch file {path}: {exc}")
    try:
        docs = []
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                docs.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ReproError(
                    f"{path}:{lineno}: not a JSON query document: {exc}"
                )
        return docs
    finally:
        if fh is not sys.stdin:
            fh.close()


def _serve_engine(args: argparse.Namespace, metrics):
    """A QueryEngine (and its pool, or None) per the CLI options."""
    from repro.gemm.pool import WorkerPool
    from repro.serve import QueryEngine

    if args.threads < 1:
        raise ReproError(f"--threads must be >= 1, got {args.threads}")
    pool = WorkerPool(args.threads) if args.threads > 1 else None
    return QueryEngine(args.cache_dir, pool=pool, metrics=metrics), pool


def _cmd_query(args: argparse.Namespace) -> int:
    """Serve a batch of query documents through the memoized engine.

    Reads one JSON query per line from ``--batch``, answers each from
    the on-disk result cache (computing, deduplicating and persisting
    misses on the worker pool), and streams one RunReport-schema answer
    document per line to stdout (or ``--out``). The serving summary goes
    to stderr so piped answer streams stay clean. ``--expect-all-hits``
    exits nonzero unless every query was served from the cache — the
    hook CI uses to prove cache persistence across process runs.
    """
    docs = _load_batch(args.batch)
    metrics = MetricsRegistry() if _wants_report(args) else None
    engine, pool = _serve_engine(args, metrics)
    try:
        t0 = time.perf_counter()
        answers = engine.run_batch(docs)
        elapsed = time.perf_counter() - t0
    finally:
        if pool is not None:
            pool.close()
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for answer in answers:
            out.write(answer.to_json_line() + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    s = engine.stats
    rate = s.queries / elapsed if elapsed > 0 else float("inf")
    print(
        f"served {s.queries} queries in {elapsed:.3f}s ({rate:.0f}/s): "
        f"{s.hits} hits, {s.computed} computed, {s.deduped} deduped, "
        f"{s.errors} errors [cache {args.cache_dir}, "
        f"{args.threads} thread(s)]",
        file=sys.stderr,
    )
    _emit_report(
        args, "query",
        params={"batch": args.batch, "cache_dir": args.cache_dir,
                "threads": args.threads},
        metrics=metrics,
        stats={
            "serve": s.as_dict(),
            "timing": {
                "elapsed_seconds": elapsed,
                "queries_per_second": rate,
            },
        },
    )
    if args.expect_all_hits and s.hits != s.queries:
        print(
            f"error: expected all {s.queries} queries to hit the cache, "
            f"got {s.hits} hits",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Pre-warm the result cache with a preset's standing query set."""
    from repro.serve import ResultStore, warm_queries

    docs = warm_queries(args.warm)
    metrics = MetricsRegistry() if _wants_report(args) else None
    engine, pool = _serve_engine(args, metrics)
    try:
        t0 = time.perf_counter()
        engine.run_batch(docs)
        elapsed = time.perf_counter() - t0
    finally:
        if pool is not None:
            pool.close()
    s = engine.stats
    store = engine.store if isinstance(engine.store, ResultStore) else None
    print(f"warmed preset {args.warm!r}: {s.queries} queries in "
          f"{elapsed:.3f}s ({s.computed} computed, {s.hits} already "
          f"cached, {s.errors} errors)")
    if store is not None:
        print(f"cache {args.cache_dir}: {len(store)} entries, "
              f"{store.bytes_held()} bytes")
    _emit_report(
        args, "serve",
        params={"warm": args.warm, "cache_dir": args.cache_dir,
                "threads": args.threads},
        metrics=metrics,
        stats={
            "serve": s.as_dict(),
            "timing": {"elapsed_seconds": elapsed},
            "store": {
                "entries": len(store) if store is not None else 0,
                "bytes": store.bytes_held() if store is not None else 0,
            },
        },
    )
    return 1 if s.errors else 0


def _cmd_tune(args: argparse.Namespace) -> int:
    """Run the two-stage kernel search with persistent memoization."""
    from repro.gemm.pool import WorkerPool
    from repro.serve import ResultStore
    from repro.tune import tune_search

    if args.smoke:
        # CI budget: small tile pool, tight neighborhoods, fixed seed.
        args.max_tiles = min(args.max_tiles, 3)
        args.radius = min(args.radius, 1)
        args.seed = 0
    metrics = MetricsRegistry() if _wants_report(args) else None
    store = ResultStore(args.cache_dir) if args.cache_dir else None
    pool = WorkerPool(args.pool) if args.pool > 1 else None
    try:
        t0 = time.perf_counter()
        result = tune_search(
            machine=args.machine,
            threads=args.threads,
            problem_size=args.problem_size,
            max_tiles=args.max_tiles,
            top_k=args.top_k,
            radius=args.radius,
            bodies=args.bodies,
            seed=args.seed,
            store=store,
            pool=pool,
            metrics=metrics,
        )
        elapsed = time.perf_counter() - t0
    finally:
        if pool is not None:
            pool.close()
    win = result["winner"]
    cand = win["candidate"]
    space = result["space"]
    memo = result["memo"]
    hits = memo["analytic"]["hits"] + memo["timed"]["hits"]
    misses = memo["analytic"]["misses"] + memo["timed"]["misses"]
    print(f"tuned {result['machine']} in {elapsed:.3f}s: winner "
          f"{cand['mr']}x{cand['nr']} ({cand['rotation']} rotation, "
          f"{cand['schedule']} schedule) at "
          f"{cand['kc']}x{cand['mc']}x{cand['nc']}")
    print(f"  timed efficiency {win['timed']['efficiency']:.4f} "
          f"(analytic {win['analytic']['efficiency']:.4f})")
    print(f"  space: {space['enumerated']} candidates -> "
          f"{space['analytic_classes']} analytic classes -> "
          f"{space['timed_variants']} timed variants "
          f"(prune {result['stats']['prune_ratio']:.1f}x)")
    print(f"  memo: {hits} hits, {misses} computed"
          + (f" ({args.cache_dir})" if args.cache_dir else " (no store)"))
    _emit_report(
        args, "tune",
        params=dict(result["params"],
                    cache_dir=args.cache_dir or None, pool=args.pool),
        engines={
            "analytic": {"selected": "gemm-sim", "fallback_reason": None},
            "timed": {"selected": "compiled", "fallback_reason": None},
        },
        metrics=metrics,
        stats={
            "space": space,
            "prune_ratio": result["stats"]["prune_ratio"],
            "winner": win,
            "top": result["top"],
            "memo": memo,
            "timing": {"elapsed_seconds": elapsed},
        },
    )
    return 0


def _cmd_asym(args: argparse.Namespace) -> int:
    """The asymmetric-chip exhibit: class-aware partition + energy.

    Prices every placement of interest (each core class alone, all
    cores split symmetrically, all cores split by modeled class rate)
    and prints the performance-vs-energy frontier per size, plus the
    headline weighted-over-symmetric speedup.
    """
    from repro.sim.asym import asym_exhibit

    chip = get_preset(args.machine)
    doc = asym_exhibit(chip=chip, kernel=args.kernel, smoke=args.smoke)
    print(f"{doc['chip']}: " + ", ".join(
        f"{name} x{c['cores']} @ {c['frequency_hz'] / 1e9:.1f} GHz "
        f"({c['modeled_gflops_per_core']:.2f} Gflops/core modeled)"
        for name, c in doc["classes"].items()
    ))
    for entry in doc["sizes"]:
        rows = [
            [name, p["threads"], p["gflops"], p["watts"],
             p["gflops_per_watt"]]
            for name, p in entry["placements"].items()
        ]
        print(format_table(
            ["placement", "T", "Gflops", "W", "Gflops/W"], rows,
            title=f"size {entry['size']}",
        ))
        print(f"  weighted speedup over symmetric: "
              f"{entry['weighted_speedup']:.3f}x")
    _emit_report(
        args, "asym",
        params={"machine": args.machine, "kernel": args.kernel,
                "smoke": args.smoke},
        stats=doc,
    )
    return 0


def _workload_variant_rows(variants: Dict[str, Any]) -> List[List[Any]]:
    return [
        [name, v["l1_loads"], v["l1_load_misses"],
         f"{v['l1_load_miss_rate']:.4f}", v["dram_accesses"],
         v["cycles"], f"{v['gflops']:.3f}"]
        for name, v in variants.items()
    ]


def _cmd_stencil(args: argparse.Namespace) -> int:
    """The stencil exhibit: cache-blocked vs unblocked Jacobi sweeps.

    Proves the variants bit-identical, then prints the Table VII-style
    counter comparison — the blocked tile keeps its halo rows resident
    where the unblocked row-major sweep loses the up-arm reuse.
    """
    from repro.workloads.exhibit import stencil_exhibit

    chip = get_preset(args.machine)
    doc = stencil_exhibit(
        chip, height=args.height, width=args.width, radius=args.radius,
        iterations=args.iterations, seed=args.seed, smoke=args.smoke,
    )
    p = doc["params"]
    print(f"{doc['chip']}: {p['height']}x{p['width']} grid, radius "
          f"{p['radius']}, {p['iterations']} sweep(s), solved tile "
          f"{doc['block']['bi']}x{doc['block']['bj']}")
    print(format_table(
        ["variant", "L1 loads", "L1 misses", "miss rate", "DRAM",
         "cycles", "Gflops"],
        _workload_variant_rows(doc["variants"]),
        title="stencil: blocked vs unblocked",
    ))
    print(f"  bit-identical outputs: {doc['bit_identical']}")
    print(f"  unblocked/blocked miss-rate ratio: "
          f"{doc['miss_rate_ratio']:.3f}x")
    print(f"  blocked speedup: {doc['speedup']:.3f}x")
    _emit_report(
        args, "stencil",
        params={"machine": args.machine, **p},
        stats=doc,
    )
    return 0 if doc["bit_identical"] else 1


def _cmd_conv(args: argparse.Namespace) -> int:
    """The convolution exhibit: direct vs im2col lowering.

    Both lowerings drive the identical GEBP stream; im2col pays the
    patches-matrix round trip through DRAM. Proves both bit-equality
    contracts (lowering-vs-lowering, blocked-vs-unblocked) first.
    """
    from repro.workloads.exhibit import conv_exhibit

    chip = get_preset(args.machine)
    doc = conv_exhibit(
        chip, cin=args.cin, height=args.height, width=args.width,
        kh=args.kh, kw=args.kw, filters=args.filters, seed=args.seed,
        smoke=args.smoke,
    )
    p = doc["params"]
    g = doc["gemm_shape"]
    blk = doc["blocking"]
    print(f"{doc['chip']}: {p['cin']}x{p['height']}x{p['width']} image, "
          f"{p['filters']} {p['kh']}x{p['kw']} filters -> GEMM "
          f"{g['m']}x{g['k']}x{g['n']} at "
          f"mc={blk['mc']} kc={blk['kc']} nc={blk['nc']}")
    print(format_table(
        ["variant", "L1 loads", "L1 misses", "miss rate", "DRAM",
         "cycles", "Gflops"],
        _workload_variant_rows(doc["variants"]),
        title="conv: im2col vs direct",
    ))
    ok = doc["bit_identical"] and doc["bit_identical_unblocked"]
    print(f"  bit-identical lowerings: {doc['bit_identical']}; "
          f"vs unblocked: {doc['bit_identical_unblocked']}")
    print(f"  im2col/direct DRAM ratio: {doc['dram_ratio']:.3f}x")
    print(f"  direct speedup: {doc['speedup']:.3f}x")
    _emit_report(
        args, "conv",
        params={"machine": args.machine, **p},
        stats=doc,
    )
    return 0 if ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    """Render, validate, or diff structured run reports.

    ``repro report out.json`` renders a report; ``--validate`` checks it
    against the schema only; ``--diff BASELINE CURRENT`` runs the
    regression comparator and exits nonzero on regressions (suppress
    with ``--warn-only``).
    """
    import json

    from repro.obs import (
        compare_files,
        flatten,
        format_comparison,
        load_report_dict,
        validate_report,
    )

    if args.diff is not None:
        baseline_path, current_path = args.diff
        comp = compare_files(
            baseline_path, current_path, tolerance=args.tolerance
        )
        print(format_comparison(comp, baseline_path, current_path))
        if args.json:
            doc = {
                "baseline": baseline_path,
                "current": current_path,
                "tolerance": args.tolerance,
                "checked": comp.checked,
                "skipped": comp.skipped,
                "findings": [
                    {"path": f.path, "kind": f.kind, "note": f.note,
                     "baseline": f.baseline, "current": f.current}
                    for f in comp.findings
                ],
            }
            with open(args.json, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {args.json}")
        if comp.regressions and not args.warn_only:
            return 1
        return 0

    if args.path is None:
        raise ReproError("report needs a file path or --diff A B")
    doc = load_report_dict(args.path)
    problems = validate_report(doc)
    if problems:
        for problem in problems:
            print(f"invalid: {problem}", file=sys.stderr)
        return 1
    if args.validate:
        print(f"{args.path}: valid (schema version "
              f"{doc['schema_version']})")
        return 0
    print(f"{doc['command']} report (schema {doc['schema_version']}, "
          f"created {doc.get('created') or 'n/a'})")
    if doc.get("params"):
        print("params: " + ", ".join(
            f"{k}={v}" for k, v in sorted(doc["params"].items())
        ))
    for slot, entry in sorted(doc.get("engines", {}).items()):
        line = (f"engine {slot}: requested {entry.get('requested', '?')}, "
                f"selected {entry.get('selected', '?')}")
        if entry.get("fallback_reason"):
            line += f" (fallback: {entry['fallback_reason']})"
        print(line)
    rows = [
        [path, value]
        for path, value in sorted(flatten(doc.get("stats", {})))
    ]
    if rows:
        print(format_table(["stat", "value"], rows, title="stats"))
    counters = doc.get("metrics", {}).get("counters", {})
    if counters:
        print(format_table(
            ["counter", "value"],
            [[k, v] for k, v in sorted(counters.items())],
            title="metric counters",
        ))
    spans = doc.get("metrics", {}).get("spans", {})
    if spans:
        print(format_table(
            ["span", "count", "seconds"],
            [[k, s.get("count", 0), s.get("seconds", 0.0)]
             for k, s in sorted(spans.items())],
            title="span timers",
        ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ARMv8 DGEMM reproduction (ICPP 2015) toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--json", metavar="PATH", default=None,
            help="also write a structured RunReport document to PATH",
        )

    p = sub.add_parser("blocks", help="derive block sizes analytically")
    p.add_argument("--mr", type=int, default=None)
    p.add_argument("--nr", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    add_json(p)
    p.set_defaults(func=_cmd_blocks)

    p = sub.add_parser("kernel", help="emit register-kernel assembly")
    p.add_argument("--variant", default="OpenBLAS-8x6",
                   choices=sorted(VARIANTS))
    p.add_argument("--kc", type=int, default=512)
    add_json(p)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("simulate", help="predict DGEMM performance")
    p.add_argument("--kernel", default="OpenBLAS-8x6",
                   choices=sorted(VARIANTS))
    p.add_argument("--size", type=int, default=2048)
    p.add_argument("-m", type=int, default=None)
    p.add_argument("-n", type=int, default=None)
    p.add_argument("-k", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    add_json(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("microbench", help="the Table IV LDR:FMLA ladder")
    add_json(p)
    p.set_defaults(func=_cmd_microbench)

    p = sub.add_parser(
        "experiments",
        help="regenerate every paper table/figure into a directory",
    )
    p.add_argument("--out", default="results")
    p.add_argument("--start", type=int, default=256)
    p.add_argument("--stop", type=int, default=6400)
    p.add_argument("--step", type=int, default=512)
    add_json(p)
    p.set_defaults(func=_cmd_experiments)

    p = sub.add_parser(
        "pool",
        help="time the persistent worker pool vs per-iteration spawning "
             "and show per-thread counters",
    )
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--size", type=int, default=160)
    p.add_argument("--reps", type=int, default=10)
    add_json(p)
    p.set_defaults(func=_cmd_pool)

    p = sub.add_parser(
        "cachesim",
        help="event-accurate GEBP cache replay; times scalar vs batched "
             "engines and checks them bit-identical",
    )
    p.add_argument("--kernel", default="OpenBLAS-8x6",
                   choices=sorted(VARIANTS))
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--nc-slice", type=int, default=None)
    p.add_argument("--seed", type=int, default=0,
                   help="RANDOM-replacement victim RNG seed")
    add_json(p)
    p.set_defaults(func=_cmd_cachesim)

    p = sub.add_parser(
        "timed",
        help="timing-functional kernel run; times interpreted vs "
             "compiled engines and checks them bit-identical",
    )
    p.add_argument("--kernel", default="OpenBLAS-8x6",
                   choices=sorted(VARIANTS))
    p.add_argument("--kc", type=int, default=None)
    p.add_argument("--hw-late", type=float, default=0.25)
    p.add_argument("--engine", default="both",
                   choices=["both", "auto", "compiled", "interpreted"],
                   help="run both engines and cross-check (default), or "
                        "a single one ('auto' runs the compiled engine)")
    p.add_argument("--seed", type=int, default=0,
                   help="operand RNG seed")
    add_json(p)
    p.set_defaults(func=_cmd_timed)

    p = sub.add_parser("sweep", help="Gflops vs matrix size")
    p.add_argument("--kernels", nargs="+",
                   default=["OpenBLAS-8x6", "ATLAS-5x5"],
                   choices=sorted(VARIANTS))
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--start", type=int, default=256)
    p.add_argument("--stop", type=int, default=4096)
    p.add_argument("--step", type=int, default=512)
    add_json(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "verify",
        help="differential fuzz sweep of every fast/reference engine "
             "pair, with mutation self-test and case replay",
    )
    p.add_argument("--suite", default="all",
                   help="oracle suite to run ('all', or one of the "
                        "registered suites; see --list)")
    p.add_argument("--seed", type=int, default=0,
                   help="top-level seed deterministically deriving every "
                        "per-oracle case stream")
    p.add_argument("--budget", default="default",
                   choices=["smoke", "default", "deep"],
                   help="cases per oracle")
    p.add_argument("--replay", metavar="FILE", default=None,
                   help="re-run one committed case file instead of "
                        "sweeping")
    p.add_argument("--cases-dir", default="tests/cases",
                   help="where shrunk repro files for new failures are "
                        "written")
    p.add_argument("--no-selftest", action="store_true",
                   help="skip the comparator mutation self-test")
    p.add_argument("--list", action="store_true",
                   help="print the oracle registry and exit")
    add_json(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "query",
        help="serve JSONL query documents from the memoized result "
             "cache, computing misses concurrently on the worker pool",
    )
    p.add_argument("--batch", metavar="FILE", required=True,
                   help="JSONL file with one query document per line "
                        "('-' reads stdin)")
    p.add_argument("--cache-dir", default=".repro-cache",
                   help="result-store directory (created on demand)")
    p.add_argument("--threads", type=int, default=4,
                   help="worker-pool size for computing cache misses "
                        "(1 = compute inline)")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the answer stream here instead of stdout")
    p.add_argument("--expect-all-hits", action="store_true",
                   help="exit nonzero unless every query was served "
                        "from the cache")
    add_json(p)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser(
        "serve",
        help="pre-warm the result cache with a machine preset's "
             "standing query set",
    )
    p.add_argument("--warm", default="all",
                   choices=list(preset_names()) + ["all"],
                   help="which preset's warm query set to compute")
    p.add_argument("--cache-dir", default=".repro-cache",
                   help="result-store directory (created on demand)")
    p.add_argument("--threads", type=int, default=4,
                   help="worker-pool size for computing cache misses")
    add_json(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "tune",
        help="search register tiles, rotation schemes, schedules and "
             "blockings with the two-stage memoized autotuner",
    )
    p.add_argument("--machine", default="xgene",
                   choices=list(preset_names()),
                   help="machine preset to tune for")
    p.add_argument("--threads", type=int, default=1,
                   help="thread count the blocking solver targets")
    p.add_argument("--problem-size", type=int, default=2048,
                   help="square DGEMM size the analytic stage prices")
    p.add_argument("--max-tiles", type=int, default=4,
                   help="top-gamma register tiles to enumerate")
    p.add_argument("--top-k", type=int, default=12,
                   help="analytic classes surviving into the timed stage")
    p.add_argument("--radius", type=int, default=1,
                   help="blocking-neighborhood radius per axis")
    p.add_argument("--bodies", type=int, default=2,
                   help="unrolled bodies per timed panel depth")
    p.add_argument("--seed", type=int, default=0,
                   help="enumeration-order and timed-operand seed")
    p.add_argument("--pool", type=int, default=1,
                   help="worker-pool size for cache-missing evaluations "
                        "(1 = compute inline)")
    p.add_argument("--cache-dir", default=".repro-cache",
                   help="result-store directory for memoized evaluations "
                        "('' disables persistence)")
    p.add_argument("--smoke", action="store_true",
                   help="tiny fixed-seed budget for CI")
    add_json(p)
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser(
        "asym",
        help="asymmetric-chip exhibit: class-aware partition vs the "
             "symmetric split, with the energy frontier",
    )
    p.add_argument("--machine", default="big_little",
                   choices=list(preset_names()),
                   help="machine preset to model")
    p.add_argument("--kernel", default="OpenBLAS-8x6",
                   choices=sorted(VARIANTS))
    p.add_argument("--smoke", action="store_true",
                   help="single-size CI budget")
    add_json(p)
    p.set_defaults(func=_cmd_asym)

    p = sub.add_parser(
        "stencil",
        help="stencil exhibit: cache-blocked vs unblocked Jacobi sweeps "
             "through the cache walk and the timed scoreboard",
    )
    p.add_argument("--machine", default="xgene",
                   choices=list(preset_names()),
                   help="machine preset to model")
    p.add_argument("--height", type=int, default=None,
                   help="grid rows (default 64, 32 with --smoke)")
    p.add_argument("--width", type=int, default=None,
                   help="grid columns (default 2048)")
    p.add_argument("--radius", type=int, default=1)
    p.add_argument("--iterations", type=int, default=2,
                   help="Jacobi sweeps")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--smoke", action="store_true",
                   help="narrow-grid CI budget")
    add_json(p)
    p.set_defaults(func=_cmd_stencil)

    p = sub.add_parser(
        "conv",
        help="convolution exhibit: direct gather nest vs im2col + DGEMM "
             "at the solved blocking",
    )
    p.add_argument("--machine", default="xgene",
                   choices=list(preset_names()),
                   help="machine preset to model")
    p.add_argument("--cin", type=int, default=None,
                   help="input channels (default 3, 1 with --smoke)")
    p.add_argument("--height", type=int, default=None,
                   help="image rows (default 34, 18 with --smoke)")
    p.add_argument("--width", type=int, default=None,
                   help="image columns (default 34, 18 with --smoke)")
    p.add_argument("--kh", type=int, default=3, help="filter rows")
    p.add_argument("--kw", type=int, default=3, help="filter columns")
    p.add_argument("--filters", type=int, default=None,
                   help="output channels (default 16, 8 with --smoke)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small-image CI budget")
    add_json(p)
    p.set_defaults(func=_cmd_conv)

    p = sub.add_parser(
        "report",
        help="render, validate, or diff structured run reports",
    )
    p.add_argument("path", nargs="?", default=None,
                   help="report file to render")
    p.add_argument("--validate", action="store_true",
                   help="only check the file against the schema")
    p.add_argument("--diff", nargs=2, metavar=("BASELINE", "CURRENT"),
                   default=None,
                   help="compare two reports; exit nonzero on regressions")
    p.add_argument("--tolerance", type=float, default=0.05,
                   help="relative tolerance for float comparisons")
    p.add_argument("--warn-only", action="store_true",
                   help="report regressions but exit 0")
    add_json(p)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
