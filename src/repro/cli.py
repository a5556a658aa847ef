"""Command-line interface.

Exposes the library's main entry points without writing Python::

    repro blocks --mr 8 --nr 6 --threads 8     # Table III derivation
    repro kernel --variant OpenBLAS-8x6        # Fig. 8 assembly
    repro simulate --kernel OpenBLAS-8x6 --size 4096 --threads 8
    repro microbench                           # Table IV ladder
    repro cachesim --kernel OpenBLAS-8x6       # cache replay, engines agree
    repro timed --kernel OpenBLAS-8x6          # timed run, engines agree
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
of ``repro report``. Each ``_cmd_*`` returns ``(exit_code, sections)``:
the report's ``params``/``engines``/``metrics``/``stats``, or ``None``
when the command writes no RunReport. ``main`` alone turns the sections
into the report, and returns a process exit code so it can be
unit-tested directly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro._version import __version__
from repro.analysis.experiments import EXHIBITS, table4_microbench
from repro.analysis.report import format_series, format_table
from repro.arch.presets import XGENE, get_preset, preset_names
from repro.blocking.cache_blocking import solve_cache_blocking
from repro.blocking.register_blocking import RegisterBlockingProblem
from repro.errors import ReproError
from repro.kernels.variants import VARIANTS, get_variant
from repro.obs import MetricsRegistry, RunReport
from repro.serve.engine import execute
from repro.serve.query import canonical_query
from repro.sim.gemm_sim import GemmSimulator


#: A command's exit code and its RunReport sections (``None``: no report).
Result = Tuple[int, Optional[Dict[str, Any]]]


def _cmd_blocks(args: argparse.Namespace) -> Result:
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
    return 0, {
        "params": {"mr": mr, "nr": nr, "threads": args.threads},
        "stats": {"blocking": {
            "mr": blk.mr, "nr": blk.nr, "kc": blk.kc, "mc": blk.mc,
            "nc": blk.nc, "k1": blk.k1, "k2": blk.k2, "k3": blk.k3,
        }},
    }


def _cmd_kernel(args: argparse.Namespace) -> Result:
    kernel = get_variant(args.variant, kc=args.kc)
    body = kernel.body
    print(f"// {args.variant}: {len(body)} instructions per body "
          f"({body.num_fmla} fmla, {body.num_loads} ldr, "
          f"{body.num_prefetches} prfm), LDR:FMLA = "
          f"{body.ldr_fmla_ratio[0]}:{body.ldr_fmla_ratio[1]}")
    print(f"// rotation distance {kernel.plan.min_distance}, "
          f"schedule distance {kernel.schedule.min_load_use_distance}")
    print(body.to_text())
    return 0, {
        "params": {"variant": args.variant, "kc": args.kc},
        "stats": {"body": {
            "instructions": len(body),
            "fmla": body.num_fmla,
            "ldr": body.num_loads,
            "prfm": body.num_prefetches,
            "rotation_distance": kernel.plan.min_distance,
            "schedule_distance": kernel.schedule.min_load_use_distance,
        }},
    }


def _execute(kind: str, metrics=None, hierarchy=None, **fields):
    """Run a command's flags as one canonical serve query of ``kind``.

    Returns ``execute``'s ``(engines, stats)``; a flag the query
    validator rejects raises :class:`~repro.serve.query.QueryError`.
    """
    query = canonical_query(dict(fields, kind=kind))
    return execute(query, metrics=metrics, hierarchy=hierarchy)


def _cmd_simulate(args: argparse.Namespace) -> Result:
    params = {"kernel": args.kernel, "m": args.m or args.size,
              "n": args.n or args.size, "k": args.k or args.size,
              "threads": args.threads}
    engines, stats = _execute("simulate", args.metrics, **params)
    perf = stats["performance"]
    print(f"{args.kernel} on {params['m']}x{params['n']}x{params['k']}, "
          f"{args.threads} thread(s): "
          f"{perf['gflops']:.2f} Gflops ({perf['efficiency']:.1%} of "
          f"{XGENE.peak_flops_for(args.threads) / 1e9:.1f} Gflops peak)")
    print("blocking: " + "x".join(map(str, stats["blocking"].values())))
    shares = {name: cycles for name, cycles in perf["breakdown"].items()
              if name != "bandwidth_floor"}
    total = sum(shares.values())
    for name, cycles in shares.items():
        print(f"  {name:10s} {cycles / max(total, 1):6.1%} of modeled cycles")
    return 0, {"params": params, "engines": engines,
               "metrics": args.metrics, "stats": stats}


def _cmd_microbench(args: argparse.Namespace) -> Result:
    rows = table4_microbench()
    print(EXHIBITS["table4_microbench"].render(rows, ()))
    return 0, {"stats": {"ladder": {
        r.ratio_label: {
            "model_efficiency": r.model_efficiency,
            "paper_efficiency": r.paper_efficiency,
        }
        for r in rows
    }}}


def _cmd_pool(args: argparse.Namespace) -> Result:
    """Exercise the persistent-pool parallel engine on real OS threads.

    Times a loop of small-matrix ``parallel_dgemm`` calls under the
    per-iteration thread-spawn baseline and under the persistent worker
    pool, then prints the pool's per-thread pack/GEBP counters — the
    engine's observability hook.
    """
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
                       blocking=blk, pool=pool)
        t0 = time.perf_counter()
        for _ in range(args.reps):
            parallel_dgemm(a, b, c.copy(order="F"), threads=args.threads,
                           blocking=blk, pool=pool)
        return time.perf_counter() - t0

    spawn_s = run_loop("spawn")
    with WorkerPool(args.threads) as pool:
        pool_s = run_loop(pool)
        stats = PoolStats()
        parallel_dgemm(a, b, c.copy(order="F"), threads=args.threads,
                       blocking=blk, pool=pool, stats=stats)
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

    return 0, {
        "params": {"threads": args.threads, "size": args.size,
                   "reps": args.reps},
        "engines": {"pool": {"requested": "persistent",
                             "selected": "persistent",
                             "fallback_reason": None}},
        "stats": {
            "pool": snapshot_pool_stats(stats),
            "timing": {
                "spawn_seconds": spawn_s,
                "pool_seconds": pool_s,
                "speedup": spawn_s / pool_s,
            },
        },
    }


def _cmd_cachesim(args: argparse.Namespace) -> Result:
    """Replay a GEBP slice through the cache sim on both engines.

    Runs the scalar oracle and the vectorized batched engine as two
    cachesim queries on fresh identical hierarchies, checks their
    counters are bit-identical and prints the Table VII miss-rate view.
    """
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.obs import snapshot_hierarchy

    params = {"kernel": args.kernel, "threads": args.threads,
              "nc_slice": args.nc_slice, "seed": args.seed}
    engines, results = {}, {}
    for engine in ("scalar", "batched"):
        hierarchy = MemoryHierarchy(XGENE, seed=args.seed)
        slots, stats = _execute("cachesim", args.metrics, hierarchy,
                                engine=engine, **params)
        engines[engine] = slots["cachesim"]
        results[engine] = stats["result"]
    identical = results["scalar"] == results["batched"]
    blk = GemmSimulator(XGENE).default_blocking(args.kernel, args.threads)
    print(f"{args.kernel}, {args.threads} thread(s), blocking {blk}")
    print(f"counters bit-identical: {identical}")
    r = results["batched"]
    print(f"L1: {r['l1_loads']} loads, {r['l1_load_misses']} misses "
          f"({r['l1_load_miss_rate']:.2%}); L2: {r['l2_loads']} loads, "
          f"{r['l2_load_misses']} misses; DRAM: {r['dram_accesses']} lines")
    if not identical:
        print("error: engines disagree", file=sys.stderr)
    return 0 if identical else 1, {
        "params": params, "engines": engines, "metrics": args.metrics,
        "stats": {"result": r, "hierarchy": snapshot_hierarchy(hierarchy),
                  "identical": identical},
    }


def _cmd_timed(args: argparse.Namespace) -> Result:
    """Timing-functional kernel run, cross-checking execution engines.

    With ``--engine both`` (the default) runs one micro-tile through the
    interpreted oracle and the compiled engine as two timed queries and
    checks their runs (cycles, stalls, load latencies, C-tile hash)
    bit-identical. A single engine runs only that one; ``auto`` and
    ``compiled`` both run the compiled engine, which errors with the
    compilability reason on a kernel it cannot lower.
    """
    both = args.engine == "both"
    engine_list = ["interpreted", "compiled"] if both else [args.engine]
    engines, runs = {}, {}
    for engine in engine_list:
        slots, stats = _execute(
            "timed", args.metrics, engine=engine, kernel=args.kernel,
            kc=args.kc, hw_late=args.hw_late, seed=args.seed,
        )
        engines[engine] = dict(slots["timed"], requested=args.engine)
        runs[engine] = stats["run"]
    r = runs[engine_list[-1]]
    identical = all(
        dict(run, engine=None) == dict(r, engine=None)
        for run in runs.values()
    )
    kc = args.kc or round(r["cycles"] / r["cycles_per_iteration"])
    print(f"{args.kernel}, kc={kc}: {r['cycles']} cycles "
          f"({r['cycles_per_iteration']:.3f}/iter), "
          f"efficiency {r['efficiency']:.1%}")
    p = r["pipeline"]
    print(f"stalls: raw {p['raw_stall_cycles']}, structural "
          f"{p['structural_stall_cycles']}, war {p['war_stall_cycles']}; "
          f"ipc {p['ipc']:.2f}")
    hist = ", ".join(
        f"{lat}cy x{cnt}" for lat, cnt in r["load_latencies"].items()
    )
    print(f"load latencies: {hist}")
    if both:
        print(f"bit-identical: {identical}")
    else:
        print(f"engine: {r['engine']} (requested {args.engine})")
    if not identical:
        print("error: engines disagree", file=sys.stderr)
    return 0 if identical else 1, {
        "params": {"kernel": args.kernel, "kc": kc, "hw_late": args.hw_late,
                   "engine": args.engine, "seed": args.seed},
        "engines": engines,
        "metrics": args.metrics,
        "stats": {"run": r, "identical": identical},
    }


def _cmd_sweep(args: argparse.Namespace) -> Result:
    sim = GemmSimulator(XGENE, metrics=args.metrics)
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
    return 0, {
        "params": {"kernels": list(args.kernels), "threads": args.threads,
                   "start": args.start, "stop": args.stop,
                   "step": args.step},
        "metrics": args.metrics,
        "stats": {"gflops": {
            kernel: {str(s): gf for s, gf in zip(sizes, gfs)}
            for kernel, gfs in series
        }},
    }


def _cmd_experiments(args: argparse.Namespace) -> Result:
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
    return 0, {
        "params": {"out": str(out), "start": args.start, "stop": args.stop,
                   "step": args.step},
        "stats": {"exhibits": {name: True for name in sorted(EXHIBITS)}},
    }


def _cmd_verify(args: argparse.Namespace) -> Result:
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
        return 0, None

    if args.replay is not None:
        outcome = replay_case(args.replay)
        status = "PASS" if outcome.ok else "FAIL"
        print(f"{args.replay}: oracle {outcome.oracle} -> {status}")
        for mismatch in outcome.mismatches[:10]:
            print(f"  {mismatch}")
        return 0 if outcome.ok else 1, {
            "params": {"replay": str(args.replay), "oracle": outcome.oracle},
            "stats": {"verify": {
                "replay": str(args.replay),
                "oracle": outcome.oracle,
                "passed": outcome.ok,
                "mismatches": outcome.mismatches[:10],
            }},
        }

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
    return 0 if doc["passed"] else 1, {
        "params": {"suite": args.suite, "seed": args.seed,
                   "budget": args.budget},
        "stats": {"verify": doc},
    }


def _load_batch(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL batch file (``-`` = stdin); blank/# lines skipped."""
    try:
        if path == "-":
            lines = sys.stdin.readlines()
        else:
            with open(path) as fh:
                lines = fh.readlines()
    except OSError as exc:
        raise ReproError(f"cannot read batch file {path}: {exc}")
    docs = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if line and not line.startswith("#"):
            try:
                docs.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ReproError(
                    f"{path}:{lineno}: not a JSON query document: {exc}"
                )
    return docs


def _cache_dir(path: str) -> str:
    """``path``, once it is known to be or to be creatable as a directory.

    A file at ``path`` or at one of its ancestors would fail the first
    store write, after every answer was computed; this rejects it first.
    So is ``''``, which would root the store in the working directory.
    """
    if not path:
        raise ReproError("--cache-dir '': names no directory")
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ReproError(f"--cache-dir {path}: {probe} is not a directory")
    return path


def _serve(args: argparse.Namespace, docs: List[Dict[str, Any]]):
    """Answer ``docs`` through a QueryEngine per the CLI options.

    Owns the worker pool (``--threads`` > 1) for the batch and times it;
    returns ``(engine, answers, elapsed_seconds)``.
    """
    from repro.gemm.pool import WorkerPool
    from repro.serve import QueryEngine

    if args.threads < 1:
        raise ReproError(f"--threads must be >= 1, got {args.threads}")
    cache_dir = _cache_dir(args.cache_dir)
    pool = WorkerPool(args.threads) if args.threads > 1 else None
    try:
        engine = QueryEngine(cache_dir, pool=pool, metrics=args.metrics)
        t0 = time.perf_counter()
        answers = engine.run_batch(docs)
        return engine, answers, time.perf_counter() - t0
    finally:
        if pool is not None:
            pool.close()


def _cmd_query(args: argparse.Namespace) -> Result:
    """Serve a batch of query documents through the memoized engine.

    Reads one JSON query per line from ``--batch``, answers each from
    the on-disk result cache (computing, deduplicating and persisting
    misses on the worker pool), and streams one RunReport-schema answer
    document per line to stdout (or ``--out``). The serving summary goes
    to stderr so piped answer streams stay clean. ``--expect-all-hits``
    exits nonzero unless every query was served from the cache — the
    hook CI uses to prove cache persistence across process runs.
    """
    engine, answers, elapsed = _serve(args, _load_batch(args.batch))
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
    missed = args.expect_all_hits and s.hits != s.queries
    if missed:
        print(
            f"error: expected all {s.queries} queries to hit the cache, "
            f"got {s.hits} hits",
            file=sys.stderr,
        )
    return 1 if missed else 0, {
        "params": {"batch": args.batch, "cache_dir": args.cache_dir,
                   "threads": args.threads},
        "metrics": args.metrics,
        "stats": {
            "serve": s.as_dict(),
            "timing": {
                "elapsed_seconds": elapsed,
                "queries_per_second": rate,
            },
        },
    }


def _cmd_serve(args: argparse.Namespace) -> Result:
    """Pre-warm the result cache with a preset's standing query set."""
    from repro.serve import warm_queries

    engine, _, elapsed = _serve(args, warm_queries(args.warm))
    s, store = engine.stats, engine.store
    print(f"warmed preset {args.warm!r}: {s.queries} queries in "
          f"{elapsed:.3f}s ({s.computed} computed, {s.hits} already "
          f"cached, {s.errors} errors)")
    print(f"cache {args.cache_dir}: {len(store)} entries, "
          f"{store.bytes_held()} bytes")
    return 1 if s.errors else 0, {
        "params": {"warm": args.warm, "cache_dir": args.cache_dir,
                   "threads": args.threads},
        "metrics": args.metrics,
        "stats": {
            "serve": s.as_dict(),
            "timing": {"elapsed_seconds": elapsed},
            "store": {"entries": len(store), "bytes": store.bytes_held()},
        },
    }


def _cmd_tune(args: argparse.Namespace) -> Result:
    """Run the two-stage kernel search with persistent memoization."""
    from repro.gemm.pool import WorkerPool
    from repro.serve import ResultStore
    from repro.tune import tune_search

    if args.smoke:
        # CI budget: small tile pool, tight neighborhoods, fixed seed.
        args.max_tiles = min(args.max_tiles, 3)
        args.radius = min(args.radius, 1)
        args.seed = 0
    store = (ResultStore(_cache_dir(args.cache_dir)) if args.cache_dir
             else None)
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
            metrics=args.metrics,
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
    return 0, {
        "params": dict(result["params"],
                       cache_dir=args.cache_dir or None, pool=args.pool),
        "engines": {
            "analytic": {"selected": "gemm-sim", "fallback_reason": None},
            "timed": {"selected": "compiled", "fallback_reason": None},
        },
        "metrics": args.metrics,
        "stats": {
            "space": space,
            "prune_ratio": result["stats"]["prune_ratio"],
            "winner": win,
            "top": result["top"],
            "memo": memo,
            "timing": {"elapsed_seconds": elapsed},
        },
    }


def _cmd_asym(args: argparse.Namespace) -> Result:
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
    return 0, {
        "params": {"machine": args.machine, "kernel": args.kernel,
                   "smoke": args.smoke},
        "stats": doc,
    }


def _cmd_exhibit(args: argparse.Namespace) -> Result:
    """The workload exhibits: ``stencil`` (cache-blocked vs unblocked
    Jacobi sweeps) and ``conv`` (direct vs im2col lowering of one GEBP
    stream). Proves the bit-equality contracts, then prints the Table
    VII-style counter comparison."""
    # The exhibit's flags are exactly its query's fields.
    fields = {k: v for k, v in vars(args).items()
              if k not in ("command", "func", "json", "metrics")}
    engines, stats = _execute(args.command, **fields)
    doc = stats["exhibit"]
    p = doc["params"]
    if args.command == "stencil":
        print(f"{doc['chip']}: {p['height']}x{p['width']} grid, radius "
              f"{p['radius']}, {p['iterations']} sweep(s), solved tile "
              f"{doc['block']['bi']}x{doc['block']['bj']}")
        title = "stencil: blocked vs unblocked"
        ok = doc["bit_identical"]
        tail = [
            f"bit-identical outputs: {doc['bit_identical']}",
            f"unblocked/blocked miss-rate ratio: "
            f"{doc['miss_rate_ratio']:.3f}x",
            f"blocked speedup: {doc['speedup']:.3f}x",
        ]
    else:
        g, blk = doc["gemm_shape"], doc["blocking"]
        print(f"{doc['chip']}: {p['cin']}x{p['height']}x{p['width']} "
              f"image, {p['filters']} {p['kh']}x{p['kw']} filters -> GEMM "
              f"{g['m']}x{g['k']}x{g['n']} at "
              f"mc={blk['mc']} kc={blk['kc']} nc={blk['nc']}")
        title = "conv: im2col vs direct"
        ok = doc["bit_identical"] and doc["bit_identical_unblocked"]
        tail = [
            f"bit-identical lowerings: {doc['bit_identical']}; "
            f"vs unblocked: {doc['bit_identical_unblocked']}",
            f"im2col/direct DRAM ratio: {doc['dram_ratio']:.3f}x",
            f"direct speedup: {doc['speedup']:.3f}x",
        ]
    print(format_table(
        ["variant", "L1 loads", "L1 misses", "miss rate", "DRAM",
         "cycles", "Gflops"],
        [[name, v["l1_loads"], v["l1_load_misses"],
          f"{v['l1_load_miss_rate']:.4f}", v["dram_accesses"],
          v["cycles"], f"{v['gflops']:.3f}"]
         for name, v in doc["variants"].items()],
        title=title,
    ))
    for line in tail:
        print(f"  {line}")
    return 0 if ok else 1, {
        "params": {"machine": args.machine, **p},
        "engines": engines,
        "stats": doc,
    }


def _cmd_report(args: argparse.Namespace) -> Result:
    """Render, validate, or diff structured run reports.

    ``repro report out.json`` renders a report; ``--validate`` checks it
    against the schema only; ``--diff BASELINE CURRENT`` runs the
    regression comparator and exits nonzero on regressions (suppress
    with ``--warn-only``).
    """
    from repro.obs import (
        atomic_write_json,
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
            atomic_write_json(args.json, {
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
            })
            print(f"wrote {args.json}")
        return 1 if comp.regressions and not args.warn_only else 0, None

    if args.path is None:
        raise ReproError("report needs a file path or --diff A B")
    doc = load_report_dict(args.path)
    problems = validate_report(doc)
    if problems:
        for problem in problems:
            print(f"invalid: {problem}", file=sys.stderr)
        return 1, None
    if args.validate:
        print(f"{args.path}: valid (schema version "
              f"{doc['schema_version']})")
        return 0, None
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
    return 0, None


def _kernel_flag(p: argparse.ArgumentParser, flag: str = "--kernel",
                 **kwargs: Any) -> None:
    """A kernel-variant flag, with the registered variants as choices."""
    kwargs.setdefault("default", "OpenBLAS-8x6")
    p.add_argument(flag, choices=sorted(VARIANTS), **kwargs)


def _machine_flag(p: argparse.ArgumentParser, default: str = "xgene",
                  help: str = "machine preset to model") -> None:
    """``--machine``, with the registered presets as choices."""
    p.add_argument("--machine", default=default,
                   choices=list(preset_names()), help=help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ARMv8 DGEMM reproduction (ICPP 2015) toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    p = command("blocks", _cmd_blocks, "derive block sizes analytically")
    p.add_argument("--mr", type=int, default=None)
    p.add_argument("--nr", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)

    p = command("kernel", _cmd_kernel, "emit register-kernel assembly")
    _kernel_flag(p, "--variant")
    p.add_argument("--kc", type=int, default=512)

    p = command("simulate", _cmd_simulate, "predict DGEMM performance")
    _kernel_flag(p)
    p.add_argument("--size", type=int, default=2048)
    p.add_argument("-m", type=int, default=None)
    p.add_argument("-n", type=int, default=None)
    p.add_argument("-k", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)

    command("microbench", _cmd_microbench, "the Table IV LDR:FMLA ladder")

    p = command("experiments", _cmd_experiments,
                "regenerate every paper table/figure into a directory")
    p.add_argument("--out", default="results")
    p.add_argument("--start", type=int, default=256)
    p.add_argument("--stop", type=int, default=6400)
    p.add_argument("--step", type=int, default=512)

    p = command("pool", _cmd_pool,
                "time the persistent worker pool vs per-iteration spawning "
                "and show per-thread counters")
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--size", type=int, default=160)
    p.add_argument("--reps", type=int, default=10)

    p = command("cachesim", _cmd_cachesim,
                "event-accurate GEBP cache replay; checks the scalar and "
                "batched engines bit-identical")
    _kernel_flag(p)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--nc-slice", type=int, default=None)
    p.add_argument("--seed", type=int, default=0,
                   help="RANDOM-replacement victim RNG seed")

    p = command("timed", _cmd_timed,
                "timing-functional kernel run; checks the interpreted and "
                "compiled engines bit-identical")
    _kernel_flag(p)
    p.add_argument("--kc", type=int, default=None)
    p.add_argument("--hw-late", type=float, default=0.25)
    p.add_argument("--engine", default="both",
                   choices=["both", "auto", "compiled", "interpreted"],
                   help="run both engines and cross-check (default), or "
                        "a single one ('auto' runs the compiled engine)")
    p.add_argument("--seed", type=int, default=0,
                   help="operand RNG seed")

    p = command("sweep", _cmd_sweep, "Gflops vs matrix size")
    _kernel_flag(p, "--kernels", nargs="+",
                 default=["OpenBLAS-8x6", "ATLAS-5x5"])
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--start", type=int, default=256)
    p.add_argument("--stop", type=int, default=4096)
    p.add_argument("--step", type=int, default=512)

    p = command("verify", _cmd_verify,
                "differential fuzz sweep of every fast/reference engine "
                "pair, with mutation self-test and case replay")
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

    p = command("query", _cmd_query,
                "serve JSONL query documents from the memoized result "
                "cache, computing misses concurrently on the worker pool")
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

    p = command("serve", _cmd_serve,
                "pre-warm the result cache with a machine preset's "
                "standing query set")
    p.add_argument("--warm", default="all",
                   choices=list(preset_names()) + ["all"],
                   help="which preset's warm query set to compute")
    p.add_argument("--cache-dir", default=".repro-cache",
                   help="result-store directory (created on demand)")
    p.add_argument("--threads", type=int, default=4,
                   help="worker-pool size for computing cache misses")

    p = command("tune", _cmd_tune,
                "search register tiles, rotation schemes, schedules and "
                "blockings with the two-stage memoized autotuner")
    _machine_flag(p, help="machine preset to tune for")
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

    p = command("asym", _cmd_asym,
                "asymmetric-chip exhibit: class-aware partition vs the "
                "symmetric split, with the energy frontier")
    _machine_flag(p, default="big_little")
    _kernel_flag(p)
    p.add_argument("--smoke", action="store_true",
                   help="single-size CI budget")

    p = command("stencil", _cmd_exhibit,
                "stencil exhibit: cache-blocked vs unblocked Jacobi sweeps "
                "through the cache walk and the timed scoreboard")
    _machine_flag(p)
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

    p = command("conv", _cmd_exhibit,
                "convolution exhibit: direct gather nest vs im2col + DGEMM "
                "at the solved blocking")
    _machine_flag(p)
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

    p = command("report", _cmd_report,
                "render, validate, or diff structured run reports")
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
    # Last, so ``--json`` closes every subcommand's ``--help``.
    for p in sub.choices.values():
        p.add_argument(
            "--json", metavar="PATH", default=None,
            help="also write a structured RunReport document to PATH",
        )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    With ``--json`` the command runs with a :class:`MetricsRegistry` in
    ``args.metrics`` and its returned sections become the run's one
    RunReport.
    """
    args = build_parser().parse_args(argv)
    args.metrics = MetricsRegistry() if args.json else None
    try:
        code, sections = args.func(args)
        if args.json and sections is not None:
            metrics = sections.pop("metrics", None)
            RunReport(
                command=args.command,
                created=time.strftime("%Y-%m-%dT%H:%M:%S"),
                metrics=metrics.as_dict() if metrics is not None else {},
                **sections,
            ).write(args.json)
            print(f"wrote {args.json}")
        # Flush here, so a reader that closed early is caught below.
        sys.stdout.flush()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout closed early (``repro report run.json | head -3``). Point
        # it at devnull, so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
