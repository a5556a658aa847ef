"""The standing oracles: one per fast/reference engine pair in the repo.

Each oracle is declared once and covers one bit-identity claim:

- ``gemm.pool`` — OS-thread worker-pool ``parallel_dgemm`` vs the inline
  sequential executor (PR 1's engine);
- ``cachesim.batch`` — vectorized :meth:`MemoryHierarchy.run_batch` vs the
  per-access scalar :func:`run_trace` walk (PR 2's engine);
- ``timed.compiled`` — compiled timed-execution templates vs the
  instruction-by-instruction interpreter (PR 3's engine);
- ``lru.array`` — the timestamp-array LRU representation behind
  :meth:`Cache.access_lines_batched` vs the ``OrderedDict`` list mode;
- ``timed.oddtile`` — the compiled engine on the formerly interpreted
  tail (odd-tile lane padding, k-vectorized ``faddp`` folds) vs the
  interpreter;
- ``cachesim.writethrough`` — the batched store-propagation walk on
  machines with write-through levels vs the scalar chain;
- ``sweep.incremental`` — sweeps carrying warm hierarchy state across
  adjacent points vs cold-start replays of every point;
- ``stencil.blocked`` — cache-blocked stencil sweeps (any tile shape,
  remainder tiles included) vs the unblocked reference, plus the batched
  vs scalar walk of the blocked access stream;
- ``conv.im2col`` — convolution lowered through im2col + DGEMM vs the
  directly-blocked gather nest, plus the batched vs scalar walk of the
  direct lowering's access stream;
- ``tune.analytic`` — the analytic DGEMM model pricing event arrays vs
  the per-event loop over event objects it replaced.

Result documents contain only JSON-able leaves. Float64 payloads (C
tiles/panels) are compared bit-exactly: values are carried as exact
``float`` lists plus a SHA-256 of the raw little-endian bytes, so a
single flipped mantissa bit anywhere fails the comparison.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
from typing import Any, Dict, Iterator, List

import numpy as np

from repro.arch.presets import MOBILE_SOC, PRESETS, XGENE
from repro.blocking.cache_blocking import CacheBlocking
from repro.memory.batch import BatchTrace
from repro.memory.cache import (
    CODE_LOAD,
    CODE_PREFETCH,
    CODE_STORE,
    Cache,
    CacheStats,
)
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.trace import run_trace
from repro.obs.run_report import snapshot_cache_stats, snapshot_pipeline
from repro.verify.machines import (
    build_chip,
    random_machine,
    simplified_machines,
)
from repro.verify.oracle import Oracle, register

__all__ = ["CHIPS"]

#: Named chips a case may reference (kept tiny and JSON-friendly) —
#: every registered preset; generation keeps drawing from the historical
#: subsets so committed cases and fixed-seed sweeps stay reproducible.
CHIPS = dict(PRESETS)


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(array, dtype=np.float64).tobytes()
    ).hexdigest()


def _array_doc(array: np.ndarray, values_limit: int = 256) -> Dict[str, Any]:
    """Bit-exact document for a float64 array.

    Small arrays carry their exact values (readable in a repro file);
    every array carries shape and a content hash, so equality of the
    document is equality of the bits.
    """
    arr = np.ascontiguousarray(array, dtype=np.float64)
    doc: Dict[str, Any] = {
        "shape": list(arr.shape),
        "sha256": _sha256(arr),
    }
    if arr.size <= values_limit:
        doc["values"] = [float(x) for x in arr.ravel()]
    return doc


# =============================================================================
# gemm.pool — pooled OS-thread parallel_dgemm vs the inline serial executor
# =============================================================================

_TILES = ((8, 6), (8, 4), (4, 4), (2, 2), (5, 3))
_SCALARS = (0.0, 1.0, -1.0, 0.5, 2.0)


def _gemm_generate(rng: random.Random, budget: str) -> Dict[str, Any]:
    hi = 24 if budget == "smoke" else 48
    mr, nr = rng.choice(_TILES)
    return {
        "m": rng.randint(1, hi),
        "n": rng.randint(1, hi),
        "k": rng.randint(1, hi),
        "threads": rng.randint(2, 4),
        "alpha": rng.choice(_SCALARS),
        "beta": rng.choice(_SCALARS),
        "axis": rng.choice(("m", "n")),
        "blocking": {
            "mr": mr,
            "nr": nr,
            "kc": rng.choice((4, 8, 16)),
            "mc": rng.choice((8, 16, 24)),
            "nc": rng.choice((12, 16, 32)),
        },
        "data_seed": rng.randint(0, 2**31 - 1),
    }


def _gemm_run(params: Dict[str, Any], use_os_threads: bool) -> Dict[str, Any]:
    from repro.gemm.parallel import parallel_dgemm
    from repro.gemm.pool import PoolStats, WorkerPool
    from repro.gemm.trace import GemmTrace
    from repro.gemm.workspace import GemmWorkspace

    g = np.random.default_rng(params["data_seed"])
    m, n, k = params["m"], params["n"], params["k"]
    a = np.asfortranarray(g.standard_normal((m, k)))
    b = np.asfortranarray(g.standard_normal((k, n)))
    c = np.asfortranarray(g.standard_normal((m, n)))
    blk = params["blocking"]
    blocking = CacheBlocking(
        mr=blk["mr"], nr=blk["nr"], kc=blk["kc"], mc=blk["mc"],
        nc=blk["nc"], k1=1, k2=1, k3=1,
    )
    trace = GemmTrace()
    stats = PoolStats()
    threads = params["threads"]

    def call(pool):
        return parallel_dgemm(
            a, b, c.copy(order="F"), threads=threads,
            alpha=params["alpha"], beta=params["beta"],
            blocking=blocking, trace=trace, axis=params["axis"],
            use_os_threads=use_os_threads, pool=pool,
            workspace=GemmWorkspace(), stats=stats,
        )

    if use_os_threads:
        with WorkerPool(threads) as pool:
            out = call(pool)
    else:
        out = call(None)

    counters = stats.snapshot()
    return {
        "c": _array_doc(out),
        "trace": {
            "packs": [
                [e.operand, e.rows, e.cols, e.thread] for e in trace.packs
            ],
            "gebps": [
                [e.mc, e.kc, e.nc, e.thread, e.beta_pass]
                for e in trace.gebps
            ],
            "active_threads": trace.active_threads,
            "flops": trace.flops,
        },
        # Wall-clock seconds are *excluded* on purpose: only call counts
        # are part of the engines' identity contract.
        "pool": {
            "steps": stats.steps,
            "calls": stats.calls,
            "threads": {
                str(t): [c_.pack_a_calls, c_.pack_b_calls, c_.gebp_calls]
                for t, c_ in sorted(counters.items())
            },
        },
    }


def _gemm_shrink(params: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    for dim in ("m", "n", "k"):
        if params[dim] > 1:
            yield {**params, dim: max(1, params[dim] // 2)}
            yield {**params, dim: params[dim] - 1}
    if params["threads"] > 2:
        yield {**params, "threads": 2}
    for scalar in ("alpha", "beta"):
        if params[scalar] != 1.0:
            yield {**params, scalar: 1.0}
    blk = params["blocking"]
    for key in ("kc", "mc", "nc"):
        if blk[key] > blk.get("mr", 1) and blk[key] > 4:
            yield {**params, "blocking": {**blk, key: blk[key] // 2}}


register(Oracle(
    name="gemm.pool",
    suite="gemm",
    description=(
        "worker-pool OS-thread parallel_dgemm is bit-identical to the "
        "inline sequential executor (C values, trace events, counters)"
    ),
    generate=_gemm_generate,
    reference=lambda p: _gemm_run(p, use_os_threads=False),
    fast=lambda p: _gemm_run(p, use_os_threads=True),
    shrink=_gemm_shrink,
))


# =============================================================================
# cachesim.batch — vectorized hierarchy replay vs the scalar per-access walk
# =============================================================================


def _trace_rows(params: Dict[str, Any], n_levels: int) -> List[tuple]:
    """The case's access stream, regenerated deterministically."""
    rng = random.Random(params["trace_seed"])
    span = params["span_lines"]
    line = params["machine"]["line"]
    rows = []
    for _ in range(params["length"]):
        addr = rng.randrange(span) * line + rng.choice((0, 0, 8, 24))
        nbytes = rng.choice((8, 16, 64, 2 * line))
        roll = rng.random()
        if roll < 0.6:
            rows.append((addr, nbytes, CODE_LOAD, 1))
        elif roll < 0.85:
            rows.append((addr, nbytes, CODE_STORE, 1))
        else:
            rows.append(
                (addr, line, CODE_PREFETCH, rng.randint(1, n_levels))
            )
    return rows


def _cachesim_doc(
    h: MemoryHierarchy, cost
) -> Dict[str, Any]:
    return {
        "cost": {
            "accesses": cost.accesses,
            "latency_cycles": cost.latency_cycles,
            "level_hits": list(cost.level_hits),
        },
        "caches": {
            key: snapshot_cache_stats(cache.stats)
            for key, cache in h.all_caches().items()
        },
        "dram_accesses": h.dram_accesses,
        "tlb": [
            None if t is None else {"accesses": t.stats.accesses,
                                    "misses": t.stats.misses}
            for t in h.tlbs
        ],
    }


def _cachesim_run(params: Dict[str, Any], engine: str) -> Dict[str, Any]:
    chip = build_chip(params["machine"])
    h = MemoryHierarchy(
        chip, with_tlb=params["machine"].get("with_tlb", False),
        seed=params["hier_seed"],
    )
    core = params["core"] % chip.cores
    trace = BatchTrace.from_rows(
        _trace_rows(params, len(chip.cache_levels))
    )
    if engine == "scalar":
        cost = run_trace(h, core, trace)
    else:
        cost = h.run_batch(core, trace)
    return _cachesim_doc(h, cost)


def _cachesim_generate(rng: random.Random, budget: str) -> Dict[str, Any]:
    length = rng.randint(50, 300 if budget == "smoke" else 1500)
    machine = random_machine(rng, budget)
    return {
        "machine": machine,
        "core": rng.randrange(machine["cores"]),
        "hier_seed": rng.randint(0, 2**31 - 1),
        "trace_seed": rng.randint(0, 2**31 - 1),
        "length": length,
        "span_lines": rng.choice((16, 64, 256, 1024)),
    }


def _cachesim_shrink(params: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    if params["length"] > 1:
        yield {**params, "length": params["length"] // 2}
        yield {**params, "length": params["length"] - 1}
    if params["span_lines"] > 2:
        yield {**params, "span_lines": params["span_lines"] // 2}
    if params["core"] > 0:
        yield {**params, "core": 0}
    for machine in simplified_machines(params["machine"]):
        yield {**params, "machine": machine}


register(Oracle(
    name="cachesim.batch",
    suite="cachesim",
    description=(
        "MemoryHierarchy.run_batch produces counters and TraceCost "
        "bit-identical to the scalar run_trace walk on any machine"
    ),
    generate=_cachesim_generate,
    reference=lambda p: _cachesim_run(p, "scalar"),
    fast=lambda p: _cachesim_run(p, "batched"),
    shrink=_cachesim_shrink,
))


# =============================================================================
# timed.compiled — template-compiled timed executor vs the interpreter
# =============================================================================

_COMPILED_VARIANTS = ("OpenBLAS-8x6", "OpenBLAS-8x4", "OpenBLAS-4x4",
                      "OpenBLAS-8x6-noRR", "ATLAS-5x5", "ATLAS-5x5-kvec")
_HW_LATE = (0.0, 0.25, 0.5, 1.0)


def _timed_generate(rng: random.Random, budget: str) -> Dict[str, Any]:
    from repro.kernels.variants import get_variant

    variant = rng.choice(_COMPILED_VARIANTS)
    unroll = get_variant(variant).plan.unroll
    bodies = rng.randint(1, 4 if budget == "smoke" else 10)
    return {
        "variant": variant,
        "kc": unroll * bodies,
        "hw_late": rng.choice(_HW_LATE),
        "chip": rng.choice(("xgene", "mobile")),
        "data_seed": rng.randint(0, 2**31 - 1),
        "with_c_tile": rng.random() < 0.5,
    }


def _timed_run(params: Dict[str, Any], engine: str) -> Dict[str, Any]:
    from repro.kernels.variants import VARIANTS, get_variant
    from repro.sim.timed_executor import run_timed_micro_tile

    spec = VARIANTS[params["variant"]]
    kernel = get_variant(params["variant"])
    chip = CHIPS[params["chip"]]
    g = np.random.default_rng(params["data_seed"])
    a = g.standard_normal((params["kc"], spec.mr))
    b = g.standard_normal((params["kc"], spec.nr))
    c0 = (
        g.standard_normal((spec.mr, spec.nr))
        if params.get("with_c_tile")
        else None
    )
    run = run_timed_micro_tile(
        kernel, a, b, c0, chip=chip, hw_late=params["hw_late"],
        engine=engine,
    )
    return {
        "c_tile": _array_doc(run.c_tile),
        "cycles": run.cycles,
        "cycles_per_iteration": run.cycles_per_iteration,
        "efficiency": run.efficiency,
        "pipeline": snapshot_pipeline(run.pipeline),
        "load_latencies": {
            str(lat): cnt
            for lat, cnt in sorted(run.load_latencies.items())
        },
    }


def _timed_shrink(params: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    from repro.kernels.variants import get_variant

    unroll = get_variant(params["variant"]).plan.unroll
    bodies = params["kc"] // unroll
    # Drop kernel segments: fewer unrolled bodies, down to one.
    if bodies > 1:
        yield {**params, "kc": unroll * max(1, bodies // 2)}
        yield {**params, "kc": unroll * (bodies - 1)}
    if params["hw_late"] != 0.0:
        yield {**params, "hw_late": 0.0}
    if params.get("with_c_tile"):
        yield {**params, "with_c_tile": False}
    if params["variant"] != "OpenBLAS-4x4":
        small = get_variant("OpenBLAS-4x4").plan.unroll
        yield {
            **params,
            "variant": "OpenBLAS-4x4",
            "kc": small * max(1, min(bodies, 2)),
        }


register(Oracle(
    name="timed.compiled",
    suite="timed",
    description=(
        "compiled timed-execution templates match the interpreter on "
        "C tile bits, cycles, stall breakdown and latency histogram"
    ),
    generate=_timed_generate,
    reference=lambda p: _timed_run(p, "interpreted"),
    fast=lambda p: _timed_run(p, "compiled"),
    shrink=_timed_shrink,
))


# =============================================================================
# timed.oddtile — the formerly interpreted tail on the compiled engine
# =============================================================================

_ODDTILE_VARIANTS = ("ATLAS-5x5", "ATLAS-5x5-kvec")


def _oddtile_generate(rng: random.Random, budget: str) -> Dict[str, Any]:
    from repro.kernels.variants import get_variant

    variant = rng.choice(_ODDTILE_VARIANTS)
    unroll = get_variant(variant).plan.unroll
    bodies = rng.randint(1, 4 if budget == "smoke" else 10)
    return {
        "variant": variant,
        "kc": unroll * bodies,
        "hw_late": rng.choice(_HW_LATE),
        "chip": rng.choice(("xgene", "mobile")),
        "data_seed": rng.randint(0, 2**31 - 1),
        "with_c_tile": rng.random() < 0.5,
    }


def _oddtile_shrink(params: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    from repro.kernels.variants import get_variant

    unroll = get_variant(params["variant"]).plan.unroll
    bodies = params["kc"] // unroll
    if bodies > 1:
        yield {**params, "kc": unroll * max(1, bodies // 2)}
        yield {**params, "kc": unroll * (bodies - 1)}
    if params["hw_late"] != 0.0:
        yield {**params, "hw_late": 0.0}
    if params.get("with_c_tile"):
        yield {**params, "with_c_tile": False}


register(Oracle(
    name="timed.oddtile",
    suite="timed",
    description=(
        "odd-tile (lane-padded) and k-vectorized ATLAS kernels on the "
        "compiled engine match the interpreter bit-exactly"
    ),
    generate=_oddtile_generate,
    reference=lambda p: _timed_run(p, "interpreted"),
    fast=lambda p: _timed_run(p, "compiled"),
    shrink=_oddtile_shrink,
))


# =============================================================================
# cachesim.writethrough — batched store-propagation walk vs the scalar chain
# =============================================================================


def _wt_force(machine: Dict[str, Any], mask: int) -> Dict[str, Any]:
    """Force write-through on the levels selected by ``mask`` bits."""
    out = dict(machine)
    for bit, lvl in enumerate(("l1", "l2", "l3")):
        if out.get(lvl) and mask & (1 << bit):
            out[lvl] = dict(out[lvl], write_policy="write-through")
    return out


def _wt_generate(rng: random.Random, budget: str) -> Dict[str, Any]:
    params = _cachesim_generate(rng, budget)
    # At least one write-through level, so every case exercises the
    # batched propagation walk (random_machine alone makes them rare).
    params["machine"] = _wt_force(
        params["machine"], rng.randint(1, 7)
    )
    return params


def _wt_shrink(params: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    for simpler in _cachesim_shrink(params):
        machine = simpler["machine"]
        if any(
            machine.get(lvl, {}) and
            machine[lvl].get("write_policy") == "write-through"
            for lvl in ("l1", "l2", "l3")
        ):
            yield simpler


register(Oracle(
    name="cachesim.writethrough",
    suite="cachesim",
    description=(
        "the batched engine's store-propagation walk on write-through "
        "machines is bit-identical to the scalar propagation chain"
    ),
    generate=_wt_generate,
    reference=lambda p: _cachesim_run(p, "scalar"),
    fast=lambda p: _cachesim_run(p, "batched"),
    shrink=_wt_shrink,
))


# =============================================================================
# sweep.incremental — warm-state-carrying sweeps vs cold-start replays
# =============================================================================

_SWEEP_KERNELS = ("OpenBLAS-8x6", "OpenBLAS-4x4", "ATLAS-5x5")


def _sweep_generate(rng: random.Random, budget: str) -> Dict[str, Any]:
    n_points = rng.randint(2, 3 if budget == "smoke" else 5)
    mults = [rng.randint(1, 6) for _ in range(n_points)]
    if rng.random() < 0.7:
        mults.sort()  # ascending sweeps exercise the prefix-delta path
    return {
        "kernel": rng.choice(_SWEEP_KERNELS),
        "kc": rng.choice((16, 32)),
        "mc": rng.choice((16, 32)),
        "nc_mults": mults,
        "chip": rng.choice(("xgene", "mobile")),
        "engine": rng.choice(("batched", "scalar")),
        "seed": rng.randint(0, 2**31 - 1),
        "prefetch": rng.random() < 0.8,
    }


def _sweep_run(params: Dict[str, Any], incremental: bool) -> Dict[str, Any]:
    import dataclasses

    from repro.kernels.variants import VARIANTS
    from repro.sim.gebp_cachesim import clear_warm_memo, simulate_gebp_cache

    spec = VARIANTS[params["kernel"]]
    chip = CHIPS[params["chip"]]
    clear_warm_memo()
    try:
        points = []
        for mult in params["nc_mults"]:
            nc = spec.nr * mult
            blocking = CacheBlocking(
                mr=spec.mr, nr=spec.nr, kc=params["kc"],
                mc=params["mc"], nc=nc, k1=1, k2=1, k3=1,
            )
            result = simulate_gebp_cache(
                spec, blocking, chip=chip, nc_slice=nc,
                prefetch=params["prefetch"], engine=params["engine"],
                seed=params["seed"], incremental=incremental,
            )
            points.append(dataclasses.asdict(result))
        return {"points": points}
    finally:
        clear_warm_memo()


def _sweep_shrink(params: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    if len(params["nc_mults"]) > 2:
        yield {**params, "nc_mults": params["nc_mults"][:2]}
        yield {**params, "nc_mults": params["nc_mults"][1:]}
    if max(params["nc_mults"]) > 1:
        yield {
            **params,
            "nc_mults": [max(1, m // 2) for m in params["nc_mults"]],
        }
    for key in ("kc", "mc"):
        if params[key] > 16:
            yield {**params, key: params[key] // 2}
    if params["prefetch"]:
        yield {**params, "prefetch": False}
    if params["kernel"] != "OpenBLAS-4x4":
        yield {**params, "kernel": "OpenBLAS-4x4"}


register(Oracle(
    name="sweep.incremental",
    suite="cachesim",
    description=(
        "sweeps carrying warm hierarchy snapshots across adjacent points "
        "report counters bit-identical to cold-start replays"
    ),
    generate=_sweep_generate,
    reference=lambda p: _sweep_run(p, incremental=False),
    fast=lambda p: _sweep_run(p, incremental=True),
    shrink=_sweep_shrink,
))


# =============================================================================
# lru.array — timestamp-array LRU representation vs the OrderedDict mode
# =============================================================================


def _lru_accesses(params: Dict[str, Any]) -> List[tuple]:
    rng = random.Random(params["access_seed"])
    kinds = (CODE_LOAD, CODE_LOAD, CODE_STORE, CODE_PREFETCH)
    return [
        (rng.randrange(params["span_lines"]), rng.choice(kinds))
        for _ in range(params["length"])
    ]


def _lru_cache(params: Dict[str, Any]) -> Cache:
    from repro.arch.params import CacheParams, WritePolicy

    line = 64
    return Cache(CacheParams(
        name="fuzzL",
        size_bytes=params["ways"] * params["sets"] * line,
        line_bytes=line,
        ways=params["ways"],
        latency_cycles=1,
        write_policy=(
            WritePolicy.WRITE_BACK if params["write_back"]
            else WritePolicy.WRITE_THROUGH
        ),
    ))


def _lru_doc(cache: Cache, hits: List[bool]) -> Dict[str, Any]:
    return {
        "hits": "".join("1" if h else "0" for h in hits),
        "stats": snapshot_cache_stats(cache.stats),
        "resident_lines": cache.resident_lines(),
        # Full state comparison, recency order included: both LRU
        # representations must agree on *which* lines survive and in
        # what eviction order, not just on the counters.
        "sets": [
            cache.set_contents(s) for s in range(cache.params.num_sets)
        ],
    }


def _lru_reference(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.memory.cache import CODE_TO_KIND

    cache = _lru_cache(params)
    hits = [
        cache.access_line(line, CODE_TO_KIND[kind])
        for line, kind in _lru_accesses(params)
    ]
    return _lru_doc(cache, hits)


def _lru_fast(params: Dict[str, Any]) -> Dict[str, Any]:
    cache = _lru_cache(params)
    accesses = _lru_accesses(params)
    lines = np.array([a[0] for a in accesses], dtype=np.int64)
    kinds = np.array([a[1] for a in accesses], dtype=np.int8)
    # Split into chunks so the OrderedDict -> array migration happens
    # mid-stream (chunk boundaries come from the case, deterministically).
    rng = random.Random(params["access_seed"] ^ 0x5BD1E995)
    hits: List[bool] = []
    start = 0
    while start < len(accesses):
        stop = min(len(accesses), start + rng.randint(1, params["length"]))
        hits.extend(
            bool(h)
            for h in cache.access_lines_batched(
                lines[start:stop], kinds[start:stop]
            )
        )
        start = stop
    return _lru_doc(cache, hits)


def _lru_generate(rng: random.Random, budget: str) -> Dict[str, Any]:
    return {
        "ways": rng.choice((1, 2, 4, 8)),
        "sets": rng.choice((1, 2, 4, 16)),
        "write_back": rng.random() < 0.8,
        "span_lines": rng.choice((4, 16, 64, 256)),
        "length": rng.randint(20, 200 if budget == "smoke" else 2000),
        "access_seed": rng.randint(0, 2**31 - 1),
    }


def _lru_shrink(params: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    if params["length"] > 1:
        yield {**params, "length": params["length"] // 2}
        yield {**params, "length": params["length"] - 1}
    if params["span_lines"] > 2:
        yield {**params, "span_lines": params["span_lines"] // 2}
    if params["sets"] > 1:
        yield {**params, "sets": params["sets"] // 2}
    if params["ways"] > 1:
        yield {**params, "ways": params["ways"] // 2}
    if params["write_back"]:
        yield {**params, "write_back": False}


register(Oracle(
    name="lru.array",
    suite="lru",
    description=(
        "timestamp-array LRU (batched mode) matches the OrderedDict "
        "list mode on hits, counters and full per-set recency state"
    ),
    generate=_lru_generate,
    reference=_lru_reference,
    fast=_lru_fast,
    shrink=_lru_shrink,
))


# =============================================================================
# serve.cache — answers served from the result store vs fresh computes
# =============================================================================

_SERVE_KERNELS = ("OpenBLAS-8x6", "OpenBLAS-4x4")


def _serve_generate(rng: random.Random, budget: str) -> Dict[str, Any]:
    from repro.kernels.variants import get_variant

    kind = rng.choice(("simulate", "cachesim", "timed"))
    kernel = rng.choice(_SERVE_KERNELS)
    machine = rng.choice(("xgene", "mobile"))
    query: Dict[str, Any] = {
        "kind": kind, "kernel": kernel, "machine": machine,
    }
    hi = 48 if budget == "smoke" else 128
    if kind == "simulate":
        query.update({
            "m": rng.randint(8, hi),
            "n": rng.randint(8, hi),
            "k": rng.randint(8, hi),
            "threads": rng.randint(1, 2),
            "parallel_axis": rng.choice(("m", "n")),
        })
    elif kind == "cachesim":
        query.update({
            "threads": 1,
            "nc_slice": rng.choice((6, 12)),
            "seed": rng.randint(0, 2**31 - 1),
            "engine": rng.choice(("auto", "scalar")),
        })
    else:
        unroll = get_variant(kernel).plan.unroll
        query.update({
            "kc": unroll * rng.randint(1, 2 if budget == "smoke" else 4),
            "hw_late": rng.choice((0.0, 0.25, 0.5)),
            "seed": rng.randint(0, 2**31 - 1),
            "engine": "auto",
        })
    return {"query": query}


def _serve_reference(params: Dict[str, Any]) -> Dict[str, Any]:
    """Fresh compute: the answer the engines give with no cache at all."""
    from repro.serve.engine import compute_answer
    from repro.serve.query import query_key

    canonical, key = query_key(params["query"])
    return compute_answer(canonical, key)


def _serve_fast(params: Dict[str, Any]) -> Dict[str, Any]:
    """Cached serve: compute once into a store, then answer from disk.

    A fresh engine object does the second pass so the hit can only come
    from the persisted entry, never from in-process state.
    """
    import shutil
    import tempfile

    from repro.serve.engine import QueryEngine
    from repro.verify.oracle import VerifyError

    tmp = tempfile.mkdtemp(prefix="serve-oracle-")
    try:
        first = QueryEngine(tmp).query(params["query"])
        if first.source != "computed":
            raise VerifyError(
                f"expected a cold cache miss, got {first.source!r}"
            )
        served = QueryEngine(tmp).query(params["query"])
        if served.source != "hit":
            raise VerifyError(
                f"expected a warm cache hit, got {served.source!r}"
            )
        return served.answer
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _serve_shrink(params: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    query = params["query"]
    for dim in ("m", "n", "k"):
        if query.get(dim, 0) > 8:
            yield {"query": {**query, dim: max(8, query[dim] // 2)}}
    if query.get("nc_slice", 0) > 6:
        yield {"query": {**query, "nc_slice": 6}}
    if query.get("kc", 0) and query["kc"] > 4:
        yield {"query": {**query, "kc": query["kc"] // 2}}
    if query.get("threads", 1) > 1:
        yield {"query": {**query, "threads": 1}}
    if query.get("seed", 0) > 0:
        yield {"query": {**query, "seed": 0}}


register(Oracle(
    name="serve.cache",
    suite="serve",
    description=(
        "answers served from the sharded result store are bit-identical "
        "to freshly computed ones for every query kind"
    ),
    generate=_serve_generate,
    reference=_serve_reference,
    fast=_serve_fast,
    shrink=_serve_shrink,
))


# =============================================================================
# tune.memo — memoized tuning replays vs cold evaluation
# =============================================================================


def _tune_generate(rng: random.Random, budget: str) -> Dict[str, Any]:
    max_tiles = rng.randint(1, 2 if budget == "smoke" else 3)
    return {
        "machine": rng.choice(("xgene", "mobile")),
        "max_tiles": max_tiles,
        "top_k": rng.randint(1, 3),
        "radius": rng.randint(0, 1),
        "bodies": rng.randint(1, 2),
        "problem_size": 256 if budget == "smoke" else rng.choice((256, 512)),
        "seed": rng.randint(0, 2**31 - 1),
    }


def _tune_result(params: Dict[str, Any], store: Any) -> Dict[str, Any]:
    from repro.tune import tune_search

    result = tune_search(
        machine=params["machine"],
        max_tiles=params["max_tiles"],
        top_k=params["top_k"],
        radius=params["radius"],
        bodies=params["bodies"],
        problem_size=params["problem_size"],
        seed=params["seed"],
        store=store,
    )
    # The memo section counts hits/misses, which legitimately differ
    # between a cold and a replayed run; everything else must not.
    result.pop("memo")
    return result


def _tune_reference(params: Dict[str, Any]) -> Dict[str, Any]:
    """Cold evaluation: no store, every candidate scored from scratch."""
    return _tune_result(params, store=None)


def _tune_fast(params: Dict[str, Any]) -> Dict[str, Any]:
    """Memoized replay: search once into a store, then search again.

    The second pass must answer every evaluation from the persisted
    entries and reproduce the cold result document bit-identically.
    """
    import shutil
    import tempfile

    from repro.serve.store import ResultStore
    from repro.tune import tune_search
    from repro.verify.oracle import VerifyError

    tmp = tempfile.mkdtemp(prefix="tune-oracle-")
    try:
        store = ResultStore(tmp)
        kwargs = dict(
            machine=params["machine"],
            max_tiles=params["max_tiles"],
            top_k=params["top_k"],
            radius=params["radius"],
            bodies=params["bodies"],
            problem_size=params["problem_size"],
            seed=params["seed"],
            store=store,
        )
        cold = tune_search(**kwargs)
        for stage in ("analytic", "timed"):
            if cold["memo"][stage]["hits"]:
                raise VerifyError(
                    f"cold pass had {stage} memo hits "
                    f"{cold['memo'][stage]}"
                )
        warm = tune_search(**kwargs)
        for stage in ("analytic", "timed"):
            if warm["memo"][stage]["misses"]:
                raise VerifyError(
                    f"warm pass recomputed {stage} evaluations "
                    f"{warm['memo'][stage]}"
                )
        warm.pop("memo")
        return warm
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _tune_shrink(params: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    if params["max_tiles"] > 1:
        yield {**params, "max_tiles": params["max_tiles"] - 1}
    if params["top_k"] > 1:
        yield {**params, "top_k": 1}
    if params["radius"] > 0:
        yield {**params, "radius": 0}
    if params["bodies"] > 1:
        yield {**params, "bodies": 1}
    if params["problem_size"] > 256:
        yield {**params, "problem_size": 256}
    if params["seed"] > 0:
        yield {**params, "seed": 0}


register(Oracle(
    name="tune.memo",
    suite="tune",
    description=(
        "memoized-replayed tuning results are bit-identical to "
        "cold-evaluated ones (winner, ranking and scores)"
    ),
    generate=_tune_generate,
    reference=_tune_reference,
    fast=_tune_fast,
    shrink=_tune_shrink,
))


# =============================================================================
# tune.analytic — array-priced analytic model vs the per-event loop
# =============================================================================


def _analytic_generate(rng: random.Random, budget: str) -> Dict[str, Any]:
    from repro.kernels.variants import VARIANTS
    from repro.verify.machines import random_asym_machine

    hi = 160 if budget == "smoke" else 640
    pick = rng.random()
    if pick < 0.5:
        machine: Any = rng.choice(sorted(PRESETS))
        cores = PRESETS[machine].cores
    else:
        machine = (
            random_machine(rng, budget) if pick < 0.8
            else random_asym_machine(rng, budget)
        )
        cores = build_chip(machine).cores
    kernel = rng.choice(sorted(VARIANTS))
    threads = rng.randint(1, cores)
    blocking = None
    # Random machines may be too small for the blocking solver, so they
    # always price an explicit blocking; its tile need not be the kernel's.
    if not isinstance(machine, str) or rng.random() < 0.5:
        spec = VARIANTS[kernel]
        mr, nr = rng.choice(((spec.mr, spec.nr), (12, 4), (6, 8), (4, 4)))
        blocking = {
            "mr": mr,
            "nr": nr,
            "kc": rng.randint(1, 96),
            "mc": rng.randint(1, 96),
            "nc": rng.randint(1, 192),
            "k1": rng.randint(1, 2),
            "k2": rng.randint(1, 2),
            "k3": 1,
        }
    m = rng.randint(1, hi)
    if blocking is not None and threads > 1 and rng.random() < 0.3:
        # More threads than row blocks: surplus workers get no GEBPs.
        m = rng.randint(1, blocking["mc"] * (threads - 1))
    return {
        "machine": machine,
        "kernel": kernel,
        "m": m,
        "n": rng.randint(1, hi),
        "k": rng.randint(1, hi),
        "threads": threads,
        "axis": rng.choice(("m", "n")),
        "prefetch": rng.random() < 0.8,
        "blocking": blocking,
        "explicit_trace": rng.random() < 0.3,
    }


def _analytic_setup(params: Dict[str, Any]):
    """(simulator, resolved blocking, clamped threads) of one case."""
    from repro.sim.gemm_sim import GemmSimulator

    machine = params["machine"]
    chip = CHIPS[machine] if isinstance(machine, str) else build_chip(machine)
    sim = GemmSimulator(chip)
    threads = min(params["threads"], chip.cores)
    blk = params["blocking"]
    blocking = (
        sim.default_blocking(params["kernel"], threads) if blk is None
        else CacheBlocking(**blk)
    )
    return sim, blocking, threads


def _analytic_trace(params: Dict[str, Any], blocking: CacheBlocking,
                    threads: int):
    from repro.sim.synthetic_trace import synthesize_trace

    return synthesize_trace(
        params["m"], params["n"], params["k"], blocking, threads,
        axis=params["axis"],
    )


def _price_trace_objects(sim, trace, spec, blk, m, n, threads, prefetch,
                         axis):
    """The analytic model's event pricing, one event object at a time.

    The reference for :meth:`GemmSimulator.price_events`: the same
    per-event loop the model ran before it priced event arrays.
    """
    from repro.sim.gemm_sim import CycleTotals
    from repro.sim.synthetic_trace import micro_tiles

    group_cycles = sim.kernel_group_cycles(spec)
    kg = spec.k_iters_per_group
    cost_cache: Dict[tuple, List[float]] = {}
    per_thread = {t: 0.0 for t in range(threads)}
    kernel_cycles = fill_cycles = c_cycles = l1_loads = 0.0
    for ev in trace.gebps:
        tiles = micro_tiles(ev.mc, ev.nc, spec.mr, spec.nr)
        groups = math.ceil(ev.kc / kg)
        key = (ev.mc, ev.kc, ev.nc)
        if key not in cost_cache:
            cost_cache[key] = sim.shape_costs(
                np.array([key]), spec, blk, m, n, threads, prefetch, axis
            )[0].tolist()
        per_iter_fill, per_tile_c = cost_cache[key]
        kc_part = tiles * groups * group_cycles
        fl_part = tiles * ev.kc * per_iter_fill
        c_part = tiles * per_tile_c
        per_thread[ev.thread] += kc_part + fl_part + c_part
        kernel_cycles += kc_part
        fill_cycles += fl_part
        c_cycles += c_part
        l1_loads += tiles * (
            groups * spec.ldr_per_group + spec.mr * spec.nr / 2.0
        )
    pack_cycles = 0.0
    for p in trace.packs:
        words = p.rows * p.cols
        cyc = words * sim.params.pack_cycles_per_word
        if p.operand == "B" and threads > 1 and axis == "m":
            share = cyc / threads
            for t in range(threads):
                per_thread[t] += share
        else:
            per_thread[p.thread] += cyc
        pack_cycles += cyc
        l1_loads += words / 2.0
    return CycleTotals(
        list(per_thread.values()), kernel_cycles, fill_cycles, c_cycles,
        pack_cycles, l1_loads,
    )


def _analytic_reference(params: Dict[str, Any]) -> Dict[str, Any]:
    """Per-event pricing of the synthesized event-object trace."""
    from repro.kernels.variants import VARIANTS

    sim, blk, threads = _analytic_setup(params)
    m, n, k = params["m"], params["n"], params["k"]
    totals = _price_trace_objects(
        sim, _analytic_trace(params, blk, threads), VARIANTS[params["kernel"]],
        blk, m, n, threads, params["prefetch"], params["axis"],
    )
    return dataclasses.asdict(
        sim.compose(params["kernel"], m, n, k, threads, blk, totals)
    )


def _analytic_fast(params: Dict[str, Any]) -> Dict[str, Any]:
    """``GemmSimulator.simulate``: array pricing, synthesized or explicit."""
    sim, blk, threads = _analytic_setup(params)
    trace = (
        _analytic_trace(params, blk, threads)
        if params["explicit_trace"] else None
    )
    return dataclasses.asdict(sim.simulate(
        params["kernel"], params["m"], params["n"], params["k"],
        threads=threads, blocking=blk, trace=trace,
        prefetch=params["prefetch"], parallel_axis=params["axis"],
    ))


def _analytic_shrink(params: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    from repro.verify.machines import simplified_asym_machines

    for dim in ("m", "n", "k"):
        if params[dim] > 1:
            yield {**params, dim: max(1, params[dim] // 2)}
            yield {**params, dim: params[dim] - 1}
    if params["threads"] > 1:
        yield {**params, "threads": 1}
    if params["axis"] == "n":
        yield {**params, "axis": "m"}
    for flag in ("prefetch", "explicit_trace"):
        if params[flag]:
            yield {**params, flag: False}
    blk = params["blocking"]
    if blk is not None:
        for key in ("kc", "mc", "nc", "k1", "k2"):
            if blk[key] > 1:
                yield {**params, "blocking": {**blk, key: blk[key] // 2}}
    machine = params["machine"]
    if isinstance(machine, str):
        if blk is not None:
            yield {**params, "blocking": None}
        if machine != "xgene":
            yield {**params, "machine": "xgene"}
    else:
        simpler = (
            simplified_asym_machines if machine.get("clusters")
            else simplified_machines
        )
        for doc in simpler(machine):
            yield {**params, "machine": doc}


register(Oracle(
    name="tune.analytic",
    suite="tune",
    description=(
        "the analytic model priced on event arrays is bit-identical to "
        "pricing the event objects one at a time (every GemmPerformance "
        "field)"
    ),
    generate=_analytic_generate,
    reference=_analytic_reference,
    fast=_analytic_fast,
    shrink=_analytic_shrink,
))


# =============================================================================
# asym.partition — weighted class-aware partitioning vs the serial reference
# =============================================================================


def _asym_generate(rng: random.Random, budget: str) -> Dict[str, Any]:
    from repro.verify.machines import random_asym_machine

    hi = 24 if budget == "smoke" else 48
    machine = random_asym_machine(rng, budget)
    cores = sum(c["cores"] for c in machine["clusters"])
    mr, nr = rng.choice(_TILES)
    return {
        "machine": machine,
        "m": rng.randint(1, hi),
        "n": rng.randint(1, hi),
        "k": rng.randint(1, hi),
        "threads": rng.randint(2, max(2, min(4, cores))),
        "alpha": rng.choice(_SCALARS),
        "beta": rng.choice(_SCALARS),
        "blocking": {
            "mr": mr,
            "nr": nr,
            "kc": rng.choice((4, 8, 16)),
            "mc": rng.choice((8, 16, 24)),
            "nc": rng.choice((12, 16, 32)),
        },
        "data_seed": rng.randint(0, 2**31 - 1),
    }


def _asym_run(params: Dict[str, Any], weighted: bool) -> Dict[str, Any]:
    from repro.gemm.parallel import parallel_dgemm
    from repro.gemm.trace import GemmTrace
    from repro.gemm.workspace import GemmWorkspace

    chip = build_chip(params["machine"])
    g = np.random.default_rng(params["data_seed"])
    m, n, k = params["m"], params["n"], params["k"]
    a = np.asfortranarray(g.standard_normal((m, k)))
    b = np.asfortranarray(g.standard_normal((k, n)))
    c = np.asfortranarray(g.standard_normal((m, n)))
    blk = params["blocking"]
    blocking = CacheBlocking(
        mr=blk["mr"], nr=blk["nr"], kc=blk["kc"], mc=blk["mc"],
        nc=blk["nc"], k1=1, k2=1, k3=1,
    )
    threads = min(params["threads"], chip.cores) if weighted else 1
    trace = GemmTrace()
    out = parallel_dgemm(
        a, b, c.copy(order="F"), threads=threads,
        alpha=params["alpha"], beta=params["beta"],
        blocking=blocking, chip=chip, trace=trace,
        partition="weighted" if weighted else "symmetric",
        workspace=GemmWorkspace(),
    )
    # Thread ids differ between the serial and weighted runs by design;
    # identity is the C bits plus the (order-free) multiset of work the
    # engine performed.
    return {
        "c": _array_doc(out),
        "flops": trace.flops,
        "gebps": sorted(
            [e.mc, e.kc, e.nc, e.beta_pass] for e in trace.gebps
        ),
        "packs": sorted(
            [e.operand, e.rows, e.cols] for e in trace.packs
        ),
    }


def _asym_shrink(params: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    from repro.verify.machines import simplified_asym_machines

    for dim in ("m", "n", "k"):
        if params[dim] > 1:
            yield {**params, dim: max(1, params[dim] // 2)}
            yield {**params, dim: params[dim] - 1}
    if params["threads"] > 2:
        yield {**params, "threads": 2}
    for scalar in ("alpha", "beta"):
        if params[scalar] != 1.0:
            yield {**params, scalar: 1.0}
    blk = params["blocking"]
    for key in ("kc", "mc", "nc"):
        if blk[key] > 4:
            yield {**params, "blocking": {**blk, key: blk[key] // 2}}
    for machine in simplified_asym_machines(params["machine"]):
        yield {**params, "machine": machine}


register(Oracle(
    name="asym.partition",
    suite="asym",
    description=(
        "weighted class-aware partitioning on asymmetric chips is "
        "bit-identical to the serial reference (C values, work multiset)"
    ),
    generate=_asym_generate,
    reference=lambda p: _asym_run(p, weighted=False),
    fast=lambda p: _asym_run(p, weighted=True),
    shrink=_asym_shrink,
))


# =============================================================================
# stencil.blocked — cache-blocked stencil vs the unblocked reference
# =============================================================================


def _stencil_generate(rng: random.Random, budget: str) -> Dict[str, Any]:
    hi = 12 if budget == "smoke" else 24
    machine = random_machine(rng, budget)
    radius = rng.choice((1, 1, 2))
    lo = 2 * radius + 2
    return {
        "machine": machine,
        "core": rng.randrange(machine["cores"]),
        "hier_seed": rng.randint(0, 2**31 - 1),
        "height": rng.randint(lo, max(lo, hi)),
        "width": rng.randint(lo, max(lo, hi)),
        "radius": radius,
        "alpha": rng.choice((0.25, 0.1, 0.125)),
        "iterations": rng.randint(1, 3),
        # Deliberately free-running tile sizes: remainder tiles (blocks
        # that do not divide the interior) are the interesting cases.
        "bi": rng.randint(1, 8),
        "bj": rng.randint(1, 8),
        "data_seed": rng.randint(0, 2**31 - 1),
    }


def _stencil_run(params: Dict[str, Any], blocked: bool) -> Dict[str, Any]:
    from repro.workloads.base import simulate_workload_cache
    from repro.workloads.stencil import (
        StencilSpec,
        StencilWorkload,
        stencil_blocked,
        stencil_reference,
    )

    chip = build_chip(params["machine"])
    spec = StencilSpec(
        radius=params["radius"],
        alpha=params["alpha"],
        iterations=params["iterations"],
    )
    workload = StencilWorkload(
        params["height"], params["width"], spec=spec,
        block=(params["bi"], params["bj"]), seed=params["data_seed"],
    )
    grid = workload.make_grid()
    if blocked:
        out = stencil_blocked(grid, spec, (params["bi"], params["bj"]))
        engine = "batched"
    else:
        out = stencil_reference(grid, spec)
        engine = "scalar"
    # Both sides walk the *blocked* access stream; only the cache engine
    # differs, so the counters must agree bit-for-bit too.
    walk = simulate_workload_cache(
        workload, chip, core=params["core"] % chip.cores,
        engine=engine, seed=params["hier_seed"],
    )
    return {
        "output": _array_doc(out),
        "flops": workload.flops,
        "walk": {
            "l1_loads": walk.l1_loads,
            "l1_load_misses": walk.l1_load_misses,
            "l1_load_miss_rate": walk.l1_load_miss_rate,
            "l2_loads": walk.l2_loads,
            "l2_load_misses": walk.l2_load_misses,
            "dram_accesses": walk.dram_accesses,
            "trace_records": walk.trace_records,
        },
    }


def _stencil_shrink(params: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    lo = 2 * params["radius"] + 1
    for dim in ("height", "width"):
        if params[dim] > lo:
            yield {**params, dim: max(lo, params[dim] // 2)}
            yield {**params, dim: params[dim] - 1}
    if params["radius"] > 1:
        yield {**params, "radius": 1}
    if params["iterations"] > 1:
        yield {**params, "iterations": 1}
    for blk in ("bi", "bj"):
        if params[blk] > 1:
            yield {**params, blk: params[blk] // 2}
    if params["core"] > 0:
        yield {**params, "core": 0}
    for machine in simplified_machines(params["machine"]):
        yield {**params, "machine": machine}


register(Oracle(
    name="stencil.blocked",
    suite="workloads",
    description=(
        "cache-blocked stencil sweeps (remainder tiles included) are "
        "bit-identical to the unblocked reference, and the batched walk "
        "of the blocked stream matches the scalar walk"
    ),
    generate=_stencil_generate,
    reference=lambda p: _stencil_run(p, blocked=False),
    fast=lambda p: _stencil_run(p, blocked=True),
    shrink=_stencil_shrink,
))


# =============================================================================
# conv.im2col — im2col + DGEMM lowering vs the directly-blocked gather nest
# =============================================================================


def _conv_generate(rng: random.Random, budget: str) -> Dict[str, Any]:
    hi = 4 if budget == "smoke" else 8
    machine = random_machine(rng, budget)
    kh, kw = rng.randint(1, 3), rng.randint(1, 3)
    mr, nr = rng.choice(_TILES)
    return {
        "machine": machine,
        "core": rng.randrange(machine["cores"]),
        "hier_seed": rng.randint(0, 2**31 - 1),
        "cin": rng.randint(1, 3),
        "height": kh + rng.randint(0, hi),
        "width": kw + rng.randint(0, hi),
        "kh": kh,
        "kw": kw,
        "filters": rng.randint(1, 8),
        "blocking": {
            "mr": mr,
            "nr": nr,
            "kc": rng.choice((2, 4, 8)),
            "mc": rng.choice((4, 8, 16)),
            "nc": rng.choice((6, 12, 16)),
        },
        "data_seed": rng.randint(0, 2**31 - 1),
    }


def _conv_run(params: Dict[str, Any], direct: bool) -> Dict[str, Any]:
    from repro.workloads.base import simulate_workload_cache
    from repro.workloads.conv import (
        ConvSpec,
        ConvWorkload,
        conv_direct,
        conv_im2col,
    )

    chip = build_chip(params["machine"])
    spec = ConvSpec(
        cin=params["cin"], height=params["height"], width=params["width"],
        kh=params["kh"], kw=params["kw"], filters=params["filters"],
    )
    blk = params["blocking"]
    blocking = CacheBlocking(
        mr=blk["mr"], nr=blk["nr"], kc=blk["kc"], mc=blk["mc"],
        nc=blk["nc"], k1=1, k2=1, k3=1,
    )
    workload = ConvWorkload(
        spec, "direct", blocking, seed=params["data_seed"]
    )
    x, w = workload.make_operands()
    fn = conv_direct if direct else conv_im2col
    out = fn(x, w, blocking=blocking)
    # Both sides walk the *direct* lowering's access stream (the im2col
    # stream legitimately differs — it materializes the patches matrix);
    # only the cache engine changes between them.
    walk = simulate_workload_cache(
        workload, chip, core=params["core"] % chip.cores,
        engine="scalar" if direct else "batched",
        seed=params["hier_seed"],
    )
    return {
        "out": _array_doc(out),
        "flops": workload.flops,
        "walk": {
            "l1_loads": walk.l1_loads,
            "l1_load_misses": walk.l1_load_misses,
            "l1_load_miss_rate": walk.l1_load_miss_rate,
            "l2_loads": walk.l2_loads,
            "l2_load_misses": walk.l2_load_misses,
            "dram_accesses": walk.dram_accesses,
            "trace_records": walk.trace_records,
        },
    }


def _conv_shrink(params: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    for dim, floor in (("height", params["kh"]), ("width", params["kw"]),
                       ("cin", 1), ("filters", 1)):
        if params[dim] > floor:
            yield {**params, dim: max(floor, params[dim] // 2)}
            yield {**params, dim: params[dim] - 1}
    for dim in ("kh", "kw"):
        if params[dim] > 1:
            yield {**params, dim: params[dim] - 1}
    blk = params["blocking"]
    for key in ("kc", "mc", "nc"):
        if blk[key] > 2:
            yield {**params, "blocking": {**blk, key: blk[key] // 2}}
    if params["core"] > 0:
        yield {**params, "core": 0}
    for machine in simplified_machines(params["machine"]):
        yield {**params, "machine": machine}


register(Oracle(
    name="conv.im2col",
    suite="workloads",
    description=(
        "convolution lowered through im2col + blocked DGEMM is "
        "bit-identical to the directly-blocked gather nest, and the "
        "batched walk of the direct stream matches the scalar walk"
    ),
    generate=_conv_generate,
    reference=lambda p: _conv_run(p, direct=True),
    fast=lambda p: _conv_run(p, direct=False),
    shrink=_conv_shrink,
))
