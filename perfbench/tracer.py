"""Outside-in layer tracer for the benchmark's traced run.

Wraps the public entry points of each layer from outside the program:
nothing under ``src/`` changes. A function is wrapped wherever callers
look its name up. That is every ``repro.*`` module global bound to it,
which covers call-site modules that pulled the name in with a ``from``
import. A method is wrapped on its class. Each wrapper records ``calls``
and ``self_s`` (inclusive time minus the time of child spans). It keeps a
span stack per thread, so work done on pool workers is attributed to the
worker's own spans.

:data:`PREDICTIONS` is the layer-to-end-to-end table: for each layer
metric, the end-to-end metric and workload it should move and the
workload it should leave unchanged. The traced run's self-check fails
when a layer records zero calls on a workload it is predicted to move.
"""

from __future__ import annotations

import importlib
import os
import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``cls`` is empty for module functions. ``sites`` names the modules
    whose global lookup callers use; the self-check requires each to
    hold the wrapper.
    """

    layer: str
    module: str
    attr: str
    cls: str = ""
    sites: Tuple[str, ...] = ()


TARGETS: Tuple[Target, ...] = (
    Target("serve.query_key", "repro.serve.query", "query_key",
           sites=("repro.serve.engine",)),
    Target("serve.store_get", "repro.serve.store", "get", cls="ResultStore"),
    Target("serve.store_put", "repro.serve.store", "put", cls="ResultStore"),
    Target("serve.compute_answer", "repro.serve.engine", "compute_answer",
           sites=("repro.serve.engine",)),
    Target("obs.validate_report", "repro.obs.run_report", "validate_report",
           sites=("repro.serve.store",)),
    Target("obs.atomic_write_json", "repro.obs.run_report",
           "atomic_write_json", sites=("repro.serve.store",)),
    Target("obs.report_to_dict", "repro.obs.run_report", "to_dict",
           cls="RunReport"),
    Target("kernels.get_variant", "repro.kernels.variants", "get_variant",
           sites=("repro.kernels.variants",)),
    Target("kernels.generate_kernel", "repro.kernels.codegen",
           "generate_kernel",
           sites=("repro.kernels.variants", "repro.tune.evaluate")),
    Target("kernels.solve_rotation", "repro.kernels.rotation",
           "solve_rotation",
           sites=("repro.kernels.codegen", "repro.tune.evaluate")),
    Target("kernels.compile_kernel", "repro.kernels.compiled",
           "compile_kernel", sites=("repro.sim.timed_executor",)),
    Target("sim.gebp_traces", "repro.sim.gebp_cachesim", "gebp_traces",
           sites=("repro.sim.gebp_cachesim",)),
    Target("sim.simulate_gebp_cache", "repro.sim.gebp_cachesim",
           "simulate_gebp_cache", sites=("repro.sim.gemm_sim",)),
    Target("sim.run_timed_micro_tile", "repro.sim.timed_executor",
           "run_timed_micro_tile", sites=("repro.sim.timed_executor",)),
    Target("sim.gemm_simulate", "repro.sim.gemm_sim", "simulate",
           cls="GemmSimulator"),
    Target("memory.run_batch", "repro.memory.hierarchy", "run_batch",
           cls="MemoryHierarchy"),
    Target("memory.run_batch_levels", "repro.memory.hierarchy",
           "run_batch_levels", cls="MemoryHierarchy"),
    Target("pipeline.run_compiled", "repro.pipeline.scoreboard",
           "run_compiled", cls="ScoreboardCore"),
    Target("workloads.traces", "repro.workloads.stencil", "traces",
           cls="StencilWorkload"),
    Target("workloads.traces", "repro.workloads.conv", "traces",
           cls="ConvWorkload"),
    Target("workloads.simulate_workload_cache", "repro.workloads.base",
           "simulate_workload_cache", sites=("repro.workloads.exhibit",)),
    Target("workloads.timed_workload", "repro.workloads.base",
           "timed_workload", sites=("repro.workloads.exhibit",)),
    Target("tune.enumerate_candidates", "repro.tune.space",
           "enumerate_candidates", sites=("repro.tune.search",)),
    Target("tune.analytic_eval", "repro.tune.evaluate", "analytic_eval",
           sites=("repro.tune.search",)),
    Target("tune.timed_eval", "repro.tune.evaluate", "timed_eval",
           sites=("repro.tune.search",)),
)

#: Pool jobs are counted, not spanned: the job's own work is a span.
POOL_TARGET = Target("pool", "repro.gemm.pool", "submit", cls="WorkerPool")

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t.layer for t in TARGETS))

#: Layer-count metrics beyond calls/self_s, per layer.
EXTRAS = {
    "serve.store_get": ("hit_ratio",),
    "serve.store_put": ("bytes",),
    "memory.run_batch": ("accesses", "ns_per_access"),
    "memory.run_batch_levels": ("accesses", "ns_per_access"),
    "pipeline.run_compiled": ("instructions", "ns_per_instruction"),
}

#: (layer metric, [(end-to-end metric, workload it moves)], workload it
#: should leave unchanged). Later performance changes cite their row.
PREDICTIONS: Tuple[Tuple[str, Tuple[Tuple[str, str], ...], str], ...] = (
    ("serve.query_key", (("ops_per_s", "serve-hot"),
                         ("latency_p50_ms", "serve-hot")), "tune-cold"),
    ("serve.store_get", (("ops_per_s", "serve-hot"),
                         ("latency_p50_ms", "serve-hot")), "exhibit-cold"),
    ("obs.validate_report", (("ops_per_s", "serve-hot"),
                             ("latency_p50_ms", "serve-hot")), "exhibit-cold"),
    ("serve.store_put", (("ops_per_s", "serve-cold"),
                         ("ops_per_s", "tune-cold")), "serve-hot"),
    ("obs.atomic_write_json", (("ops_per_s", "serve-cold"),
                               ("ops_per_s", "tune-cold")), "serve-hot"),
    ("obs.report_to_dict", (("ops_per_s", "serve-cold"),
                            ("ops_per_s", "tune-cold")), "serve-hot"),
    ("serve.compute_answer", (("ops_per_s", "serve-cold"),
                              ("ops_per_s", "exhibit-cold")), "serve-hot"),
    ("pool", (("latency_tail_ms", "serve-cold"),), "serve-hot"),
    ("kernels.get_variant", (("ops_per_s", "serve-cold"),), "serve-hot"),
    ("kernels.generate_kernel", (("ops_per_s", "serve-cold"),
                                 ("ops_per_s", "tune-cold")), "serve-hot"),
    ("kernels.solve_rotation", (("ops_per_s", "serve-cold"),
                                ("ops_per_s", "tune-cold")), "serve-hot"),
    ("kernels.compile_kernel", (("ops_per_s", "serve-cold"),
                                ("ops_per_s", "tune-cold")), "serve-hot"),
    ("sim.gebp_traces", (("ops_per_s", "serve-cold"),), "tune-cold"),
    ("sim.simulate_gebp_cache", (("ops_per_s", "serve-cold"),), "tune-cold"),
    ("sim.run_timed_micro_tile", (("ops_per_s", "serve-cold"),
                                  ("ops_per_s", "tune-cold")), "exhibit-cold"),
    ("sim.gemm_simulate", (("ops_per_s", "tune-cold"),), "exhibit-cold"),
    ("memory.run_batch", (("ops_per_s", "exhibit-cold"),
                          ("latency_tail_ms", "serve-cold")), "tune-cold"),
    ("memory.run_batch_levels", (("ops_per_s", "exhibit-cold"),
                                 ("latency_tail_ms", "serve-cold")),
     "serve-hot"),
    ("memory.fallback_accesses", (("latency_tail_ms", "serve-cold"),),
     "exhibit-cold"),
    ("pipeline.run_compiled", (("latency_p50_ms", "exhibit-cold"),),
     "serve-hot"),
    ("workloads.traces", (("ops_per_s", "exhibit-cold"),), "serve-cold"),
    ("workloads.simulate_workload_cache", (("ops_per_s", "exhibit-cold"),),
     "serve-cold"),
    ("workloads.timed_workload", (("ops_per_s", "exhibit-cold"),),
     "serve-cold"),
    ("tune.enumerate_candidates", (("ops_per_s", "tune-cold"),), "serve-cold"),
    ("tune.analytic_eval", (("ops_per_s", "tune-cold"),), "serve-cold"),
    ("tune.timed_eval", (("ops_per_s", "tune-cold"),), "serve-cold"),
)


class _ThreadState:
    """Spans and counters of one thread; merged when the run ends."""

    __slots__ = ("stack", "stats", "extras", "intervals")

    def __init__(self) -> None:
        self.stack: List[List[float]] = []
        #: layer -> [calls, self_s, inclusive_s]
        self.stats: Dict[str, List[float]] = {}
        self.extras: Dict[str, float] = {}
        #: (start, end) of this thread's outermost spans.
        self.intervals: List[Tuple[float, float]] = []


def _resolve(target: Target) -> Tuple[Any, Any]:
    """``(owner, original)`` for a target: its module or class."""
    owner: Any = importlib.import_module(target.module)
    if target.cls:
        owner = getattr(owner, target.cls)
        return owner, owner.__dict__[target.attr]
    return owner, getattr(owner, target.attr)


class Tracer:
    """Installs span wrappers and aggregates what they record."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        #: (target, original, wrapper) per installed target.
        self._installed: List[Tuple[Target, Any, Any]] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            with self._lock:
                self._states.append(st)
            self._local.state = st
        return st

    # -- wrappers ------------------------------------------------------------

    def _span(
        self,
        layer: str,
        fn: Callable[..., Any],
        before: Optional[Callable[[tuple], Any]] = None,
        after: Optional[Callable[[_ThreadState, tuple, Any, Any], None]] = None,
    ) -> Callable[..., Any]:
        state = self._state

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            st = state()
            ctx = before(args) if before is not None else None
            frame = [0.0]
            st.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.stack.pop()
                inclusive = t1 - t0
                rec = st.stats.get(layer)
                if rec is None:
                    rec = st.stats[layer] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += inclusive - frame[0]
                rec[2] += inclusive
                if st.stack:
                    st.stack[-1][0] += inclusive
                else:
                    st.intervals.append((t0, t1))
            if after is not None:
                after(st, args, result, ctx)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", layer)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _hooks(self, layer: str):
        def add(st: _ThreadState, name: str, value: float) -> None:
            st.extras[name] = st.extras.get(name, 0.0) + value

        if layer == "serve.store_get":
            return None, lambda st, a, r, c: add(
                st, "serve.store_get.hits", r is not None)
        if layer == "serve.store_put":
            return None, lambda st, a, r, c: add(
                st, "serve.store_put.bytes", os.path.getsize(r))
        if layer in ("memory.run_batch", "memory.run_batch_levels"):
            def after(st, args, result, fallbacks_before):
                accesses = (result.accesses if layer == "memory.run_batch"
                            else len(result[0]))
                add(st, f"{layer}.accesses", accesses)
                add(st, "memory.fallback_accesses",
                    args[0].batched_fallback_accesses() - fallbacks_before)
            return (lambda args: args[0].batched_fallback_accesses()), after
        if layer == "pipeline.run_compiled":
            return None, lambda st, a, r, c: add(
                st, "pipeline.run_compiled.instructions", r.instructions)
        return None, None

    def _pool_submit(self, original: Callable[..., Any]) -> Callable[..., Any]:
        state = self._state

        def submit(pool: Any, fn: Callable[[], Any]) -> Any:
            queued = perf_counter()

            def job() -> Any:
                start = perf_counter()
                try:
                    return fn()
                finally:
                    end = perf_counter()
                    extras = state().extras
                    for name, value in (("pool.jobs", 1),
                                        ("pool.queue_wait_s", start - queued),
                                        ("pool.run_s", end - start)):
                        extras[name] = extras.get(name, 0.0) + value

            return original(pool, job)

        submit.__wrapped__ = original  # type: ignore[attr-defined]
        return submit

    # -- install -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever it is bound, for the rest of the
        process (a traced run never measures untraced)."""
        for target in TARGETS + (POOL_TARGET,):
            for site in target.sites:
                importlib.import_module(site)
            owner, original = _resolve(target)
            if target is POOL_TARGET:
                wrapper = self._pool_submit(original)
            else:
                wrapper = self._span(target.layer, original,
                                     *self._hooks(target.layer))
            self._installed.append((target, original, wrapper))
            if target.cls:
                setattr(owner, target.attr, wrapper)
                continue
            for module in self._repro_modules():
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    @staticmethod
    def _repro_modules() -> List[Any]:
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "repro"
                                      or name.startswith("repro."))]

    # -- self-check ----------------------------------------------------------

    def placement_problems(self) -> List[str]:
        """Wrappers missing where callers look names up."""
        problems = []
        originals = {}
        for target, original, wrapper in self._installed:
            if target.cls:
                owner = getattr(importlib.import_module(target.module),
                                target.cls)
                if owner.__dict__.get(target.attr) is not wrapper:
                    problems.append(f"{target.cls}.{target.attr} not wrapped")
                continue
            originals[id(original)] = (target, original)
            for site in target.sites:
                bound = getattr(sys.modules.get(site), target.attr, None)
                if bound is not wrapper:
                    problems.append(
                        f"{site}.{target.attr} does not hold the wrapper")
        for module in self._repro_modules():
            for name, value in list(vars(module).items()):
                target, original = originals.get(id(value), (None, None))
                if target is not None and value is original:
                    problems.append(
                        f"{module.__name__}.{name} still binds the unwrapped "
                        f"{target.layer}")
        return problems

    # -- results -------------------------------------------------------------

    def totals(self) -> Tuple[Dict[str, List[float]], Dict[str, float]]:
        stats: Dict[str, List[float]] = {}
        extras: Dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for layer, rec in list(st.stats.items()):
                acc = stats.setdefault(layer, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += rec[i]
            for name, value in list(st.extras.items()):
                extras[name] = extras.get(name, 0.0) + value
        return stats, extras

    def covered_seconds(self, windows: Sequence[Tuple[float, float]]) -> float:
        """Time within ``windows`` that some thread spent inside a span."""
        with self._lock:
            states = list(self._states)
        spans = sorted(iv for st in states for iv in st.intervals)
        merged: List[List[float]] = []
        for start, end in spans:
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        covered, j = 0.0, 0
        for lo, hi in windows:
            while j < len(merged) and merged[j][1] <= lo:
                j += 1
            k = j
            while k < len(merged) and merged[k][0] < hi:
                covered += min(hi, merged[k][1]) - max(lo, merged[k][0])
                k += 1
        return covered


def layer_metrics(
    stats: Dict[str, List[float]], extras: Dict[str, float]
) -> Dict[str, Tuple[float, str]]:
    """Every named per-layer metric as ``name -> (value, unit)``."""
    out: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        calls, self_s, _ = stats.get(layer, (0, 0.0, 0.0))
        out[f"{layer}.calls"] = (int(calls), "count")
        out[f"{layer}.self_s"] = (self_s, "s")
        for extra in EXTRAS.get(layer, ()):
            if extra == "hit_ratio":
                hits = extras.get("serve.store_get.hits", 0.0)
                out[f"{layer}.hit_ratio"] = (hits / calls if calls else 0.0,
                                             "ratio")
            elif extra in ("accesses", "instructions", "bytes"):
                out[f"{layer}.{extra}"] = (
                    int(extras.get(f"{layer}.{extra}", 0)), "count")
            else:
                base = {"ns_per_access": "accesses",
                        "ns_per_instruction": "instructions"}[extra]
                work = extras.get(f"{layer}.{base}", 0)
                out[f"{layer}.{extra}"] = (
                    self_s / work * 1e9 if work else 0.0, "ns")
    out["memory.fallback_accesses"] = (
        int(extras.get("memory.fallback_accesses", 0)), "count")
    out["pool.jobs"] = (int(extras.get("pool.jobs", 0)), "count")
    out["pool.queue_wait_s"] = (extras.get("pool.queue_wait_s", 0.0), "s")
    out["pool.run_s"] = (extras.get("pool.run_s", 0.0), "s")
    return out


#: The count each prediction row's zero-call check reads, where it is
#: not ``<layer>.calls``.
ROW_COUNT = {
    "pool": "pool.jobs",
    "memory.fallback_accesses": "memory.fallback_accesses",
}

#: Raw counts reported per op in the JSON line: a memo that cuts a
#: layer's work per op lowers them, whatever the run's throughput.
PER_OP_COUNTS = ("memory.fallback_accesses", "pool.jobs") + tuple(
    f"{layer}.{name}" for layer in LAYERS
    for name in ("calls",) + EXTRAS.get(layer, ())
    if name in ("calls", "bytes", "accesses", "instructions")
)


def zero_call_problems(
    workload: str, metrics: Dict[str, Tuple[float, str]]
) -> List[str]:
    """Layers predicted to move ``workload`` that recorded no calls."""
    problems = []
    for layer, moves, _ in PREDICTIONS:
        if workload not in {w for _, w in moves}:
            continue
        name = ROW_COUNT.get(layer, f"{layer}.calls")
        if name not in metrics:
            problems.append(f"{layer}: no metric {name} to check")
        elif metrics[name][0] == 0:
            problems.append(f"{layer} recorded zero {name} on {workload}")
    return problems
