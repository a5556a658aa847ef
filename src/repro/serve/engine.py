"""The memoized query engine: dedup, pool dispatch, persistent answers.

:class:`QueryEngine` turns the repo's three deterministic engine
families into a serving layer. One :meth:`run_batch` call processes a
list of query documents:

1. every query is canonicalized and content-hash-keyed
   (:mod:`repro.serve.query`);
2. duplicate keys within the batch are **deduplicated** — each unique
   key is looked up and computed at most once, however many times it
   appears;
3. unique keys go through :func:`memoized`, the memoized-answer step
   the tuner (:mod:`repro.tune.search`) shares: hits in the persistent
   :class:`~repro.serve.store.ResultStore` are served verbatim from
   disk;
4. misses are dispatched as jobs to a
   :class:`~repro.gemm.pool.WorkerPool` (via :meth:`WorkerPool.submit`)
   so simulate, cachesim and timed computations run concurrently; with
   no pool, or a lone miss, they are computed inline;
5. once every miss finished, freshly computed answers are written
   atomically to the store from the dispatching thread, in key order,
   and served.

Answers are :class:`~repro.obs.run_report.RunReport` documents built by
:func:`make_answer` with ``created=None`` — deliberately
timestamp-free, so a cached answer is **byte-identical** to a freshly
computed one (the ``serve.cache`` oracle holds the layer to that
claim). A query that fails to canonicalize or compute produces an
*error answer* (``stats.error``) that is served but never cached: a
cache must not remember failures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.gemm.pool import WorkerPool
from repro.obs.metrics import MetricsRegistry
from repro.obs.run_report import RunReport
from repro.serve.query import QueryError, query_key, resolve_machine
from repro.serve.store import ResultStore

__all__ = ["Answer", "QueryEngine", "ServeStats", "compute_answer", "execute",
           "make_answer", "memoized"]


@dataclass
class ServeStats:
    """Occurrence-level counters of one engine's lifetime.

    ``queries == hits + computed + deduped + errors`` always holds:
    every occurrence in a batch lands in exactly one bucket. ``hits``
    counts occurrences served from the persistent store, ``computed``
    counts unique cache misses actually executed, ``deduped`` counts
    repeat occurrences of a computed key within a batch, and ``errors``
    counts occurrences whose query failed to canonicalize or compute.
    """

    queries: int = 0
    hits: int = 0
    computed: int = 0
    deduped: int = 0
    errors: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "queries": self.queries,
            "hits": self.hits,
            "computed": self.computed,
            "deduped": self.deduped,
            "errors": self.errors,
        }


@dataclass
class Answer:
    """One served answer: the document plus its provenance.

    Attributes:
        index: Position of the query in the input batch.
        key: Content-hash cache key (empty for malformed queries).
        query: The canonical query (the raw input for malformed ones).
        answer: The RunReport-schema answer document.
        source: ``"hit"`` | ``"computed"`` | ``"dedup"`` | ``"error"``.
    """

    index: int
    key: str
    query: Dict[str, Any]
    answer: Dict[str, Any]
    source: str

    def to_json_line(self) -> str:
        """The answer as one deterministic JSON line (for streaming)."""
        return json.dumps(self.answer, sort_keys=True)


# -- per-kind executors -------------------------------------------------------


def _simulate_answer(query, chip, metrics, hierarchy) -> Tuple[Dict, Dict]:
    from repro.sim.gemm_sim import GemmSimulator

    sim = GemmSimulator(chip, metrics=metrics)
    perf = sim.simulate(
        query["kernel"], query["m"], query["n"], query["k"],
        threads=query["threads"], parallel_axis=query["parallel_axis"],
    )
    engines = {"model": {"requested": "analytic", "selected": "analytic",
                         "fallback_reason": None}}
    blk = perf.blocking
    stats = {
        "performance": {
            "cycles": perf.cycles,
            "flops": perf.flops,
            "gflops": perf.gflops,
            "efficiency": perf.efficiency,
            "l1_loads": perf.l1_loads,
            "breakdown": dict(perf.breakdown),
            "joules": perf.joules,
            "gflops_per_watt": perf.gflops_per_watt,
            "energy_breakdown": dict(perf.energy_breakdown),
        },
        "blocking": {
            "mr": blk.mr, "nr": blk.nr, "kc": blk.kc, "mc": blk.mc,
            "nc": blk.nc,
        },
    }
    return engines, stats


def _cachesim_answer(query, chip, metrics, hierarchy) -> Tuple[Dict, Dict]:
    import dataclasses

    from repro.sim.gemm_sim import GemmSimulator

    sim = GemmSimulator(chip, metrics=metrics)
    requested = query["engine"]
    selected = "scalar" if requested == "scalar" else "batched"
    result = sim.cache_sim(
        query["kernel"], threads=query["threads"],
        nc_slice=query["nc_slice"], engine=requested, seed=query["seed"],
        hierarchy=hierarchy,
    )
    engines = {"cachesim": {"requested": requested, "selected": selected,
                            "fallback_reason": None}}
    return engines, {"result": dataclasses.asdict(result)}


def _timed_answer(query, chip, metrics, hierarchy) -> Tuple[Dict, Dict]:
    from repro.obs.run_report import snapshot_timed_run
    from repro.sim.gemm_sim import GemmSimulator

    sim = GemmSimulator(chip, metrics=metrics)
    run = sim.timed_kernel(
        query["kernel"], kc=query["kc"], engine=query["engine"],
        hw_late=query["hw_late"], seed=query["seed"],
    )
    # fallback_reason stays null: stored answers hash these bytes.
    engines = {"timed": {"requested": query["engine"],
                         "selected": run.engine,
                         "fallback_reason": None}}
    return engines, {"run": snapshot_timed_run(run)}


def _exhibit_answer(query, chip, metrics, hierarchy) -> Tuple[Dict, Dict]:
    from repro.workloads.exhibit import conv_exhibit, stencil_exhibit

    exhibit = {"stencil": stencil_exhibit, "conv": conv_exhibit}
    # A workload query's fields past kind/machine are its exhibit's
    # keyword arguments.
    fields = {k: v for k, v in query.items() if k not in ("kind", "machine")}
    doc = exhibit[query["kind"]](chip, **fields)
    engines = {
        "cache": {"requested": "auto", "selected": "batched",
                  "fallback_reason": None},
        "timed": {"requested": "auto", "selected": "compiled",
                  "fallback_reason": None},
    }
    return engines, {"exhibit": doc}


_EXECUTORS = {
    "simulate": _simulate_answer,
    "cachesim": _cachesim_answer,
    "timed": _timed_answer,
    "stencil": _exhibit_answer,
    "conv": _exhibit_answer,
}


def execute(
    query: Dict[str, Any],
    metrics: Optional[MetricsRegistry] = None,
    hierarchy: Any = None,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one canonical query; returns its ``(engines, stats)`` blocks.

    ``metrics`` receives the engine's counters and spans. ``hierarchy``
    is the :class:`~repro.memory.hierarchy.MemoryHierarchy` a cachesim
    query replays into (a fresh one per call when omitted); the other
    kinds ignore it. The serve path passes neither, so an answer's bytes
    depend on the query alone.
    """
    _, chip = resolve_machine(query["machine"])
    return _EXECUTORS[query["kind"]](query, chip, metrics, hierarchy)


def make_answer(
    command: str,
    params: Dict[str, Any],
    stats: Dict[str, Any],
    engines: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The RunReport-schema document of one memoized answer.

    ``created`` stays ``None`` so that recomputing the same answer
    always yields the same bytes: a stored answer is indistinguishable
    from a fresh one (the ``serve.cache`` and ``tune.memo`` oracles
    rely on this).
    """
    return RunReport(
        command=command,
        created=None,
        params=params,
        engines=engines or {},
        stats=stats,
    ).to_dict()


def compute_answer(query: Dict[str, Any], key: str) -> Dict[str, Any]:
    """Execute one canonical query and build its answer document."""
    engines, stats = execute(query)
    return make_answer("query", {"key": key, "query": query}, stats, engines)


def _error_answer(
    query: Dict[str, Any], key: str, exc: BaseException
) -> Dict[str, Any]:
    return make_answer(
        "query", {"key": key, "query": query},
        {"error": {"type": type(exc).__name__, "message": str(exc)}},
    )


#: One key's work for :func:`memoized`: the content-hash key, the
#: document stored beside the answer, and the call computing the answer.
MemoJob = Tuple[str, Dict[str, Any], Callable[[], Dict[str, Any]]]


def memoized(
    store: Optional[ResultStore],
    jobs: Sequence[MemoJob],
    pool: Optional[WorkerPool] = None,
) -> List[Tuple[str, Any]]:
    """Serve each job's answer from ``store``, computing and persisting
    the misses.

    Hits are returned verbatim. Misses are computed as
    :meth:`WorkerPool.submit` jobs when ``pool`` is given and more than
    one key missed, else inline; once every miss finished, fresh answers
    are persisted from the calling thread, in job order. Returns one ``(source, value)`` per
    job, in job order: ``("hit", answer)``, ``("computed", answer)`` or
    ``("error", exception)``. An exception is never stored, so its key
    is computed again on the next call. ``store=None`` misses every key
    and persists nothing.
    """
    outcomes: List[Tuple[str, Any]] = [
        ("hit", store.get(key) if store is not None else None)
        for key, _, _ in jobs
    ]
    misses = [i for i, (_, cached) in enumerate(outcomes) if cached is None]
    if pool is not None and len(misses) > 1:
        runs = [pool.submit(jobs[i][2]).result for i in misses]
    else:
        runs = [jobs[i][2] for i in misses]
    for index, run in zip(misses, runs):
        try:
            outcomes[index] = ("computed", run())
        except Exception as exc:
            outcomes[index] = ("error", exc)
    # Persist only once every miss finished: a put between two pool
    # results would contend with the workers for the GIL.
    if store is not None:
        for index in misses:
            source, answer = outcomes[index]
            if source == "computed":
                key, doc, _ = jobs[index]
                store.put(key, doc, answer)
    return outcomes


# -- the engine ---------------------------------------------------------------


class QueryEngine:
    """Memoized query-serving front end over the engine families.

    Args:
        store: A :class:`ResultStore` or a directory path for one.
        pool: Optional worker pool; cache misses are submitted to it as
            jobs and computed concurrently. ``None`` computes inline
            (the mode the verify oracle uses).
        metrics: Optional registry receiving ``serve.*`` counters and
            the batch span; ``None`` costs nothing.
    """

    def __init__(
        self,
        store: Any,
        pool: Optional[WorkerPool] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.store = store if isinstance(store, ResultStore) else (
            ResultStore(store)
        )
        self.pool = pool
        self.metrics = metrics
        self.stats = ServeStats()

    def query(self, doc: Dict[str, Any]) -> Answer:
        """Serve a single query document."""
        return self.run_batch([doc])[0]

    def run_batch(self, docs: List[Dict[str, Any]]) -> List[Answer]:
        """Serve a batch: dedup, look up, dispatch misses, persist.

        Returns one :class:`Answer` per input document, in input order.
        """
        if self.metrics is not None:
            before = self.stats.as_dict()
            with self.metrics.span("serve.batch"):
                answers = self._run_batch(docs)
            for name, value in self.stats.as_dict().items():
                delta = value - before[name]
                if delta:
                    self.metrics.inc(f"serve.{name}", delta)
            return answers
        return self._run_batch(docs)

    def _run_batch(self, docs: List[Dict[str, Any]]) -> List[Answer]:
        self.stats.queries += len(docs)
        # 1. Canonicalize. Malformed queries become error answers now;
        #    everything else proceeds keyed.
        keyed: List[Optional[Tuple[Dict[str, Any], str]]] = []
        answers: List[Optional[Answer]] = [None] * len(docs)
        for index, doc in enumerate(docs):
            try:
                canonical, key = query_key(doc)
            except QueryError as exc:
                self.stats.errors += 1
                raw = doc if isinstance(doc, dict) else {"query": repr(doc)}
                answers[index] = Answer(
                    index=index, key="", query=raw,
                    answer=_error_answer(raw, "", exc), source="error",
                )
                keyed.append(None)
            else:
                keyed.append((canonical, key))

        # 2. Dedup: first occurrence of each key owns the lookup/compute.
        order: List[str] = []
        first: Dict[str, Tuple[Dict[str, Any], int]] = {}
        for index, entry in enumerate(keyed):
            if entry is None:
                continue
            canonical, key = entry
            if key not in first:
                first[key] = (canonical, index)
                order.append(key)

        # 3-5. Look up each unique key, compute the misses (on the pool
        #      when available) and persist them; errors are served but
        #      never cached.
        outcomes = memoized(self.store, [
            (key, first[key][0], partial(compute_answer, first[key][0], key))
            for key in order
        ], self.pool)
        unique: Dict[str, Tuple[str, Dict[str, Any]]] = {}
        for key, (source, value) in zip(order, outcomes):
            if source == "error":
                value = _error_answer(first[key][0], key, value)
            unique[key] = (source, value)

        # 6. Assemble per-occurrence answers and counters.
        served: Dict[str, bool] = {}
        for index, entry in enumerate(keyed):
            if entry is None:
                continue
            canonical, key = entry
            source, answer = unique[key]
            if source == "hit":
                self.stats.hits += 1
                occurrence = "hit"
            elif source == "error":
                self.stats.errors += 1
                occurrence = "error"
            elif not served.get(key):
                self.stats.computed += 1
                occurrence = "computed"
            else:
                self.stats.deduped += 1
                occurrence = "dedup"
            served[key] = True
            answers[index] = Answer(
                index=index, key=key, query=canonical,
                answer=answer, source=occurrence,
            )
        return [a for a in answers if a is not None]
