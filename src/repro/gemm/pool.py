"""Persistent worker pool for the parallel DGEMM engine and job serving.

The paper's multi-threaded DGEMM (Sec. IV-C) runs on a team of cores that
lives for the whole program: each ``(jj, kk)`` panel iteration dispatches
one slice of layer-3 work per core and joins at a barrier before the next
panel. Spawning OS threads per iteration — the seed implementation's
behaviour — costs orders of magnitude more than the barrier itself and
drowns the very scaling the paper measures.

:class:`WorkerPool` reproduces the real runtime structure: ``threads``
daemon workers are created once and reused across every panel iteration
and across ``parallel_dgemm`` calls. Each :meth:`WorkerPool.run` call is
one barrier-delimited step — task ``i`` executes on worker ``i``, the
caller blocks until every task finished, and worker exceptions are
re-raised in the caller. A process-wide shared pool is available through
:func:`get_shared_pool` so library entry points (``parallel_dgemm``,
``blas.gemm``, the CLI) amortize the thread creation over the process
lifetime.

Beyond barrier steps, the pool is a general job executor: :meth:`submit`
hands an arbitrary callable to whichever worker frees up first and
returns a :class:`Job` handle. The memoized-answer step that serving
and tuning share (:func:`repro.serve.engine.memoized`) dispatches cache
misses this way, so queries and tuner evaluations run concurrently on
the same threads that serve GEBP barrier steps. Barrier steps keep
priority: a worker always prefers its pending step task over the shared
job queue.

The shared pool grows **in place** (:meth:`grow`): existing holders keep
a valid reference while new workers are added, so a thread mid-``run()``
can never observe its pool being closed underneath it.

:class:`PoolStats` is the engine's observability hook: per-logical-thread
pack/GEBP wall-clock counters plus the number of barrier steps, so a user
can see where each worker's time went (the per-core breakdown of Fig. 14
measured, not simulated).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import GemmError

Task = Callable[[], None]


@dataclass
class ThreadCounters:
    """Wall-clock/work counters of one logical thread."""

    pack_a_seconds: float = 0.0
    pack_b_seconds: float = 0.0
    gebp_seconds: float = 0.0
    pack_a_calls: int = 0
    pack_b_calls: int = 0
    gebp_calls: int = 0

    @property
    def busy_seconds(self) -> float:
        return self.pack_a_seconds + self.pack_b_seconds + self.gebp_seconds

    def reset(self) -> None:
        """Zero every counter in place (object identity is preserved)."""
        self.pack_a_seconds = 0.0
        self.pack_b_seconds = 0.0
        self.gebp_seconds = 0.0
        self.pack_a_calls = 0
        self.pack_b_calls = 0
        self.gebp_calls = 0

    def copy(self) -> "ThreadCounters":
        return ThreadCounters(
            pack_a_seconds=self.pack_a_seconds,
            pack_b_seconds=self.pack_b_seconds,
            gebp_seconds=self.gebp_seconds,
            pack_a_calls=self.pack_a_calls,
            pack_b_calls=self.pack_b_calls,
            gebp_calls=self.gebp_calls,
        )


@dataclass
class PoolStats:
    """Per-thread counters collected by the parallel engine.

    Only logical threads that actually received work appear in
    ``counters`` — surplus workers (``threads > ceil(m/mc)``) are never
    dispatched and therefore never show up, which is how benchmarks tell
    active cores from idle ones.

    Lifecycle contract: :meth:`reset` zeroes every
    :class:`ThreadCounters` *in place* and keeps it registered, so a
    reference obtained earlier from :meth:`thread` stays live and
    observes the post-reset counts instead of going stale. Entry
    creation, :meth:`reset` and the :meth:`snapshot` reads are
    lock-serialized, so :meth:`summary_rows` is stable under concurrent
    resets from other threads.
    """

    counters: Dict[int, ThreadCounters] = field(default_factory=dict)
    steps: int = 0
    calls: int = 0
    #: Core-class name per logical thread (asymmetric chips only).
    thread_class: Dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Not a dataclass field: excluded from __eq__/asdict on purpose.
        self._lock = threading.Lock()

    def thread(self, t: int) -> ThreadCounters:
        counters = self.counters.get(t)
        if counters is None:
            with self._lock:
                counters = self.counters.get(t)
                if counters is None:
                    counters = self.counters[t] = ThreadCounters()
        return counters

    @property
    def active_threads(self) -> List[int]:
        """Logical threads that performed any work, in id order."""
        return sorted(
            t for t, c in self.snapshot().items()
            if c.pack_a_calls or c.pack_b_calls or c.gebp_calls
        )

    def assign_classes(self, mapping: Dict[int, str]) -> None:
        """Record the core class of each logical thread (lock-serialized)."""
        with self._lock:
            self.thread_class.update(mapping)

    def record_call(self) -> None:
        """Count one engine call, serialized with resets and snapshots.

        The parallel engine calls this instead of bumping ``calls``
        directly: a bare ``stats.calls += 1`` is a read-modify-write that
        loses increments when concurrent callers share one
        :class:`PoolStats`.
        """
        with self._lock:
            self.calls += 1

    def reset(self) -> None:
        """Zero all counters; existing :class:`ThreadCounters` references
        remain valid (see the class docstring for the contract)."""
        with self._lock:
            for counters in self.counters.values():
                counters.reset()
            self.steps = 0
            self.calls = 0

    def snapshot(self) -> Dict[int, ThreadCounters]:
        """A consistent point-in-time copy of the per-thread counters."""
        with self._lock:
            return {t: c.copy() for t, c in self.counters.items()}

    def summary_rows(self) -> List[List[object]]:
        """Rows for :func:`repro.analysis.report.format_table`.

        Built from a :meth:`snapshot`, so the rows are internally
        consistent even when another thread resets concurrently.
        """
        return [
            [
                t,
                c.pack_a_calls,
                c.pack_b_calls,
                c.gebp_calls,
                c.pack_a_seconds * 1e3,
                c.pack_b_seconds * 1e3,
                c.gebp_seconds * 1e3,
            ]
            for t, c in sorted(self.snapshot().items())
        ]


class Job:
    """Handle to one callable submitted via :meth:`WorkerPool.submit`.

    A minimal future: :meth:`result` blocks until a worker finished the
    job and returns its value (or re-raises its exception in the
    caller). Handles are single-assignment — a job runs exactly once.
    """

    __slots__ = ("_cond", "_done", "_result", "_exc")

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._done = False
        self._result: Any = None
        self._exc: Optional[BaseException] = None

    def _finish(
        self, result: Any, exc: Optional[BaseException]
    ) -> None:
        with self._cond:
            self._result = result
            self._exc = exc
            self._done = True
            self._cond.notify_all()

    def done(self) -> bool:
        with self._cond:
            return self._done

    def result(self, timeout: Optional[float] = None) -> Any:
        """The job's return value; blocks until it finished.

        Re-raises the job's exception if it failed; raises
        :class:`GemmError` on timeout.
        """
        with self._cond:
            if not self._cond.wait_for(lambda: self._done, timeout):
                raise GemmError(
                    f"timed out after {timeout}s waiting for job"
                )
            if self._exc is not None:
                raise self._exc
            return self._result


class WorkerPool:
    """A team of daemon worker threads: barrier steps and general jobs.

    One :meth:`run` call is one step: ``fns[i]`` executes on worker ``i``
    (``None`` entries leave that worker idle), and the call returns only
    after every submitted task completed — the per-``(jj, kk)`` barrier
    of the parallel loop nest. :meth:`submit` instead enqueues one
    callable for whichever worker frees up first and returns a
    :class:`Job` handle — the dispatch mode of the query-serving layer.
    The pool is reused across steps, jobs and DGEMM calls; :meth:`grow`
    adds workers in place, and :meth:`close` (or context-manager exit)
    shuts it down.
    """

    def __init__(self, threads: int, name: str = "gemm-worker"):
        if threads < 1:
            raise GemmError(f"pool needs at least 1 worker, got {threads}")
        self.threads = threads
        self._name = name
        self._cond = threading.Condition()
        self._dispatch_lock = threading.Lock()
        self._generation = 0
        self._tasks: List[Optional[Task]] = [None] * threads
        self._pending = 0
        self._errors: List[BaseException] = []
        self._jobs: Deque[Tuple[Job, Callable[[], Any]]] = deque()
        self._closed = False
        self.steps_dispatched = 0
        self.jobs_dispatched = 0
        self._workers: List[threading.Thread] = []
        with self._cond:
            self._spawn_workers(0, threads, start_generation=0)

    def _spawn_workers(
        self, start: int, stop: int, start_generation: int
    ) -> None:
        """Start workers ``start..stop``; caller holds ``_cond``."""
        for t in range(start, stop):
            w = threading.Thread(
                target=self._worker_loop, args=(t, start_generation),
                name=f"{self._name}-{t}", daemon=True,
            )
            w.start()
            self._workers.append(w)

    @property
    def closed(self) -> bool:
        return self._closed

    def _worker_loop(self, t: int, seen: int) -> None:
        """Worker ``t``'s service loop.

        ``seen`` starts at the generation current when the worker was
        created, so workers added by :meth:`grow` never pick up the task
        slot of a step dispatched before they existed.
        """
        while True:
            job: Optional[Tuple[Job, Callable[[], Any]]] = None
            fn: Optional[Task] = None
            with self._cond:
                while (
                    not self._closed
                    and self._generation == seen
                    and not self._jobs
                ):
                    self._cond.wait()
                if self._closed:
                    return
                if self._generation != seen:
                    # Barrier steps outrank queued jobs: the DGEMM inner
                    # loop's latency budget is tighter than any query's.
                    seen = self._generation
                    fn = self._tasks[t]
                else:
                    job = self._jobs.popleft()
            if job is not None:
                handle, work = job
                try:
                    value = work()
                except BaseException as exc:
                    handle._finish(None, exc)
                else:
                    handle._finish(value, None)
                continue
            if fn is None:
                continue
            try:
                fn()
            except BaseException as exc:  # propagate to the dispatcher
                with self._cond:
                    self._errors.append(exc)
                    self._pending -= 1
                    if self._pending == 0:
                        self._cond.notify_all()
            else:
                with self._cond:
                    self._pending -= 1
                    if self._pending == 0:
                        self._cond.notify_all()

    def run(self, fns: Sequence[Optional[Task]]) -> None:
        """Execute one barrier step: ``fns[i]`` on worker ``i``.

        Blocks until every non-``None`` task finished. The first worker
        exception (if any) is re-raised here after the barrier.
        """
        if self._closed:
            raise GemmError("worker pool is closed")
        if len(fns) > self.threads:
            raise GemmError(
                f"{len(fns)} tasks submitted to a {self.threads}-worker pool"
            )
        submitted: List[Optional[Task]] = list(fns)
        n_active = sum(1 for fn in submitted if fn is not None)
        if n_active == 0:
            return
        with self._dispatch_lock:
            with self._cond:
                if self._closed:
                    raise GemmError("worker pool is closed")
                # Pad under the lock: self.threads can only have grown
                # since the length check above.
                tasks = submitted + [None] * (self.threads - len(submitted))
                self._tasks = tasks
                self._errors = []
                self._pending = n_active
                self._generation += 1
                self.steps_dispatched += 1
                self._cond.notify_all()
                while self._pending > 0:
                    self._cond.wait()
                errors = list(self._errors)
        if errors:
            raise errors[0]

    # -- general job dispatch (the serving layer's entry point) --------------

    def submit(self, fn: Callable[[], Any]) -> Job:
        """Enqueue ``fn`` for the first free worker; returns its handle.

        Jobs interleave with barrier steps on the same workers; a worker
        between steps drains the job queue in FIFO order.
        """
        if fn is None:
            raise GemmError("cannot submit None as a job")
        handle = Job()
        with self._cond:
            if self._closed:
                raise GemmError("worker pool is closed")
            self._jobs.append((handle, fn))
            self.jobs_dispatched += 1
            self._cond.notify_all()
        return handle

    def grow(self, threads: int) -> None:
        """Add workers so the pool serves at least ``threads`` (in place).

        Safe for concurrent holders: growth quiesces behind the dispatch
        lock (waiting out any in-flight barrier step) and never closes or
        replaces anything, so a reference obtained earlier stays valid
        and simply sees more workers. Shrinking is not supported; a
        smaller ``threads`` is a no-op.
        """
        if threads <= self.threads:
            return
        with self._dispatch_lock:
            with self._cond:
                if self._closed:
                    raise GemmError("cannot grow a closed worker pool")
                if threads <= self.threads:
                    return
                old = self.threads
                self._tasks = self._tasks + [None] * (threads - old)
                self._spawn_workers(
                    old, threads, start_generation=self._generation
                )
                self.threads = threads

    def close(self, timeout: float = 1.0) -> None:
        """Shut the workers down (idempotent).

        Jobs still queued (never started) fail their handles with
        :class:`GemmError`. A worker that does not join within
        ``timeout`` seconds — e.g. wedged inside a task — is detected
        and reported by name in a raised :class:`GemmError`; the pool is
        left closed (unusable) on that path too.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            orphaned = list(self._jobs)
            self._jobs.clear()
            self._cond.notify_all()
        for handle, _fn in orphaned:
            handle._finish(
                None, GemmError("worker pool closed before job ran")
            )
        stuck = []
        for w in self._workers:
            w.join(timeout=timeout)
            if w.is_alive():
                stuck.append(w.name)
        if stuck:
            raise GemmError(
                f"worker(s) failed to join within {timeout:.1f}s: "
                + ", ".join(stuck)
            )

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"WorkerPool(threads={self.threads}, {state}, "
            f"steps={self.steps_dispatched}, jobs={self.jobs_dispatched})"
        )


_shared_pool: Optional[WorkerPool] = None
_shared_pool_lock = threading.Lock()


def get_shared_pool(threads: int) -> WorkerPool:
    """The process-wide pool, grown (never shrunk) to ``threads`` workers.

    Created on first use and reused by every subsequent caller, so the
    thread-creation cost is paid once per process rather than once per
    panel iteration. Growth happens **in place** via
    :meth:`WorkerPool.grow`: the pool object identity is stable across
    grows, so a holder that obtained the pool earlier — possibly mid-
    ``run()`` on another thread — is never handed a closed pool.
    """
    global _shared_pool
    with _shared_pool_lock:
        if _shared_pool is None or _shared_pool.closed:
            _shared_pool = WorkerPool(threads)
        elif _shared_pool.threads < threads:
            _shared_pool.grow(threads)
        return _shared_pool


def close_shared_pool() -> None:
    """Tear down the process-wide pool (tests / interpreter shutdown)."""
    global _shared_pool
    with _shared_pool_lock:
        if _shared_pool is not None:
            _shared_pool.close()
            _shared_pool = None
