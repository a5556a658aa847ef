"""Persistent worker pool for the parallel DGEMM engine and job serving.

The paper's multi-threaded DGEMM (Sec. IV-C) runs on a team of cores that
lives for the whole program: each ``(jj, kk)`` panel iteration dispatches
one slice of layer-3 work per core and joins at a barrier before the next
panel. Spawning OS threads per iteration — the seed implementation's
behaviour — costs orders of magnitude more than the barrier itself and
drowns the very scaling the paper measures.

:class:`WorkerPool` reproduces the real runtime structure: ``threads``
daemon workers are created once and reused across every panel iteration
and across ``parallel_dgemm`` calls. The pool is caller-owned: whoever
wants OS threads creates one (``with WorkerPool(4) as pool: ...``) and
passes it down; there is no process-wide pool.

The workers serve one queue. :meth:`WorkerPool.submit` appends a job
for whichever worker frees up first and returns a :class:`Job` handle —
the dispatch mode of the memoized-answer step that serving and tuning
share (:func:`repro.serve.engine.memoized`). :meth:`WorkerPool.run` is
one barrier-delimited step: task ``i`` is queued pinned to worker ``i``
ahead of every unpinned job, the caller waits on the tasks' handles, and
the first failure in task order is re-raised in the caller. Closing the
pool fails every queued entry, so a waiter on either path raises
instead of hanging.

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
    """Handle to one callable on a :class:`WorkerPool`'s queue.

    Returned by :meth:`WorkerPool.submit`; :meth:`WorkerPool.run` waits
    on one per step task. A minimal future: :meth:`result` blocks until
    a worker finished the job and returns its value (or re-raises its
    exception in the caller). Handles are single-assignment — a job
    runs at most once, and one failed by :meth:`WorkerPool.close`
    never runs.
    """

    __slots__ = ("_latch", "_done", "_result", "_exc")

    def __init__(self) -> None:
        # Held until the job finished; each waiter passes it on.
        self._latch = threading.Lock()
        self._latch.acquire()
        self._done = False
        self._result: Any = None
        self._exc: Optional[BaseException] = None

    def _finish(
        self, result: Any, exc: Optional[BaseException]
    ) -> None:
        self._result = result
        self._exc = exc
        self._done = True
        self._latch.release()

    def done(self) -> bool:
        return self._done

    def _wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job finished; ``False`` on timeout."""
        if not self._done:
            wait = -1 if timeout is None else max(timeout, 0.0)
            if not self._latch.acquire(timeout=wait):
                return False
            self._latch.release()
        return True

    def result(self, timeout: Optional[float] = None) -> Any:
        """The job's return value; blocks until it finished.

        Re-raises the job's exception if it failed; raises
        :class:`GemmError` on timeout.
        """
        if not self._wait(timeout):
            raise GemmError(f"timed out after {timeout}s waiting for job")
        if self._exc is not None:
            raise self._exc
        return self._result


#: One queued entry: the handle, the callable and the worker it is
#: pinned to (``None``: any worker).
_Entry = Tuple[Job, Callable[[], Any], Optional[int]]


class WorkerPool:
    """A team of daemon worker threads serving one queue.

    :meth:`submit` enqueues a callable for whichever worker frees up
    first. :meth:`run` is one barrier step: ``fns[i]`` is enqueued
    pinned to worker ``i`` (``None`` entries leave that worker idle),
    ahead of every queued unpinned job, and the call returns only after
    every task finished — the per-``(jj, kk)`` barrier of the parallel
    loop nest. A worker takes the first entry that is unpinned or
    pinned to itself. The pool is reused across steps, jobs and DGEMM
    calls; :meth:`close` (or context-manager exit) shuts it down.
    """

    def __init__(self, threads: int, name: str = "gemm-worker"):
        if threads < 1:
            raise GemmError(f"pool needs at least 1 worker, got {threads}")
        self.threads = threads
        self._cond = threading.Condition()
        self._queue: Deque[_Entry] = deque()
        self._closed = False
        self.steps_dispatched = 0
        self.jobs_dispatched = 0
        self._workers = [
            threading.Thread(target=self._worker_loop, args=(t,),
                             name=f"{name}-{t}", daemon=True)
            for t in range(threads)
        ]
        for w in self._workers:
            w.start()

    @property
    def closed(self) -> bool:
        return self._closed

    def _take(self, t: int) -> Optional[_Entry]:
        """Pop worker ``t``'s next entry; caller holds ``_cond``."""
        for i, entry in enumerate(self._queue):
            if entry[2] is None or entry[2] == t:
                del self._queue[i]
                return entry
        return None

    def _worker_loop(self, t: int) -> None:
        """Worker ``t``'s service loop: run entries until closed."""
        while True:
            with self._cond:
                entry = self._take(t)
                while entry is None and not self._closed:
                    self._cond.wait()
                    entry = self._take(t)
            if entry is None:
                return
            handle, fn, _ = entry
            try:
                value = fn()
            except BaseException as exc:  # re-raised by the waiter
                handle._finish(None, exc)
            else:
                handle._finish(value, None)

    def run(self, fns: Sequence[Optional[Task]]) -> None:
        """Execute one barrier step: ``fns[i]`` on worker ``i``.

        Blocks until every non-``None`` task finished, then re-raises
        the first failure in task order. A task still queued when the
        pool closes fails with :class:`GemmError`.
        """
        if len(fns) > self.threads:
            raise GemmError(
                f"{len(fns)} tasks submitted to a {self.threads}-worker pool"
            )
        step = [(Job(), fn, t) for t, fn in enumerate(fns) if fn is not None]
        with self._cond:
            if self._closed:
                raise GemmError("worker pool is closed")
            if not step:
                return
            # Barrier steps outrank queued jobs: the DGEMM inner loop's
            # latency budget is tighter than any query's. Steps keep
            # their arrival order among themselves.
            at = next((i for i, e in enumerate(self._queue) if e[2] is None),
                      len(self._queue))
            for i, entry in enumerate(step):
                self._queue.insert(at + i, entry)
            self.steps_dispatched += 1
            self._cond.notify_all()
        for handle, _fn, _t in step:
            handle._wait()
        for handle, _fn, _t in step:
            handle.result()  # raises the first failure in task order

    def submit(self, fn: Callable[[], Any]) -> Job:
        """Enqueue ``fn`` for the first free worker; returns its handle.

        Jobs run behind every queued barrier-step task, in FIFO order.
        """
        if fn is None:
            raise GemmError("cannot submit None as a job")
        handle = Job()
        with self._cond:
            if self._closed:
                raise GemmError("worker pool is closed")
            self._queue.append((handle, fn, None))
            self.jobs_dispatched += 1
            self._cond.notify_all()
        return handle

    def close(self, timeout: float = 1.0) -> None:
        """Shut the workers down (idempotent).

        Entries still queued (never started) — jobs and barrier-step
        tasks alike — fail their handles with :class:`GemmError`, so no
        waiter hangs. A worker that does not join within ``timeout``
        seconds — e.g. wedged inside a task — is detected and reported
        by name in a raised :class:`GemmError`; the pool is left closed
        (unusable) on that path too.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            orphaned = list(self._queue)
            self._queue.clear()
            self._cond.notify_all()
        for handle, _fn, _t in orphaned:
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
