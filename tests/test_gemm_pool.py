"""Tests for the persistent parallel engine: worker pool, packed-buffer
workspace, thread-safe tracing, and the threaded DGEMM bugfixes."""

import random
import threading
import time

import numpy as np
import pytest

from repro.blocking import CacheBlocking
from repro.errors import GemmError
from repro.gemm import (
    GemmTrace,
    GemmWorkspace,
    PoolStats,
    WorkerPool,
    dgemm,
    get_shared_workspace,
    numpy_dgemm,
    pack_a,
    pack_b,
    parallel_dgemm,
)

RNG = np.random.default_rng(777)

SMALL_BLOCKING = CacheBlocking(
    mr=8, nr=6, kc=64, mc=24, nc=48, k1=1, k2=2, k3=1
)

#: Edge shapes: m % mc != 0, n % nr != 0, k % kc != 0 for SMALL_BLOCKING.
EDGE_SHAPES = [(25, 49, 65), (97, 50, 130), (23, 7, 64)]


def fmat(m, n):
    return np.asfortranarray(RNG.standard_normal((m, n)))


class TestWorkerPool:
    def test_runs_every_task_once(self):
        hits = [0] * 4
        def make(i):
            def task():
                hits[i] += 1
            return task
        with WorkerPool(4) as pool:
            pool.run([make(i) for i in range(4)])
        assert hits == [1, 1, 1, 1]

    def test_tasks_run_on_distinct_threads(self):
        idents = [None] * 3
        def make(i):
            def task():
                idents[i] = threading.get_ident()
            return task
        with WorkerPool(3) as pool:
            pool.run([make(i) for i in range(3)])
        assert len(set(idents)) == 3
        assert threading.get_ident() not in idents

    def test_barrier_reuse_across_steps(self):
        """Each run() is a barrier: step n+1 sees all of step n's writes."""
        log = []
        with WorkerPool(2) as pool:
            for step in range(50):
                pool.run([lambda s=step: log.append(s)] * 2)
        assert log == [s for s in range(50) for _ in range(2)]
        assert pool.steps_dispatched == 50

    def test_none_tasks_leave_workers_idle(self):
        hits = []
        with WorkerPool(3) as pool:
            pool.run([lambda: hits.append(0), None, lambda: hits.append(2)])
        assert sorted(hits) == [0, 2]

    def test_empty_step_is_noop(self):
        with WorkerPool(2) as pool:
            pool.run([])
            pool.run([None, None])
            assert pool.steps_dispatched == 0

    def test_worker_exception_reraised_at_barrier(self):
        def boom():
            raise ValueError("kernel fault")
        with WorkerPool(2) as pool:
            with pytest.raises(ValueError, match="kernel fault"):
                pool.run([boom, lambda: None])
            # The pool survives an error step and keeps working.
            done = []
            pool.run([lambda: done.append(1), lambda: done.append(1)])
            assert done == [1, 1]

    def test_first_failure_in_task_order_after_barrier(self):
        """run() waits for every task, then re-raises task 0's failure even
        when task 1 failed first."""
        task1_failed = threading.Event()
        finished = []

        def slow_boom():
            assert task1_failed.wait(timeout=5.0)
            finished.append(0)
            raise ValueError("task 0")

        def fast_boom():
            finished.append(1)
            task1_failed.set()
            raise KeyError("task 1")

        with WorkerPool(3) as pool:
            with pytest.raises(ValueError, match="task 0"):
                pool.run([slow_boom, fast_boom, lambda: finished.append(2)])
        assert sorted(finished) == [0, 1, 2]

    def test_steps_run_ahead_of_queued_jobs(self):
        release = threading.Event()
        started = threading.Event()
        order = []
        with WorkerPool(1) as pool:
            pool.submit(lambda: (started.set(), release.wait(5.0)))
            assert started.wait(timeout=5.0)
            job = pool.submit(lambda: order.append("job"))
            client = threading.Thread(
                target=pool.run, args=([lambda: order.append("step")],)
            )
            client.start()
            while pool.steps_dispatched == 0:
                time.sleep(0.001)
            release.set()
            client.join(timeout=5.0)
            job.result(timeout=5.0)
        assert order == ["step", "job"]

    def test_step_racing_close_raises_instead_of_hanging(self):
        """Regression: a step task still waiting for a busy worker when
        close() landed was never run, and run() blocked forever."""
        release = threading.Event()
        started = threading.Event()
        pool = WorkerPool(2, name="racetest")
        pool.submit(lambda: (started.set(), release.wait(10.0)))
        assert started.wait(timeout=5.0)  # one of the two workers is wedged
        ran, outcome = [], []

        def client():
            try:
                pool.run([lambda: ran.append(0), lambda: ran.append(1)])
            except GemmError as exc:
                outcome.append(exc)
            else:
                outcome.append(None)

        caller = threading.Thread(target=client, daemon=True)
        caller.start()
        deadline = time.monotonic() + 5.0
        while not ran and time.monotonic() < deadline:
            time.sleep(0.001)  # the free worker has run its task
        assert len(ran) == 1
        try:
            with pytest.raises(GemmError, match="racetest"):
                pool.close(timeout=0.2)
        finally:
            release.set()
        caller.join(timeout=5.0)
        assert not caller.is_alive()
        assert len(outcome) == 1 and isinstance(outcome[0], GemmError)
        assert len(ran) == 1  # the wedged worker's task never ran

    @pytest.mark.parametrize("seed", range(4))
    def test_close_races_submit_and_run(self, seed):
        """Hammer: clients mix submit().result() and run() on one pool
        while it closes at a seeded random point. Every call returns or
        raises GemmError, and every handle is done afterwards."""
        pool = WorkerPool(3)
        handles, outcomes, unexpected = [], [], []

        def client(c):
            rng = random.Random(seed * 97 + c)
            for i in range(400):
                try:
                    if rng.random() < 0.5:
                        job = pool.submit(lambda i=i: i)
                        handles.append(job)
                        if job.result(timeout=5.0) != i:
                            unexpected.append(("job value", i))
                    else:
                        hits = []
                        fns = [rng.choice([None, lambda: hits.append(1)])
                               for _ in range(rng.randint(1, 3))]
                        pool.run(fns)
                        if len(hits) != sum(fn is not None for fn in fns):
                            unexpected.append(("step hits", i))
                except GemmError as exc:
                    if "closed" not in str(exc):
                        unexpected.append(exc)
                    outcomes.append("closed")
                    return
                except BaseException as exc:
                    unexpected.append(exc)
                    return
            outcomes.append("finished")

        clients = [threading.Thread(target=client, args=(c,), daemon=True)
                   for c in range(4)]
        for caller in clients:
            caller.start()
        time.sleep(random.Random(seed).uniform(0.0, 0.03))
        pool.close(timeout=5.0)
        for caller in clients:
            caller.join(timeout=5.0)
            assert not caller.is_alive()
        assert unexpected == []
        assert len(outcomes) == len(clients)
        assert all(job.done() for job in handles)

    def test_too_many_tasks_rejected(self):
        with WorkerPool(2) as pool:
            with pytest.raises(GemmError):
                pool.run([lambda: None] * 3)

    def test_close_is_idempotent_and_final(self):
        pool = WorkerPool(2)
        pool.close()
        pool.close()
        assert pool.closed
        with pytest.raises(GemmError):
            pool.run([lambda: None])

    def test_needs_at_least_one_worker(self):
        with pytest.raises(GemmError):
            WorkerPool(0)

    def test_close_reports_stuck_worker(self):
        """close() must not silently leak a wedged worker thread."""
        release = threading.Event()
        started = threading.Event()
        pool = WorkerPool(2, name="stucktest")

        def wedge():
            started.set()
            release.wait()

        pool.submit(wedge)
        assert started.wait(timeout=5.0)  # the worker is now inside wedge
        try:
            with pytest.raises(GemmError, match="stucktest"):
                pool.close(timeout=0.2)
            assert pool.closed  # unusable even though close() raised
            with pytest.raises(GemmError):
                pool.run([lambda: None, lambda: None])
        finally:
            release.set()  # let the wedged worker exit

    def test_pool_stats_consistent_with_concurrent_callers(self):
        """Two callers sharing one pool: each call's counters still cover
        every event of its own trace."""
        a = np.asfortranarray(RNG.standard_normal((96, 128)))
        b = np.asfortranarray(RNG.standard_normal((128, 96)))
        c = np.asfortranarray(RNG.standard_normal((96, 96)))
        done = []

        def run(threads):
            s, t = PoolStats(), GemmTrace()
            parallel_dgemm(a, b, c.copy(order="F"), threads=threads,
                           blocking=SMALL_BLOCKING, trace=t, stats=s,
                           pool=pool)
            done.append((s, t))

        with WorkerPool(4) as pool:
            callers = [threading.Thread(target=run, args=(threads,))
                       for threads in (2, 4)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=30.0)
                assert not caller.is_alive()
        assert len(done) == 2
        for s, t in done:
            n_a = sum(ct.pack_a_calls for ct in s.counters.values())
            n_b = sum(ct.pack_b_calls for ct in s.counters.values())
            n_g = sum(ct.gebp_calls for ct in s.counters.values())
            assert n_a == len([p for p in t.packs if p.operand == "A"])
            assert n_b == len([p for p in t.packs if p.operand == "B"])
            assert n_g == len(t.gebps)
            assert s.calls == 1


class TestJobAPI:
    """The generalized submit/collect side of the pool (serving layer)."""

    def test_submit_returns_result(self):
        with WorkerPool(2) as pool:
            job = pool.submit(lambda: 41 + 1)
            assert job.result(timeout=5.0) == 42
            assert job.done()

    def test_job_exception_reraised_on_result(self):
        def boom():
            raise ValueError("job fault")
        with WorkerPool(2) as pool:
            job = pool.submit(boom)
            with pytest.raises(ValueError, match="job fault"):
                job.result(timeout=5.0)
            # The pool survives a failed job.
            assert pool.submit(lambda: 7).result(timeout=5.0) == 7

    def test_jobs_interleave_with_barrier_steps(self):
        """submit() work and run() barrier steps share the same workers
        without deadlock; barrier steps take priority."""
        log = []
        with WorkerPool(2) as pool:
            jobs = [pool.submit(lambda i=i: log.append(("job", i)))
                    for i in range(4)]
            for step in range(5):
                pool.run([lambda s=step: log.append(("step", s))] * 2)
            for job in jobs:
                job.result(timeout=5.0)
        assert sorted(e for e in log if e[0] == "job") == [
            ("job", i) for i in range(4)
        ]
        assert [e for e in log if e[0] == "step"] == [
            ("step", s) for s in range(5) for _ in range(2)
        ]

    def test_jobs_run_concurrently(self):
        """Two blocking jobs must be in flight at once on a 2-wide pool."""
        gate = threading.Barrier(2, timeout=5.0)
        with WorkerPool(2) as pool:
            jobs = [pool.submit(gate.wait) for _ in range(2)]
            for job in jobs:
                job.result(timeout=5.0)  # deadlocks if serialized

    def test_submit_on_closed_pool_raises(self):
        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(GemmError):
            pool.submit(lambda: None)

    def test_close_fails_queued_jobs(self):
        """Jobs still queued when the pool closes must fail loudly, not
        hang their waiters forever."""
        import time

        release = threading.Event()
        started = threading.Event()
        pool = WorkerPool(1)

        def blocker_fn():
            started.set()
            release.wait(timeout=5.0)

        blocker = pool.submit(blocker_fn)
        orphan = pool.submit(lambda: "never runs")
        assert started.wait(timeout=5.0)  # the lone worker is occupied

        def unblock_once_closed():
            while not pool.closed:
                time.sleep(0.005)
            release.set()

        helper = threading.Thread(target=unblock_once_closed)
        helper.start()
        try:
            pool.close(timeout=5.0)  # orphan is still queued here
        finally:
            release.set()
            helper.join()
        blocker.result(timeout=5.0)
        with pytest.raises(GemmError, match="closed"):
            orphan.result(timeout=5.0)

    def test_result_timeout(self):
        release = threading.Event()
        pool = WorkerPool(1, name="timeouttest")
        job = pool.submit(release.wait)
        try:
            with pytest.raises(GemmError, match="timed out"):
                job.result(timeout=0.05)
        finally:
            release.set()
            pool.close()

    def test_jobs_dispatched_counter(self):
        with WorkerPool(2) as pool:
            for job in [pool.submit(lambda: None) for _ in range(5)]:
                job.result(timeout=5.0)
            assert pool.jobs_dispatched == 5
            assert "jobs=5" in repr(pool)


class TestWorkspace:
    def test_buffers_are_cached_per_slot(self):
        ws = GemmWorkspace()
        b1 = ws.a_buffer(0, 24, 64, 8)
        b2 = ws.a_buffer(0, 24, 64, 8)
        assert b1 is b2
        assert ws.hits == 1 and ws.misses == 1

    def test_threads_and_shapes_get_distinct_buffers(self):
        ws = GemmWorkspace()
        assert ws.a_buffer(0, 24, 64, 8) is not ws.a_buffer(1, 24, 64, 8)
        assert ws.a_buffer(0, 24, 64, 8) is not ws.a_buffer(0, 16, 64, 8)
        assert ws.b_buffer(64, 48, 6) is not ws.b_buffer(64, 48, 6, thread=0)

    def test_bytes_held_and_clear(self):
        ws = GemmWorkspace()
        ws.b_buffer(64, 48, 6)  # 8 slivers x 64 x 6 doubles
        assert ws.bytes_held == 8 * 64 * 6 * 8
        ws.clear()
        assert ws.bytes_held == 0 and ws.num_buffers == 0

    def test_shared_workspace_is_a_singleton(self):
        assert get_shared_workspace() is get_shared_workspace()


class TestPackingOut:
    def test_pack_a_out_matches_fresh(self):
        a = fmat(21, 13)  # ragged: 21 % 8 != 0
        fresh = pack_a(a, 8)
        buf = np.full(fresh.shape, np.nan)  # dirty buffer must be ignored
        packed = pack_a(a, 8, out=buf)
        assert packed is buf
        assert np.array_equal(packed, fresh)

    def test_pack_b_out_matches_fresh(self):
        b = fmat(13, 31)  # ragged: 31 % 6 != 0
        fresh = pack_b(b, 6)
        buf = np.full(fresh.shape, np.nan)
        packed = pack_b(b, 6, out=buf)
        assert packed is buf
        assert np.array_equal(packed, fresh)

    def test_out_shape_mismatch_raises(self):
        with pytest.raises(GemmError):
            pack_a(fmat(16, 4), 8, out=np.zeros((1, 4, 8)))
        with pytest.raises(GemmError):
            pack_b(fmat(4, 12), 6, out=np.zeros((2, 4, 6), dtype=np.float32))

    def test_padding_rezeroed_on_reuse(self):
        buf = pack_a(fmat(10, 3), 8)
        buf[:] = 7.0  # poison, including the padding lanes
        packed = pack_a(fmat(10, 3), 8, out=buf)
        assert np.all(packed[1, :, 2:] == 0.0)


class TestUseOsThreadsForwarding:
    """OS threads used to be silently dropped for axis='n'; a given pool
    now runs both axes."""

    @pytest.mark.parametrize("axis", ["m", "n"])
    def test_both_axes_honour_os_threads(self, axis):
        m, n, k = 96, 120, 70
        a, b, c = fmat(m, k), fmat(k, n), fmat(m, n)
        seq = parallel_dgemm(a, b, c.copy(order="F"), threads=4,
                             blocking=SMALL_BLOCKING, axis=axis)
        with WorkerPool(4) as pool:
            par = parallel_dgemm(a, b, c.copy(order="F"), threads=4,
                                 blocking=SMALL_BLOCKING, axis=axis,
                                 pool=pool)
            assert pool.steps_dispatched > 0
        assert np.array_equal(seq, par)

    @pytest.mark.parametrize("axis", ["m", "n"])
    def test_os_threads_actually_execute_off_main(self, axis):
        seen = set()
        orig = threading.get_ident

        class SpyPool(WorkerPool):
            def run(self, fns):
                def wrap(fn):
                    if fn is None:
                        return None
                    def task():
                        seen.add(orig())
                        fn()
                    return task
                super().run([wrap(fn) for fn in fns])

        m, n, k = 96, 96, 64  # 4 row blocks / 2 column panels
        a, b, c = fmat(m, k), fmat(k, n), fmat(m, n)
        with SpyPool(4) as pool:
            parallel_dgemm(a, b, c, threads=4, blocking=SMALL_BLOCKING,
                           axis=axis, pool=pool)
        assert seen and orig() not in seen

    def test_bad_pool_argument_raises(self):
        a, b, c = fmat(8, 8), fmat(8, 8), fmat(8, 8)
        with pytest.raises(GemmError):
            parallel_dgemm(a, b, c, threads=2, pool="fork")

    def test_undersized_pool_rejected(self):
        a, b, c = fmat(64, 64), fmat(64, 64), fmat(64, 64)
        with WorkerPool(2) as pool:
            with pytest.raises(GemmError):
                parallel_dgemm(a, b, c, threads=4, pool=pool,
                               blocking=SMALL_BLOCKING)


class TestTraceThreadSafety:
    """Regression: trace.record_* used to race under OS threads; events
    are now buffered per thread and merged deterministically."""

    @pytest.mark.parametrize("axis", ["m", "n"])
    @pytest.mark.parametrize("engine", ["pool", "spawn"])
    def test_threaded_trace_identical_to_sequential(self, axis, engine):
        m, n, k = 120, 144, 130  # several blocks along every dimension
        a, b, c = fmat(m, k), fmat(k, n), fmat(m, n)
        seq_trace = GemmTrace()
        parallel_dgemm(a, b, c.copy(order="F"), threads=4,
                       blocking=SMALL_BLOCKING, axis=axis, trace=seq_trace)
        with WorkerPool(4) as pool:
            for _ in range(3):  # racy code passes sometimes; repeat
                par_trace = GemmTrace()
                parallel_dgemm(
                    a, b, c.copy(order="F"), threads=4,
                    blocking=SMALL_BLOCKING, axis=axis, trace=par_trace,
                    pool="spawn" if engine == "spawn" else pool,
                )
                assert par_trace.packs == seq_trace.packs
                assert par_trace.gebps == seq_trace.gebps


class TestEmptyWorkers:
    """threads > ceil(m/mc): surplus workers must be skipped entirely."""

    def test_surplus_threads_do_no_work(self):
        m = 2 * SMALL_BLOCKING.mc  # exactly two row blocks
        a, b, c = fmat(m, 64), fmat(64, 48), fmat(m, 48)
        trace, stats = GemmTrace(), PoolStats()
        with WorkerPool(8) as pool:
            parallel_dgemm(a, b, c, threads=8, blocking=SMALL_BLOCKING,
                           trace=trace, stats=stats, pool=pool)
        assert trace.threads == 8
        assert trace.active_threads == [0, 1]
        assert stats.active_threads == [0, 1]
        assert set(stats.counters) == {0, 1}

    def test_surplus_threads_never_dispatched_to_pool(self):
        calls = []

        class CountingPool(WorkerPool):
            def run(self, fns):
                calls.append(sum(1 for fn in fns if fn is not None))
                super().run(fns)

        m = 3 * SMALL_BLOCKING.mc
        a, b, c = fmat(m, 64), fmat(64, 48), fmat(m, 48)
        with CountingPool(8) as pool:
            parallel_dgemm(a, b, c, threads=8, blocking=SMALL_BLOCKING,
                           pool=pool)
        assert calls and all(n == 3 for n in calls)

    def test_axis_n_surplus_threads(self):
        n = SMALL_BLOCKING.nc  # a single column panel for many threads
        a, b, c = fmat(30, 40), fmat(40, n), fmat(30, n)
        trace = GemmTrace()
        with WorkerPool(6) as pool:
            parallel_dgemm(a, b, c, threads=6, blocking=SMALL_BLOCKING,
                           axis="n", trace=trace, pool=pool)
        assert trace.active_threads == [0]


class TestPoolStats:
    def test_counters_cover_all_events(self):
        m, n, k = 96, 96, 128
        a, b, c = fmat(m, k), fmat(k, n), fmat(m, n)
        trace, stats = GemmTrace(), PoolStats()
        parallel_dgemm(a, b, c, threads=4, blocking=SMALL_BLOCKING,
                       trace=trace, stats=stats)
        n_a = sum(ct.pack_a_calls for ct in stats.counters.values())
        n_b = sum(ct.pack_b_calls for ct in stats.counters.values())
        n_g = sum(ct.gebp_calls for ct in stats.counters.values())
        assert n_a == len([p for p in trace.packs if p.operand == "A"])
        assert n_b == len([p for p in trace.packs if p.operand == "B"])
        assert n_g == len(trace.gebps)
        assert stats.calls == 1
        assert stats.steps == -(-n // SMALL_BLOCKING.nc) * \
            -(-k // SMALL_BLOCKING.kc)

    def test_reset(self):
        stats = PoolStats()
        held = stats.thread(0)
        held.gebp_calls = 3
        stats.steps = 5
        stats.reset()
        assert stats.steps == 0 and stats.calls == 0
        # Contract: counters are zeroed in place, so references held by
        # callers stay live instead of going stale.
        assert stats.thread(0) is held
        assert held.gebp_calls == 0
        assert stats.active_threads == []

    def test_summary_rows_stable_under_concurrent_reset(self):
        import threading

        stats = PoolStats()
        for t in range(4):
            stats.thread(t).gebp_calls = t + 1
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                stats.reset()
                for t in range(4):
                    stats.thread(t).gebp_calls = 1

        w = threading.Thread(target=hammer)
        w.start()
        try:
            for _ in range(200):
                rows = stats.summary_rows()
                assert [r[0] for r in rows] == sorted(r[0] for r in rows)
        finally:
            stop.set()
            w.join()

    def test_summary_rows_sorted_by_thread(self):
        stats = PoolStats()
        stats.thread(2).gebp_calls = 1
        stats.thread(0).gebp_calls = 2
        rows = stats.summary_rows()
        assert [r[0] for r in rows] == [0, 2]


class TestWorkspaceReuse:
    def test_no_new_buffers_in_steady_state(self):
        ws = GemmWorkspace()
        a, b, c = fmat(96, 128), fmat(128, 96), fmat(96, 96)
        parallel_dgemm(a, b, c.copy(order="F"), threads=4,
                       blocking=SMALL_BLOCKING, workspace=ws)
        misses_after_first = ws.misses
        for _ in range(3):
            parallel_dgemm(a, b, c.copy(order="F"), threads=4,
                           blocking=SMALL_BLOCKING, workspace=ws)
        assert ws.misses == misses_after_first  # all later packs hit
        assert ws.hits > 0

    def test_serial_driver_accepts_workspace(self):
        ws = GemmWorkspace()
        a, b, c = fmat(70, 90), fmat(90, 60), fmat(70, 60)
        plain = dgemm(a, b, c.copy(order="F"), blocking=SMALL_BLOCKING)
        cached = dgemm(a, b, c.copy(order="F"), blocking=SMALL_BLOCKING,
                       workspace=ws)
        again = dgemm(a, b, c.copy(order="F"), blocking=SMALL_BLOCKING,
                      workspace=ws)
        assert np.array_equal(plain, cached)
        assert np.array_equal(plain, again)
        assert ws.num_buffers > 0

    def test_results_independent_of_workspace_contents(self):
        ws = GemmWorkspace()
        a, b, c = fmat(50, 70), fmat(70, 50), fmat(50, 50)
        first = parallel_dgemm(a, b, c.copy(order="F"), threads=2,
                               blocking=SMALL_BLOCKING, workspace=ws)
        # Same workspace, different operands, then the originals again.
        parallel_dgemm(fmat(50, 70), fmat(70, 50), fmat(50, 50), threads=2,
                       blocking=SMALL_BLOCKING, workspace=ws)
        second = parallel_dgemm(a, b, c.copy(order="F"), threads=2,
                                blocking=SMALL_BLOCKING, workspace=ws)
        assert np.array_equal(first, second)


class TestThreadedParity:
    """Satellite: axis x OS-threads x beta (NaN-seeded C for beta=0) on
    edge shapes. Threaded execution must be bit-identical to the serial
    blocked driver (same operation sequence per C element) and match the
    numpy reference to tolerance."""

    @pytest.mark.parametrize("shape", EDGE_SHAPES)
    @pytest.mark.parametrize("beta", [0.0, 1.0, 0.5])
    @pytest.mark.parametrize("threaded", [False, True])
    @pytest.mark.parametrize("axis", ["m", "n"])
    def test_parity(self, shape, beta, threaded, axis):
        m, n, k = shape
        a, b = fmat(m, k), fmat(k, n)
        if beta == 0.0:
            c = np.full((m, n), np.nan, order="F")  # must not leak through
            ref = numpy_dgemm(a, b, np.zeros((m, n), order="F"))
        else:
            c = fmat(m, n)
            ref = numpy_dgemm(a, b, c, beta=beta)
        serial = dgemm(a, b, c.copy(order="F"), beta=beta,
                       blocking=SMALL_BLOCKING)
        with WorkerPool(3) as pool:
            got = parallel_dgemm(a, b, c.copy(order="F"), threads=3,
                                 beta=beta, blocking=SMALL_BLOCKING,
                                 axis=axis, pool=pool if threaded else None)
        assert np.array_equal(got, serial)  # bit-for-bit vs serial driver
        assert np.allclose(got, ref, atol=1e-10)
        assert not np.isnan(got).any()
