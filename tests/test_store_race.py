"""Several processes racing one on-disk :class:`ResultStore`.

Three spawned processes put and get overlapping keys on one fresh store
for about a second. Every ``get`` must return the key's exact answer or
``None``; once any process's put of a key has returned, no later get of
that key may miss. An entry written in place (no temp file and
``os.replace``) shows up here as a torn read, that is, a miss after a
completed put. One process also corrupts a few keys in place and checks
that its next put heals them while the others keep racing.
"""

import hashlib
import multiprocessing
import os
import random
import time

from repro.serve.store import ResultStore

PROCESSES = 3
RACE_SECONDS = 1.0
SEED = 7
#: 24 keys over 16 shard directories: every shard is shared, so the
#: processes also race to create the shard directories of a fresh store.
KEYS = [hashlib.sha256(f"race-{i}".encode()).hexdigest() for i in range(24)]
#: Keys only process 0 corrupts; a miss on them is allowed.
CORRUPTIBLE = frozenset(KEYS[:4])
#: Generous: spawned processes import numpy on a slow runner.
JOIN_TIMEOUT_S = 60.0


def _answer(key):
    """A valid RunReport-shaped answer unique to ``key`` (~19 KB, so an
    in-place write has a wide truncated window)."""
    return {
        "schema_version": 1, "command": "race", "created": None,
        "params": {"key": key}, "engines": {}, "metrics": {},
        "stats": {"payload": key * 300},
    }


def _race(root, proc, put_done, start, results):
    store = ResultStore(root)
    rng = random.Random(SEED * 100 + proc)
    answers = {key: _answer(key) for key in KEYS}
    counts = {"puts": 0, "gets": 0, "hits": 0, "checked": 0, "heals": 0}
    problems = []
    start.wait(JOIN_TIMEOUT_S)
    deadline = time.monotonic() + RACE_SECONDS
    while time.monotonic() < deadline and len(problems) < 5:
        i = rng.randrange(len(KEYS))
        key, op = KEYS[i], rng.random()
        if op < 0.3:
            store.put(key, {"key": key}, answers[key])
            put_done[i] = 1
            counts["puts"] += 1
        elif op < 0.4 and proc == 0 and key in CORRUPTIBLE:
            path = store.path_for(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text('{"kind": "serve-cache-')
            store.put(key, {"key": key}, answers[key])
            put_done[i] = 1
            # Only this process corrupts, and the others only ever
            # replace the entry with the same complete bytes.
            if store.get(key) != answers[key]:
                problems.append(f"{key[:8]}: corrupt entry did not heal")
            counts["heals"] += 1
        else:
            was_put = put_done[i]
            got = store.get(key)
            counts["gets"] += 1
            if got is None:
                if was_put and key not in CORRUPTIBLE:
                    problems.append(f"{key[:8]}: miss after a completed put")
            elif got != answers[key]:
                problems.append(f"{key[:8]}: wrong answer")
            else:
                counts["hits"] += 1
                counts["checked"] += was_put
    results.put((proc, counts, problems))


def test_processes_racing_put_and_get(tmp_path):
    ctx = multiprocessing.get_context("spawn")
    root = str(tmp_path / "store")
    put_done = ctx.Array("b", len(KEYS), lock=False)
    start, results = ctx.Barrier(PROCESSES), ctx.Queue()
    procs = [
        ctx.Process(target=_race, args=(root, p, put_done, start, results))
        for p in range(PROCESSES)
    ]
    for p in procs:
        p.start()
    try:
        outcomes = sorted(
            results.get(timeout=JOIN_TIMEOUT_S) for _ in procs
        )
    finally:
        for p in procs:
            p.join(JOIN_TIMEOUT_S)
            if p.is_alive():
                p.kill()
    assert [p.exitcode for p in procs] == [0] * PROCESSES
    for proc, counts, problems in outcomes:
        assert problems == [], (proc, problems)
        # The processes really raced: each wrote and read many times,
        # and read keys that another put had finished.
        assert counts["puts"] >= 20 and counts["gets"] >= 20, (proc, counts)
        assert counts["checked"] > 0, (proc, counts)
    assert outcomes[0][1]["heals"] > 0
    store = ResultStore(root)
    assert sorted(store.keys()) == sorted(KEYS)
    for key in KEYS:
        assert store.get(key) == _answer(key)
    assert not [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]
