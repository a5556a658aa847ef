"""Tests for the memoized query-serving layer: canonical queries,
content-hash keys, the sharded crash-safe result store, the engine's
dedup/dispatch behaviour, and the query/serve CLI."""

import json
import os
import threading

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.gemm.pool import WorkerPool
from repro.obs.run_report import (
    SCHEMA_VERSION,
    atomic_write_json,
    atomic_write_text,
    validate_report,
)
from repro.serve import (
    QUERY_SCHEMA_VERSION,
    QueryEngine,
    QueryError,
    ResultStore,
    ServeStats,
    canonical_query,
    compute_answer,
    query_key,
    resolve_machine,
    warm_queries,
)
from repro.serve.engine import memoized

#: Cheap queries used throughout (small shapes, short replays).
SIM_Q = {"kind": "simulate", "m": 64, "n": 64, "k": 64}
CACHE_Q = {"kind": "cachesim", "kernel": "OpenBLAS-4x4", "nc_slice": 6}
TIMED_Q = {"kind": "timed", "kc": 8}


class TestCanonicalQuery:
    def test_defaults_filled_and_input_not_mutated(self):
        doc = {"kind": "simulate"}
        canon = canonical_query(doc)
        assert doc == {"kind": "simulate"}
        assert canon["m"] == canon["n"] == canon["k"] == 256
        assert canon["machine"] == "xgene"
        assert canon["kernel"] == "OpenBLAS-8x6"
        assert canon["parallel_axis"] == "m"

    def test_unknown_kind_rejected(self):
        with pytest.raises(QueryError, match="kind"):
            canonical_query({"kind": "frobnicate"})

    def test_unknown_field_rejected(self):
        with pytest.raises(QueryError, match="unknown"):
            canonical_query({"kind": "simulate", "batchsize": 9})

    def test_kind_fields_do_not_leak_across_kinds(self):
        # nc_slice belongs to cachesim, not simulate.
        with pytest.raises(QueryError, match="unknown"):
            canonical_query({"kind": "simulate", "nc_slice": 12})

    def test_unknown_kernel_and_machine_rejected(self):
        with pytest.raises(QueryError, match="kernel"):
            canonical_query({"kind": "simulate", "kernel": "MKL-16x1"})
        with pytest.raises(QueryError, match="machine"):
            canonical_query({"kind": "simulate", "machine": "riscv"})

    def test_field_validation(self):
        with pytest.raises(QueryError, match="'m'"):
            canonical_query({"kind": "simulate", "m": 0})
        with pytest.raises(QueryError, match="integer"):
            canonical_query({"kind": "simulate", "m": 2.5})
        with pytest.raises(QueryError, match="parallel_axis"):
            canonical_query({"kind": "simulate", "parallel_axis": "k"})
        with pytest.raises(QueryError, match="engine"):
            canonical_query({"kind": "cachesim", "engine": "gpu"})

    def test_hw_late_coerced_to_float(self):
        canon = canonical_query({"kind": "timed", "hw_late": 1})
        assert isinstance(canon["hw_late"], float)

    def test_machine_document_accepted(self):
        def level(name, sets, ways, latency, shared_by):
            return {"name": name, "sets": sets, "ways": ways, "line": 64,
                    "latency": latency, "replacement": "lru",
                    "write_policy": "write-back", "shared_by": shared_by}

        doc = {
            "kind": "cachesim",
            "machine": {
                "cores": 1, "cores_per_module": 1, "line": 64,
                "l1": level("L1D", 4, 4, 4, 1),
                "l2": level("L2", 16, 8, 12, 1),
                "l3": None, "with_tlb": False, "dram_latency": 100,
            },
        }
        label, chip = resolve_machine(canonical_query(doc)["machine"])
        assert label == "custom" and chip.cores == 1

    def test_invalid_machine_document_rejected(self):
        with pytest.raises(QueryError, match="machine"):
            resolve_machine({"cores": "many"})


class TestQueryKey:
    def test_defaults_and_explicit_agree(self):
        # A query spelled with defaults explicit hashes identically.
        _, implicit = query_key({"kind": "simulate"})
        _, explicit = query_key({
            "kind": "simulate", "machine": "xgene",
            "kernel": "OpenBLAS-8x6", "m": 256, "n": 256, "k": 256,
            "threads": 1, "parallel_axis": "m",
        })
        assert implicit == explicit

    def test_different_queries_differ(self):
        _, k1 = query_key({"kind": "simulate"})
        _, k2 = query_key({"kind": "simulate", "m": 257})
        _, k3 = query_key({"kind": "cachesim"})
        assert len({k1, k2, k3}) == 3

    def test_key_covers_schema_versions(self, monkeypatch):
        _, before = query_key(SIM_Q)
        import repro.serve.query as query_mod

        monkeypatch.setattr(
            query_mod, "QUERY_SCHEMA_VERSION", QUERY_SCHEMA_VERSION + 1
        )
        _, after = query_key(SIM_Q)
        assert before != after


class TestAtomicWrite:
    def test_text_roundtrip_no_droppings(self, tmp_path):
        path = tmp_path / "doc.txt"
        atomic_write_text(path, "one\n")
        atomic_write_text(path, "two\n")
        assert path.read_text() == "two\n"
        assert os.listdir(tmp_path) == ["doc.txt"]  # no temp files left

    def test_json_is_deterministic(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_json(path, {"b": 1, "a": 2})
        assert path.read_text() == '{\n  "a": 2,\n  "b": 1\n}\n'

    def test_failed_write_preserves_old_content(self, tmp_path,
                                                monkeypatch):
        path = tmp_path / "doc.txt"
        atomic_write_text(path, "good\n")
        monkeypatch.setattr(os, "replace", _boom)
        with pytest.raises(RuntimeError):
            atomic_write_text(path, "bad\n")
        assert path.read_text() == "good\n"
        assert os.listdir(tmp_path) == ["doc.txt"]  # temp file cleaned up


def _boom(*_args):
    raise RuntimeError("disk on fire")


class TestResultStore:
    def _entry(self, store):
        canon, key = query_key(SIM_Q)
        answer = compute_answer(canon, key)
        store.put(key, canon, answer)
        return key, answer

    def test_roundtrip_and_sharding(self, tmp_path):
        store = ResultStore(tmp_path)
        key, answer = self._entry(store)
        assert store.get(key) == answer
        path = store.path_for(key)
        # One hex character names the shard: 16 shard directories.
        assert path == tmp_path / key[:1] / f"{key}.json"
        assert list(store.keys()) == [key]
        assert len(store) == 1 and store.bytes_held() > 0

    def test_legacy_two_character_shard_is_not_read(self, tmp_path):
        """A well-formed entry left in a two-character shard directory
        (the earlier layout) is neither listed nor served."""
        store = ResultStore(tmp_path)
        key, answer = self._entry(store)
        legacy = tmp_path / key[:2] / f"{key}.json"
        legacy.parent.mkdir()
        store.path_for(key).replace(legacy)
        assert json.loads(legacy.read_text())["answer"] == answer
        assert list(store.keys()) == []
        assert store.get(key) is None
        assert len(store) == 0 and store.bytes_held() == 0

    def test_entry_is_one_compact_line(self, tmp_path):
        store = ResultStore(tmp_path)
        key, answer = self._entry(store)
        text = store.path_for(key).read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        assert json.loads(text)["answer"] == answer
        assert store.get(key) == answer

    def test_missing_key_is_none(self, tmp_path):
        assert ResultStore(tmp_path).get("ab" + "0" * 62) is None

    @pytest.mark.parametrize("garbage", [
        "",                          # empty file
        '{"kind": "serve-cache-',    # truncated JSON
        "not json at all",           # garbage
        "[1, 2, 3]",                 # not an object
        '{"kind": "other"}',         # wrong envelope
    ])
    def test_corrupt_entry_is_a_miss(self, tmp_path, garbage):
        store = ResultStore(tmp_path)
        key, _ = self._entry(store)
        store.path_for(key).write_text(garbage)
        assert store.get(key) is None

    def test_version_skew_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key, _ = self._entry(store)
        doc = json.loads(store.path_for(key).read_text())
        doc["query_schema_version"] += 1
        store.path_for(key).write_text(json.dumps(doc))
        assert store.get(key) is None

    def test_key_mismatch_is_a_miss(self, tmp_path):
        """An entry file copied to the wrong key must not be served."""
        store = ResultStore(tmp_path)
        key, _ = self._entry(store)
        other = key[:-4] + "beef"
        target = store.path_for(other)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(store.path_for(key).read_text())
        assert store.get(other) is None

    def test_invalid_answer_schema_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key, _ = self._entry(store)
        doc = json.loads(store.path_for(key).read_text())
        doc["answer"]["schema_version"] = SCHEMA_VERSION + 99
        store.path_for(key).write_text(json.dumps(doc))
        assert store.get(key) is None


class TestQueryEngine:
    def test_two_pass_byte_identical(self, tmp_path):
        docs = [SIM_Q, CACHE_Q, TIMED_Q]
        cold = QueryEngine(tmp_path).run_batch(docs)
        warm_engine = QueryEngine(tmp_path)
        warm = warm_engine.run_batch(docs)
        assert [a.source for a in cold] == ["computed"] * 3
        assert [a.source for a in warm] == ["hit"] * 3
        assert warm_engine.stats.hits == warm_engine.stats.queries == 3
        assert [a.to_json_line() for a in cold] == [
            a.to_json_line() for a in warm
        ]
        for a in cold:
            assert validate_report(a.answer) == []
            assert a.answer["created"] is None  # determinism by design

    def test_duplicates_computed_once(self, tmp_path):
        docs = [SIM_Q, dict(SIM_Q), SIM_Q, CACHE_Q]
        engine = QueryEngine(tmp_path)
        answers = engine.run_batch(docs)
        s = engine.stats
        assert (s.queries, s.computed, s.deduped) == (4, 2, 2)
        assert [a.source for a in answers] == [
            "computed", "dedup", "dedup", "computed"
        ]
        # Every duplicate occurrence shares the exact answer document.
        assert answers[0].answer == answers[1].answer == answers[2].answer

    def test_corrupt_cache_recomputes_not_crashes(self, tmp_path):
        engine = QueryEngine(tmp_path)
        first = engine.query(SIM_Q)
        store = ResultStore(tmp_path)
        store.path_for(first.key).write_text('{"trunca')
        again = QueryEngine(tmp_path).query(SIM_Q)
        assert again.source == "computed"
        assert again.to_json_line() == first.to_json_line()
        # The recompute healed the entry on disk.
        assert store.get(first.key) == first.answer

    def test_failed_store_write_still_serves_the_batch(self, tmp_path):
        """A put that raises OSError must not lose the batch's computed
        answers. A file sitting where a key's shard directory belongs
        makes that key's put fail, whatever the shard layout."""
        from repro.obs import MetricsRegistry

        store = ResultStore(tmp_path / "store")
        docs = [SIM_Q, CACHE_Q, TIMED_Q]
        keys = [query_key(doc)[1] for doc in docs]
        blocked = store.path_for(keys[0]).parent
        blocked.parent.mkdir()
        blocked.write_text("not a shard directory")
        metrics = MetricsRegistry()
        engine = QueryEngine(store, metrics=metrics)
        answers = engine.run_batch(docs)
        assert [a.source for a in answers] == ["computed"] * 3
        assert answers[0].answer == compute_answer(*query_key(SIM_Q))
        unstored = [k for k in keys if store.path_for(k).parent == blocked]
        assert engine.stats.store_errors == len(unstored) >= 1
        assert engine.stats.errors == 0
        counters = metrics.as_dict()["counters"]
        assert counters["serve.store_errors"] == len(unstored)
        for key, answer in zip(keys, answers):
            expected = None if key in unstored else answer.answer
            assert store.get(key) == expected

    def test_malformed_query_served_as_error_not_cached(self, tmp_path):
        engine = QueryEngine(tmp_path)
        answers = engine.run_batch([{"kind": "nope"}, SIM_Q])
        assert [a.source for a in answers] == ["error", "computed"]
        assert answers[0].answer["stats"]["error"]["type"] == "QueryError"
        assert engine.stats.errors == 1
        assert len(ResultStore(tmp_path)) == 1  # only the good answer

    def test_compute_error_served_not_cached(self, tmp_path):
        # 99 threads exceed every preset's core count -> SimulationError.
        bad = {"kind": "simulate", "threads": 99}
        engine = QueryEngine(tmp_path)
        answer = engine.query(bad)
        assert answer.source == "error"
        assert "error" in answer.answer["stats"]
        assert len(ResultStore(tmp_path)) == 0
        # Errors are never remembered: asking again recomputes.
        assert QueryEngine(tmp_path).query(bad).source == "error"

    def test_pool_dispatch_used_for_misses(self, tmp_path):
        with WorkerPool(2) as pool:
            engine = QueryEngine(tmp_path, pool=pool)
            inline = QueryEngine(tmp_path.parent / "inline")
            pooled = engine.run_batch([SIM_Q, CACHE_Q, TIMED_Q])
            assert pool.jobs_dispatched == 3
            serial = inline.run_batch([SIM_Q, CACHE_Q, TIMED_Q])
        assert [a.to_json_line() for a in pooled] == [
            a.to_json_line() for a in serial
        ]

    def test_metrics_counters(self, tmp_path):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        QueryEngine(tmp_path, metrics=metrics).run_batch([SIM_Q, SIM_Q])
        counters = metrics.as_dict()["counters"]
        assert counters["serve.queries"] == 2
        assert counters["serve.computed"] == 1
        assert counters["serve.deduped"] == 1


def _query_jobs(*docs):
    """memoized() jobs answering each query document."""
    jobs = []
    for doc in docs:
        canonical, key = query_key(doc)
        jobs.append((key, canonical,
                     lambda c=canonical, k=key: compute_answer(c, k)))
    return jobs


class TestMemoized:
    """The lookup -> compute -> persist step serving and tuning share."""

    def test_no_store_computes_every_key(self):
        calls = []
        jobs = [(k, {}, lambda k=k: calls.append(k) or {"k": k})
                for k in ("a", "b")]
        for _ in range(2):
            assert memoized(None, jobs) == [
                ("computed", {"k": "a"}), ("computed", {"k": "b"}),
            ]
        assert calls == ["a", "b", "a", "b"]

    def test_failed_put_is_counted_not_raised(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        jobs = _query_jobs(SIM_Q)
        store.root.write_text("not a directory")  # every put fails
        stats = ServeStats()
        [(source, answer)] = memoized(store, jobs, stats=stats)
        assert source == "computed" and validate_report(answer) == []
        assert stats.store_errors == 1
        # Without stats the failure is still swallowed.
        assert memoized(store, jobs) == [("computed", answer)]

    def test_exception_returned_not_stored_and_retried(self, tmp_path):
        store = ResultStore(tmp_path)
        calls = []

        def bad():
            calls.append("bad")
            raise ValueError("no answer")

        jobs = _query_jobs(SIM_Q) + [("f" * 64, {}, bad)]
        (source, answer), (err_source, exc) = memoized(store, jobs)
        assert (source, err_source) == ("computed", "error")
        assert isinstance(exc, ValueError)
        assert list(store.keys()) == [jobs[0][0]]
        again = memoized(store, jobs)
        assert again[0] == ("hit", answer)
        assert again[1][0] == "error"
        assert calls == ["bad", "bad"]

    def test_pooled_matches_inline_byte_for_byte(self, tmp_path):
        jobs = _query_jobs(SIM_Q, CACHE_Q, TIMED_Q)
        inline = ResultStore(tmp_path / "inline")
        pooled = ResultStore(tmp_path / "pooled")
        with WorkerPool(2) as pool:
            got = memoized(pooled, jobs, pool)
            assert pool.jobs_dispatched == 3
        assert got == memoized(inline, jobs)
        for key, _, _ in jobs:
            assert (pooled.path_for(key).read_bytes()
                    == inline.path_for(key).read_bytes())

    def test_lone_miss_runs_inline(self, tmp_path):
        store = ResultStore(tmp_path)
        jobs = _query_jobs(SIM_Q, TIMED_Q)
        memoized(store, jobs[:1])
        with WorkerPool(2) as pool:
            got = memoized(store, jobs, pool)
            assert pool.jobs_dispatched == 0
        assert [source for source, _ in got] == ["hit", "computed"]


class TestWarmQueries:
    def test_all_presets_canonicalize(self):
        from repro.serve.presets import WARM_PRESETS

        for preset in WARM_PRESETS:
            docs = warm_queries(preset)
            assert docs
            for doc in docs:
                canonical_query(doc)  # must not raise

    def test_all_is_union(self):
        from repro.serve.query import MACHINE_PRESETS

        keys = lambda p: {query_key(d)[1] for d in warm_queries(p)}
        union = set()
        for preset in MACHINE_PRESETS:
            union |= keys(preset)
        assert keys("all") == union

    def test_unknown_preset_rejected(self):
        with pytest.raises(QueryError):
            warm_queries("riscv")


class TestServeCli:
    def _write_batch(self, tmp_path, docs):
        path = tmp_path / "batch.jsonl"
        path.write_text(
            "# comment line\n\n"
            + "".join(json.dumps(d) + "\n" for d in docs)
        )
        return path

    def test_query_two_pass_and_expect_all_hits(self, tmp_path, capsys):
        batch = self._write_batch(tmp_path, [SIM_Q, SIM_Q, TIMED_Q])
        cache = str(tmp_path / "cache")
        out1, out2 = str(tmp_path / "p1.jsonl"), str(tmp_path / "p2.jsonl")
        # Cold pass: computes; --expect-all-hits would fail here.
        assert main(["query", "--batch", str(batch), "--cache-dir", cache,
                     "--threads", "2", "--out", out1,
                     "--expect-all-hits"]) == 1
        # Warm pass: pure hits, byte-identical stream.
        assert main(["query", "--batch", str(batch), "--cache-dir", cache,
                     "--threads", "1", "--out", out2,
                     "--expect-all-hits"]) == 0
        with open(out1) as f1, open(out2) as f2:
            assert f1.read() == f2.read()
        answers = [json.loads(line)
                   for line in open(out2).read().splitlines()]
        assert len(answers) == 3
        assert all(validate_report(a) == [] for a in answers)

    def test_query_streams_to_stdout(self, tmp_path, capsys):
        batch = self._write_batch(tmp_path, [SIM_Q])
        assert main(["query", "--batch", str(batch),
                     "--cache-dir", str(tmp_path / "c"),
                     "--threads", "1"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out.strip().splitlines()[-1])
        assert doc["command"] == "query"
        assert "served 1 queries" in captured.err

    def test_query_bad_batch_line_fails_loudly(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "simulate"}\n{oops\n')
        assert main(["query", "--batch", str(path),
                     "--cache-dir", str(tmp_path / "c")]) == 1

    def test_query_missing_batch_file_is_a_clean_error(
        self, tmp_path, capsys
    ):
        assert main(["query", "--batch", str(tmp_path / "absent.jsonl"),
                     "--cache-dir", str(tmp_path / "c")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_query_report(self, tmp_path):
        batch = self._write_batch(tmp_path, [SIM_Q, SIM_Q])
        report = tmp_path / "report.json"
        assert main(["query", "--batch", str(batch),
                     "--cache-dir", str(tmp_path / "c"),
                     "--threads", "1", "--out", str(tmp_path / "o.jsonl"),
                     "--json", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert validate_report(doc) == []
        assert doc["stats"]["serve"]["queries"] == 2
        assert doc["stats"]["serve"]["deduped"] == 1

    def test_serve_warm_populates_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["serve", "--warm", "xgene",
                     "--cache-dir", str(cache), "--threads", "2"]) == 0
        store = ResultStore(cache)
        assert len(store) == len(
            {query_key(d)[1] for d in warm_queries("xgene")}
        )
        # Warming again is all hits, no recomputation.
        assert main(["serve", "--warm", "xgene",
                     "--cache-dir", str(cache), "--threads", "1"]) == 0
        assert "16 already cached" in capsys.readouterr().out
