"""Tests for the differential verification subsystem itself.

The harness guards every fast/reference engine pair; these tests guard
the harness — registry wiring, the exact comparator, fuzz determinism,
shrinker convergence, the mutation self-test, the CLI surface, and the
replayability of every case file committed under ``tests/cases/``.
"""

import json
import random
from pathlib import Path

import pytest

from repro.cli import main
from repro.verify import (
    BUDGETS,
    VerifyError,
    all_oracles,
    diff_documents,
    fuzz_params,
    get_oracle,
    load_case,
    mutation_self_test,
    numeric_size,
    oracles_for_suite,
    replay_case,
    run_case,
    run_suite,
    save_case,
    shrink_case,
    suites,
)
from repro.verify.fuzzer import _faulting_compare, _mutate_first_int

CASES_DIR = Path(__file__).parent / "cases"


class TestRegistry:
    def test_standing_oracles(self):
        names = [o.name for o in all_oracles()]
        assert names == [
            "gemm.pool", "cachesim.batch", "timed.compiled",
            "timed.oddtile", "cachesim.writethrough", "sweep.incremental",
            "lru.array", "serve.cache", "tune.memo", "tune.analytic",
            "asym.partition", "stencil.blocked", "conv.im2col",
        ]

    def test_suites_cover_every_oracle(self):
        per_suite = [oracles_for_suite(s) for s in suites()]
        flat = [o.name for group in per_suite for o in group]
        assert sorted(flat) == sorted(o.name for o in all_oracles())

    def test_all_suite_selects_everything(self):
        assert oracles_for_suite("all") == all_oracles()

    def test_unknown_suite_and_oracle_raise(self):
        with pytest.raises(VerifyError):
            oracles_for_suite("nope")
        with pytest.raises(VerifyError):
            get_oracle("no.such")


class TestComparator:
    def test_identical_documents_match(self):
        doc = {"a": [1, 2.5, "x"], "b": {"c": True, "d": None}}
        assert diff_documents(doc, dict(doc)) == []

    def test_leaf_difference_reports_path(self):
        out = diff_documents({"a": {"b": [1, 2]}}, {"a": {"b": [1, 3]}})
        assert out == ["a.b[1]: 2 != 3"]

    def test_missing_keys_both_directions(self):
        out = diff_documents({"a": 1}, {"b": 1})
        assert "a: missing in fast" in out
        assert "b: missing in reference" in out

    def test_length_mismatch(self):
        assert diff_documents([1, 2], [1, 2, 3]) == [
            "<root>: length 2 != 3"
        ]

    def test_type_drift_is_a_difference(self):
        # An int counter turning float is engine divergence, not noise.
        assert diff_documents({"n": 1}, {"n": 1.0})
        assert diff_documents({"n": True}, {"n": 1})

    def test_nan_never_matches(self):
        assert diff_documents({"x": float("nan")}, {"x": float("nan")})

    def test_limit_caps_output(self):
        a = {str(i): i for i in range(100)}
        b = {str(i): i + 1 for i in range(100)}
        assert len(diff_documents(a, b, limit=5)) == 5


class TestFuzzer:
    def test_case_stream_is_seed_deterministic(self):
        for oracle in all_oracles():
            first = fuzz_params(oracle, seed=7, budget="smoke")
            again = fuzz_params(oracle, seed=7, budget="smoke")
            assert first == again
            assert first != fuzz_params(oracle, seed=8, budget="smoke")

    def test_cases_are_json_roundtrippable(self):
        for oracle in all_oracles():
            for params in fuzz_params(oracle, seed=3, budget="smoke"):
                assert json.loads(json.dumps(params)) == params

    def test_adding_an_oracle_does_not_shift_streams(self):
        # Streams derive from (seed, oracle name), not registry order.
        oracle = get_oracle("lru.array")
        alone = fuzz_params(oracle, seed=5, budget="smoke")
        _ = fuzz_params(get_oracle("gemm.pool"), seed=5, budget="smoke")
        assert fuzz_params(oracle, seed=5, budget="smoke") == alone

    def test_unknown_budget_raises(self):
        with pytest.raises(VerifyError):
            fuzz_params(all_oracles()[0], seed=0, budget="huge")

    @pytest.mark.parametrize(
        "oracle", all_oracles(), ids=lambda o: o.name
    )
    def test_each_oracle_passes_one_smoke_case(self, oracle):
        rng = random.Random("pytest-smoke:" + oracle.name)
        outcome = run_case(oracle, oracle.generate(rng, "smoke"))
        assert outcome.ok, outcome.mismatches


class TestMutationSelfTest:
    def test_mutate_first_int_hits_exactly_one_leaf(self):
        doc = {"a": {"flag": True, "xs": [0.5, 3, 4]}, "b": 9}
        clone = json.loads(json.dumps(doc))
        assert _mutate_first_int(clone)
        diffs = diff_documents(doc, clone)
        assert len(diffs) == 1
        assert diffs == ["a.xs[1]: 3 != 4"]

    def test_mutate_skips_bools_and_floats(self):
        doc = {"flag": True, "x": 1.5}
        assert not _mutate_first_int(doc)
        assert doc == {"flag": True, "x": 1.5}

    def test_every_oracle_catches_the_injected_fault(self):
        result = mutation_self_test(all_oracles(), seed=0)
        assert result["passed"]
        for name, entry in result["oracles"].items():
            assert entry["fault_caught"], name


class TestShrinker:
    def test_refuses_to_shrink_a_passing_case(self):
        oracle = get_oracle("lru.array")
        rng = random.Random("shrink-pass")
        with pytest.raises(VerifyError):
            shrink_case(oracle, oracle.generate(rng, "smoke"))

    def test_converges_under_injected_fault(self):
        # A fault the shrinker can never remove (the comparator itself
        # is broken) should shrink toward the oracle's minimal case.
        oracle = get_oracle("lru.array")
        rng = random.Random("shrink-fault")
        params = oracle.generate(rng, "default")
        result = shrink_case(oracle, params, compare=_faulting_compare)
        assert result.mismatches
        assert result.final_size < result.initial_size
        assert result.params["length"] == 1
        assert result.params["ways"] == 1
        assert result.evaluations <= 200

    def test_shrink_candidates_differ_and_some_reduce_size(self):
        # Candidates may individually grow numeric_size (e.g. alpha
        # 0.5 -> 1.0); the shrink loop filters those. What each oracle
        # must provide: candidates that differ from the input, at least
        # one of which strictly reduces the size metric.
        for oracle in all_oracles():
            rng = random.Random("shrink-size:" + oracle.name)
            params = oracle.generate(rng, "default")
            candidates = list(oracle.shrink(params))
            assert candidates, oracle.name
            assert all(c != params for c in candidates), oracle.name
            assert any(
                numeric_size(c) < numeric_size(params)
                for c in candidates
            ), oracle.name


class TestCaseFiles:
    def test_save_load_replay_roundtrip(self, tmp_path):
        oracle = get_oracle("lru.array")
        rng = random.Random("roundtrip")
        params = oracle.generate(rng, "smoke")
        path = save_case(tmp_path, oracle.name, params, note="t")
        doc = load_case(path)
        assert doc["oracle"] == oracle.name
        assert doc["params"] == params
        assert replay_case(path).ok

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "x.json"
        bad.write_text("{}")
        with pytest.raises(VerifyError):
            load_case(bad)
        bad.write_text("not json")
        with pytest.raises(VerifyError):
            load_case(bad)

    @pytest.mark.parametrize(
        "case_path",
        sorted(CASES_DIR.glob("*.json")),
        ids=lambda p: p.stem,
    )
    def test_every_committed_case_replays_clean(self, case_path):
        outcome = replay_case(case_path)
        assert outcome.ok, outcome.mismatches


class TestRunSuite:
    def test_smoke_sweep_passes_and_is_versioned(self):
        doc = run_suite(seed=0, budget="smoke", suite="all")
        assert doc["passed"]
        assert doc["verify_schema_version"] == 1
        assert set(doc["oracles"]) == {o.name for o in all_oracles()}
        for entry in doc["oracles"].values():
            assert entry["cases"] == BUDGETS["smoke"]
            assert entry["failures"] == []
        assert doc["selftest"]["passed"]

    def test_single_suite_selection(self):
        doc = run_suite(seed=0, budget="smoke", suite="lru",
                        selftest=False)
        assert list(doc["oracles"]) == ["lru.array"]
        assert "selftest" not in doc


class TestVerifyCli:
    def test_list(self, capsys):
        assert main(["verify", "--list"]) == 0
        out = capsys.readouterr().out
        for oracle in all_oracles():
            assert oracle.name in out

    def test_smoke_sweep_with_report(self, tmp_path, capsys):
        report = tmp_path / "verify.json"
        code = main([
            "verify", "--suite", "all", "--seed", "0",
            "--budget", "smoke", "--json", str(report),
        ])
        assert code == 0
        assert "verify: PASS" in capsys.readouterr().out
        doc = json.loads(report.read_text())
        assert doc["command"] == "verify"
        assert doc["stats"]["verify"]["passed"] is True

    def test_replay_committed_case(self, capsys):
        cases = sorted(CASES_DIR.glob("*.json"))
        assert cases, "expected at least one committed case file"
        assert main(["verify", "--replay", str(cases[0])]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_replay_missing_file_errors(self, capsys):
        assert main(["verify", "--replay", "/no/such/file.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_suite_errors(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 1
        assert "error:" in capsys.readouterr().err
