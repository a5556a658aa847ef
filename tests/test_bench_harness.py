"""The shared bench harness (``benchmarks/_harness.py``), driven with stub
benches: which files each mode writes, that its reports validate, and
that a failing gate fails the run instead of printing ``ok``."""

import json
import pathlib
import sys

import pytest

from repro.obs import RunReport, validate_report

sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "benchmarks"))

from _harness import (  # noqa: E402
    PairBench,
    PairRow,
    selected,
    time_each,
    two_pass,
)


class _Benchmark:
    """The slice of the pytest-benchmark fixture the harness uses."""

    def pedantic(self, fn, args=(), rounds=1, iterations=1):
        return fn(*args)


def _stub(results: pathlib.Path, identical: bool = True,
          fallback: int = 0, floor: float = 0.0) -> PairBench:
    class Stub(PairBench):
        command = "bench_stub"
        text_name, json_name = "stub_text", "stub_json"
        engines = selected(old="old", new="new")
        pair = ("old", "new")
        floors = (floor, floor)
        title = "stub"
        lead = ("point",)
        rate = "new/s"
        unit = "units"
        claim = "stub claim"

        def run(self, smoke):
            (a, b), secs = time_each(("old", "new"), lambda e: e.upper())
            return [PairRow(
                key="p", cells=("p",), old_s=secs[0] + 1.0,
                new_s=secs[1] + 1.0, identical=identical and a != b,
                doc={"units": 3}, fallback=fallback, count=3,
            )]

    Stub.results = results
    return Stub()


def test_smoke_writes_no_results_file(tmp_path, capsys):
    assert _stub(tmp_path).main(["--smoke"]) == 0
    assert list(tmp_path.iterdir()) == []
    out = capsys.readouterr().out
    assert "stub (smoke)" in out and "aggregate: 3 units" in out
    assert out.rstrip().endswith("ok")


def test_smoke_json_report_validates(tmp_path):
    path = tmp_path / "smoke.json"
    assert _stub(tmp_path / "results").main(
        ["--smoke", "--json", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert validate_report(doc) == []
    assert doc["command"] == "bench_stub"
    assert doc["params"] == {"label": "smoke"}
    row = doc["stats"]["rows"]["p"]
    assert set(row) == {"units", "identical", "old_seconds", "new_seconds"}
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("entry", ["main", "test"])
def test_full_mode_and_pytest_entry_write_the_same_files(tmp_path, entry):
    bench = _stub(tmp_path)
    if entry == "main":
        assert bench.main([]) == 0
    else:
        bench.test(_Benchmark())
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "stub_json.json", "stub_text.txt",
    ]
    doc = json.loads((tmp_path / "stub_json.json").read_text())
    assert validate_report(doc) == []
    assert doc["params"] == {"label": "full"}
    assert "stub (full)" in (tmp_path / "stub_text.txt").read_text()


@pytest.mark.parametrize("kwargs", [
    {"identical": False}, {"fallback": 1}, {"floor": 2.0},
])
def test_failing_gate_fails_main(tmp_path, capsys, kwargs):
    with pytest.raises(AssertionError):
        _stub(tmp_path, **kwargs).main(["--smoke"])
    assert not capsys.readouterr().out.rstrip().endswith("ok")


def test_two_pass_warm_pass_reads_the_cold_pass_store():
    answer = RunReport(command="stub").to_dict()

    def run_pass(store, pool):
        assert pool is None
        hit = store.get("k") is not None
        if not hit:
            store.put("k", {}, answer)
        return hit

    two = two_pass("evals", 1, run_pass, lambda hit: (
        {"evals": 1, "hits": int(hit), "computed": int(not hit)}, "same",
    ))
    assert two.counts == {
        "cold": {"evals": 1, "hits": 0, "computed": 1},
        "warm": {"evals": 1, "hits": 1, "computed": 0},
    }
    assert two.identical and two.result is True
    assert set(two.stats()["timing"]) == {
        "cold_seconds", "warm_seconds", "speedup",
        "cold_evals_per_s", "warm_evals_per_s",
    }
    two.check(0.0)
    with pytest.raises(AssertionError):
        two.check(float("inf"))
