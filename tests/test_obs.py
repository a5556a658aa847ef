"""Tests for the observability layer: metrics registry, run reports,
baseline comparison, and the CLI surface (``--json`` / ``repro report``)."""

import dataclasses
import json
import threading

import pytest

from repro.cli import main
from repro.obs import (
    DEFAULT_TOLERANCE,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    RunReport,
    SCHEMA_VERSION,
    compare_reports,
    flatten,
    format_comparison,
    load_report_dict,
    validate_report,
)
from repro.obs.run_report import _SECTIONS


class TestMetricsRegistry:
    def test_counters_gauges(self):
        m = MetricsRegistry()
        m.inc("a")
        m.inc("a", 2)
        m.set_gauge("g", 7)
        m.set_gauge("g", 9)
        assert m.counters == {"a": 3}
        assert m.gauges == {"g": 9}

    def test_histogram(self):
        m = MetricsRegistry()
        for v in (1, 5, 3):
            m.observe("h", v)
        h = m.histograms["h"]
        assert (h.count, h.total, h.min, h.max) == (3, 9.0, 1.0, 5.0)
        assert h.mean == 3.0
        assert m.as_dict()["histograms"]["h"]["mean"] == 3.0

    def test_span_reentry_accumulates(self):
        m = MetricsRegistry()
        with m.span("phase"):
            pass
        with m.span("phase"):
            pass
        sp = m.spans["phase"]
        assert sp.count == 2
        assert sp.seconds >= 0.0
        assert m.span("phase") is sp

    def test_reset(self):
        m = MetricsRegistry()
        m.inc("a")
        m.set_gauge("g", 1)
        m.observe("h", 1)
        with m.span("s"):
            pass
        m.reset()
        assert m.as_dict() == {
            "counters": {}, "gauges": {}, "histograms": {}, "spans": {},
        }

    def test_pooled_serve_and_tune_write_from_the_caller_only(self, tmp_path):
        """Single-writer proof behind the lock-free registry: serve and
        tune compute misses on pool workers, but every registry call
        comes from the thread that owns the registry."""
        from repro.gemm import WorkerPool
        from repro.serve.engine import QueryEngine
        from repro.tune import tune_search

        writers = []

        class Recording(MetricsRegistry):
            def inc(self, name, amount=1):
                writers.append(threading.get_ident())
                super().inc(name, amount)

            def set_gauge(self, name, value):
                writers.append(threading.get_ident())
                super().set_gauge(name, value)

            def observe(self, name, value):
                writers.append(threading.get_ident())
                super().observe(name, value)

            def span(self, name):
                writers.append(threading.get_ident())
                return super().span(name)

        reg = Recording()
        with WorkerPool(2) as pool:
            QueryEngine(tmp_path, pool=pool, metrics=reg).run_batch([
                {"kind": "simulate", "m": 64, "n": 64, "k": 64},
                {"kind": "cachesim", "kernel": "OpenBLAS-4x4",
                 "nc_slice": 6},
                {"kind": "timed", "kc": 8},
            ])
            assert pool.jobs_dispatched == 3
            tune_search(machine="xgene", max_tiles=1, top_k=2, radius=1,
                        bodies=2, store=None, pool=pool, metrics=reg)
            assert pool.jobs_dispatched > 3
        assert reg.counters["serve.computed"] == 3
        assert reg.counters["tune.searches"] == 1
        assert set(writers) == {threading.get_ident()}

    def test_null_registry_is_inert(self):
        n = NullRegistry()
        n.inc("a")
        n.set_gauge("g", 1)
        n.observe("h", 1)
        with n.span("s"):
            pass
        assert n.as_dict() == {
            "counters": {}, "gauges": {}, "histograms": {}, "spans": {},
        }
        assert isinstance(NULL_REGISTRY, NullRegistry)


def _report(**overrides):
    base = dict(
        command="test",
        created="2026-01-01T00:00:00",
        params={"size": 64},
        engines={"timed": {"requested": "auto", "selected": "compiled",
                           "fallback_reason": None}},
        metrics={"counters": {"c": 1}, "gauges": {}, "histograms": {},
                 "spans": {"p": {"count": 1, "seconds": 0.5}}},
        stats={"result": {"loads": 10, "gflops": 4.0}},
    )
    base.update(overrides)
    return RunReport(**base)


class TestRunReport:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "r.json")
        report = _report()
        report.write(path)
        loaded = load_report_dict(path)
        assert validate_report(loaded) == []
        assert RunReport(**loaded) == report
        assert loaded["schema_version"] == SCHEMA_VERSION

    def test_write_refuses_invalid(self, tmp_path):
        bad = _report(stats={"obj": object()})
        with pytest.raises(ValueError, match="non-JSON leaf"):
            bad.write(str(tmp_path / "bad.json"))

    def test_to_dict_section_order(self):
        assert list(_report().to_dict()) == [
            "schema_version", "command", "created", "params", "engines",
            "metrics", "stats",
        ]

    def test_flatten(self):
        doc = {"a": {"b": 1, "c": [2, {"d": 3}]}}
        assert dict(flatten(doc)) == {
            "a.b": 1, "a.c.0": 2, "a.c.1.d": 3,
        }

    def test_diff_ignores_created(self):
        # `repro report --diff` compares through compare_reports.
        b = _report(created="2026-02-02T00:00:00",
                    stats={"result": {"loads": 11, "gflops": 4.0}})
        comp = compare_reports(_report(), b)
        assert [(f.path, f.baseline, f.current) for f in comp.findings] == [
            ("stats.result.loads", 10, 11),
        ]

    def test_validate_rejects_garbage(self):
        assert validate_report([]) != []
        assert any("schema_version" in p
                   for p in validate_report({"command": "x"}))
        assert any("newer than supported" in p for p in validate_report(
            {"command": "x", "schema_version": SCHEMA_VERSION + 1}
        ))
        assert any("command" in p for p in validate_report(
            {"command": "", "schema_version": 1}
        ))
        assert any("unknown sections" in p for p in validate_report(
            {"command": "x", "schema_version": 1, "extra": {}}
        ))
        assert any("must be a number" in p for p in validate_report(
            {"command": "x", "schema_version": 1,
             "metrics": {"counters": {"c": "nan"}}}
        ))
        assert any("count/seconds" in p for p in validate_report(
            {"command": "x", "schema_version": 1,
             "metrics": {"spans": {"s": {"count": 1}}}}
        ))
        assert validate_report(_report().to_dict()) == []


@pytest.fixture
def built_reports(monkeypatch):
    """Every ``(report, document)`` pair ``RunReport.to_dict`` returns."""
    seen = []
    to_dict = RunReport.to_dict

    def recording(self):
        doc = to_dict(self)
        seen.append((self, doc))
        return doc

    monkeypatch.setattr(RunReport, "to_dict", recording)
    return seen


class TestToDict:
    """``to_dict`` builds its document directly; ``dataclasses.asdict``
    is the reference it must match in value and in serialized bytes."""

    @staticmethod
    def _check(report, doc):
        assert list(doc) == list(_SECTIONS)
        ref = dataclasses.asdict(report)
        ref = {k: ref[k] for k in _SECTIONS}
        assert doc == ref
        assert (json.dumps(doc, sort_keys=True)
                == json.dumps(ref, sort_keys=True))

    def test_sections_in_declared_order(self):
        assert tuple(_report().to_dict()) == _SECTIONS

    def test_copy_is_shallow(self):
        inner = {"loads": 10}
        report = _report(stats={"result": inner})
        doc = report.to_dict()
        # The document and each section dict are new ...
        for section in ("params", "engines", "metrics", "stats"):
            assert doc[section] is not getattr(report, section)
        doc["stats"]["extra"] = 1
        assert report.stats == {"result": inner}
        # ... everything below a section's top level is shared.
        assert doc["stats"]["result"] is inner
        assert doc["engines"]["timed"] is report.engines["timed"]

    def test_serve_answer_matches_asdict(self, built_reports):
        from repro.serve import compute_answer, query_key

        compute_answer(*query_key({"kind": "timed", "kc": 8}))
        [(report, doc)] = built_reports
        assert report.command == "query"
        self._check(report, doc)

    def test_tune_answers_and_cli_report_match_asdict(
        self, built_reports, tmp_path, capsys
    ):
        path = tmp_path / "tune.json"
        assert main(["tune", "--smoke", "--cache-dir", str(tmp_path / "c"),
                     "--json", str(path)]) == 0
        by_command = {}
        for report, doc in built_reports:
            by_command.setdefault(report.command, (report, doc))
        assert set(by_command) == {
            "tune-eval-analytic", "tune-eval-timed", "tune",
        }
        for report, doc in by_command.values():
            self._check(report, doc)
        report, _ = by_command["tune"]
        ref = dataclasses.asdict(report)
        assert path.read_text() == json.dumps(
            {k: ref[k] for k in _SECTIONS}, indent=2, sort_keys=True
        ) + "\n"


class TestBaselineComparison:
    def test_identical_reports_ok(self):
        comp = compare_reports(_report(), _report())
        assert comp.ok
        assert comp.findings == []
        assert comp.checked > 0

    def test_integer_drift_is_regression(self):
        cur = _report(stats={"result": {"loads": 11, "gflops": 4.0}})
        comp = compare_reports(_report(), cur)
        assert not comp.ok
        (f,) = comp.regressions
        assert f.path == "stats.result.loads"
        assert "deterministic counter" in f.note

    def test_wall_clock_skipped(self):
        cur = _report(metrics={
            "counters": {"c": 1}, "gauges": {}, "histograms": {},
            "spans": {"p": {"count": 1, "seconds": 99.0}},
        })
        comp = compare_reports(_report(), cur)
        assert comp.ok
        assert comp.skipped >= 2  # span count + seconds

    def test_float_direction_heuristics(self):
        up = _report(stats={"result": {"loads": 10, "gflops": 8.0}})
        comp = compare_reports(_report(), up)
        assert comp.ok
        assert [f.kind for f in comp.findings] == ["improvement"]

        down = _report(stats={"result": {"loads": 10, "gflops": 2.0}})
        comp = compare_reports(_report(), down)
        assert not comp.ok

    def test_float_within_tolerance_ok(self):
        near = _report(stats={"result": {
            "loads": 10, "gflops": 4.0 * (1 + DEFAULT_TOLERANCE / 2),
        }})
        assert compare_reports(_report(), near).ok

    def test_missing_leaf_regresses_added_leaf_informs(self):
        cur = _report(stats={"result": {"gflops": 4.0, "extra": 1}})
        comp = compare_reports(_report(), cur)
        kinds = {f.path: f.kind for f in comp.findings}
        assert kinds["stats.result.loads"] == "regression"
        assert kinds["stats.result.extra"] == "added"
        assert not comp.ok  # the missing leaf fails the gate

    def test_command_mismatch(self):
        comp = compare_reports(_report(), _report(command="other"))
        assert any(f.kind == "mismatch" for f in comp.findings)
        assert not comp.ok

    def test_param_mismatch(self):
        comp = compare_reports(_report(), _report(params={"size": 128}))
        assert [f.kind for f in comp.findings] == ["mismatch"]

    def test_format_comparison_mentions_verdict(self):
        text = format_comparison(compare_reports(_report(), _report()))
        assert "OK: no regressions" in text
        bad = compare_reports(
            _report(), _report(stats={"result": {"loads": 1, "gflops": 4.0}})
        )
        assert "FAIL: 1 regression(s)" in format_comparison(bad)


class TestCliJson:
    def _write(self, tmp_path, name, argv):
        path = tmp_path / name
        assert main(argv + ["--json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert validate_report(doc) == []
        return doc

    def test_blocks_json(self, tmp_path, capsys):
        doc = self._write(tmp_path, "blocks.json", ["blocks"])
        assert doc["command"] == "blocks"
        assert "wrote" in capsys.readouterr().out

    def test_simulate_json_has_metrics(self, tmp_path, capsys):
        doc = self._write(
            tmp_path, "sim.json",
            ["simulate", "--size", "256", "--threads", "1"],
        )
        assert doc["metrics"]["counters"]["gemm_sim.simulations"] == 1
        assert "gemm_sim.simulate" in doc["metrics"]["spans"]

    def test_timed_json_records_engines(self, tmp_path, capsys):
        doc = self._write(
            tmp_path, "timed.json",
            ["timed", "--kc", "32", "--engine", "auto"],
        )
        (entry,) = doc["engines"].values()
        assert entry["requested"] == "auto"
        assert entry["selected"] == "compiled"
        assert entry["fallback_reason"] is None

    def test_report_render_and_validate(self, tmp_path, capsys):
        doc = self._write(tmp_path, "blocks.json", ["blocks"])
        capsys.readouterr()
        assert main(["report", str(tmp_path / "blocks.json")]) == 0
        out = capsys.readouterr().out
        assert "blocks report (schema 1" in out
        assert main(
            ["report", str(tmp_path / "blocks.json"), "--validate"]
        ) == 0
        assert "valid (schema version 1)" in capsys.readouterr().out
        assert doc["schema_version"] == 1

    def test_report_rejects_invalid_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"command": "x", "schema_version": 99}))
        assert main(["report", str(bad), "--validate"]) == 1
        assert "invalid" in capsys.readouterr().err

    def test_report_diff_gate(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        _report().write(str(base))
        same = tmp_path / "same.json"
        _report().write(str(same))
        assert main(["report", "--diff", str(base), str(same)]) == 0

        worse = tmp_path / "worse.json"
        _report(stats={"result": {"loads": 99, "gflops": 4.0}}).write(
            str(worse)
        )
        assert main(["report", "--diff", str(base), str(worse)]) == 1
        assert main(
            ["report", "--diff", str(base), str(worse), "--warn-only"]
        ) == 0

        findings = tmp_path / "findings.json"
        assert main(
            ["report", "--diff", str(base), str(worse), "--warn-only",
             "--json", str(findings)]
        ) == 0
        doc = json.loads(findings.read_text())
        assert doc["findings"][0]["path"] == "stats.result.loads"
        capsys.readouterr()
