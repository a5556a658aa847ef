"""Tests for the command-line interface."""

import argparse
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.obs import validate_report


class TestCli:
    def test_blocks_default(self, capsys):
        assert main(["blocks"]) == 0
        out = capsys.readouterr().out
        assert "8x6" in out
        assert "512x56x1920" in out

    def test_blocks_eight_threads(self, capsys):
        assert main(["blocks", "--threads", "8"]) == 0
        assert "512x24x1792" in capsys.readouterr().out

    def test_blocks_explicit_tile(self, capsys):
        assert main(["blocks", "--mr", "8", "--nr", "4"]) == 0
        assert "768x32x1280" in capsys.readouterr().out

    def test_kernel_emits_assembly(self, capsys):
        assert main(["kernel", "--variant", "OpenBLAS-8x6"]) == 0
        out = capsys.readouterr().out
        assert "fmla v" in out
        assert "ldr q" in out
        assert "7:24" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "--size", "512", "--threads", "2"]) == 0
        out = capsys.readouterr().out
        assert "Gflops" in out
        assert "blocking:" in out

    def test_simulate_rectangular(self, capsys):
        assert main(["simulate", "-m", "512", "-n", "256", "-k", "128"]) == 0
        assert "512x256x128" in capsys.readouterr().out

    def test_microbench(self, capsys):
        assert main(["microbench"]) == 0
        out = capsys.readouterr().out
        assert "7:24" in out
        assert "91.5" in out

    def test_cachesim_checks_engines_agree(self, capsys):
        assert main(["cachesim", "--nc-slice", "6"]) == 0
        out = capsys.readouterr().out
        assert "bit-identical: True" in out
        assert "L1:" in out

    def test_timed_checks_engines_agree(self, capsys):
        assert main(["timed", "--kc", "64"]) == 0
        assert "bit-identical: True" in capsys.readouterr().out

    def test_timed_single_engine(self, capsys):
        assert main(["timed", "--engine", "compiled", "--kc", "64"]) == 0
        out = capsys.readouterr().out
        assert "kc=64" in out
        assert "engine: compiled (requested compiled)" in out

    @pytest.mark.parametrize("argv", [
        ["cachesim", "--nc-slice", "0"],
        ["cachesim", "--seed", "-1"],
        ["timed", "--kc", "0"],
        ["timed", "--kc", "-4"],
        ["timed", "--kc", "4096"],
    ])
    def test_bad_query_flag_is_clean_error(self, argv, capsys):
        assert main(argv) == 1
        # A kc past the micro-tile layout passes the query schema and is
        # rejected by the timed engine, naming the largest valid kc.
        expected = ("error: kc=4096" if argv[-1] == "4096"
                    else "error: query field")
        assert expected in capsys.readouterr().err

    def test_sweep(self, capsys):
        assert main(["sweep", "--stop", "768", "--step", "512"]) == 0
        out = capsys.readouterr().out
        assert "OpenBLAS-8x6" in out
        assert "256" in out

    def test_pool(self, capsys):
        assert main(["pool", "--threads", "2", "--size", "48",
                     "--reps", "2"]) == 0
        out = capsys.readouterr().out
        assert "persistent pool" in out
        assert "per-thread counters" in out
        assert "speedup" in out

    def test_pool_bad_thread_count_is_clean_error(self, capsys):
        assert main(["pool", "--threads", "99", "--size", "32",
                     "--reps", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_thread_count_is_clean_error(self, capsys):
        assert main(["simulate", "--threads", "99"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_variant_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["kernel", "--variant", "bogus"])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


def _json_report(tmp_path, argv):
    path = tmp_path / "run.json"
    assert main(argv + ["--json", str(path)]) == 0
    return path


# (argv, query, report stats block, answer stats block); None = all.
_SERVED_CASES = {
    "simulate": (["simulate", "--size", "256"],
                 {"kind": "simulate", "m": 256, "n": 256, "k": 256},
                 None, None),
    "cachesim": (["cachesim", "--nc-slice", "6"],
                 {"kind": "cachesim", "nc_slice": 6}, "result", "result"),
    "timed": (["timed", "--kc", "64", "--engine", "auto"],
              {"kind": "timed", "kc": 64}, "run", "run"),
    "stencil": (["stencil", "--height", "12", "--width", "64",
                 "--iterations", "1"],
                {"kind": "stencil", "height": 12, "width": 64,
                 "iterations": 1}, None, "exhibit"),
    "conv": (["conv", "--cin", "1", "--height", "10", "--width", "10",
              "--filters", "4"],
             {"kind": "conv", "cin": 1, "height": 10, "width": 10,
              "filters": 4}, None, "exhibit"),
}


@pytest.mark.parametrize("name", sorted(_SERVED_CASES))
def test_report_stats_are_the_served_answer(name, tmp_path, capsys):
    """A command's ``--json`` stats cannot drift from the serve answer."""
    from repro.serve import compute_answer, query_key

    argv, query, report_block, answer_block = _SERVED_CASES[name]
    stats = json.loads(_json_report(tmp_path, argv).read_text())["stats"]
    canonical, key = query_key(query)
    answer = compute_answer(canonical, key)["stats"]
    assert (stats[report_block] if report_block else stats) == (
        answer[answer_block] if answer_block else answer
    )


@pytest.mark.parametrize("argv", [
    ["simulate", "--size", "512", "--threads", "2"],
    ["cachesim"],
    ["timed", "--kc", "64"],
])
def test_report_holds_against_committed_baseline(argv, tmp_path, capsys):
    from repro.obs import compare_files

    committed = pathlib.Path(__file__).parents[1] / "benchmarks/results"
    current = _json_report(tmp_path, argv)
    comp = compare_files(
        str(committed / f"baseline_{argv[0]}.json"), str(current)
    )
    bad = [f for f in comp.findings if f.kind in ("regression", "mismatch")]
    assert bad == []


class TestTuneCommand:
    def test_smoke_rediscovers_8x6_and_warm_run_hits(
        self, tmp_path, capsys
    ):
        import json

        cache = str(tmp_path / "cache")
        report = tmp_path / "tune.json"
        assert main([
            "tune", "--smoke", "--cache-dir", cache,
            "--json", str(report),
        ]) == 0
        out = capsys.readouterr().out
        assert "winner 8x6" in out
        assert "512x56x1920" in out
        doc = json.loads(report.read_text())
        winner = doc["stats"]["winner"]["candidate"]
        assert (winner["mr"], winner["nr"], winner["kc"]) == (8, 6, 512)
        assert doc["stats"]["prune_ratio"] >= 5.0
        # Second run over the same cache computes nothing.
        assert main(["tune", "--smoke", "--cache-dir", cache]) == 0
        assert ", 0 computed" in capsys.readouterr().out


class TestExperimentsCommand:
    def test_writes_all_exhibits(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["experiments", "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        expected = {
            "table1_rotation.txt", "fig7_schedule.txt", "fig8_codegen.txt",
            "table3_blocksizes.txt", "table4_microbench.txt",
            "table5_efficiency.txt", "fig11_serial_sweep.txt",
            "fig12_parallel_sweep.txt", "fig13_rotation_ablation.txt",
            "fig14_scaling.txt", "table6_blocksize_sensitivity.txt",
            "fig15_l1_loads.txt", "table7_miss_rates.txt",
        }
        assert expected <= names
        # The Table III exhibit carries the exact paper values.
        assert "512x56x1920" in (out / "table3_blocksizes.txt").read_text()
        # At its default sizes the command writes the committed exhibits.
        committed = pathlib.Path(__file__).parents[1] / "benchmarks/results"
        for path in sorted(out.iterdir()):
            assert path.read_bytes() == (committed / path.name).read_bytes(), (
                path.name
            )


REPO = pathlib.Path(__file__).parents[1]
_CASE = REPO / "tests/cases/lru-array-9f8b35676ba4.json"

# Every report-writing subcommand at cheap flags, with its exit code.
# Relative paths land in the test's working directory.
_REPORT_CASES = {
    "blocks": ([], 0),
    "kernel": (["--kc", "64"], 0),
    "simulate": (["--size", "256"], 0),
    "microbench": ([], 0),
    "experiments": (["--out", "res", "--start", "256", "--stop", "256"], 0),
    "pool": (["--threads", "2", "--size", "32", "--reps", "1"], 0),
    "cachesim": (["--nc-slice", "6"], 0),
    "timed": (["--kc", "32"], 0),
    "sweep": (["--kernels", "OpenBLAS-4x4", "--start", "256",
               "--stop", "256"], 0),
    "verify": (["--replay", str(_CASE)], 0),
    # A cold cache misses, so --expect-all-hits fails; the report is
    # still written.
    "query": (["--batch", "batch.jsonl", "--cache-dir", "store",
               "--threads", "1", "--out", "answers.jsonl",
               "--expect-all-hits"], 1),
    "serve": (["--warm", "xgene", "--cache-dir", "store",
               "--threads", "1"], 0),
    "tune": (["--smoke", "--cache-dir", ""], 0),
    "asym": (["--smoke"], 0),
    "stencil": (["--height", "12", "--width", "64", "--iterations", "1"], 0),
    "conv": (["--cin", "1", "--height", "10", "--width", "10",
              "--filters", "4"], 0),
}


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "batch.jsonl").write_text(
        json.dumps({"kind": "simulate", "m": 64, "n": 64, "k": 64}) + "\n"
    )
    return tmp_path


def test_report_cases_cover_every_subcommand():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert sorted([*_REPORT_CASES, "report"]) == sorted(sub.choices)


@pytest.mark.parametrize("command", sorted(_REPORT_CASES))
def test_every_command_writes_one_report(command, in_tmp, capsys):
    """``main`` alone writes ``--json``: a valid RunReport named after
    the subcommand, announced on stdout's last line."""
    flags, code = _REPORT_CASES[command]
    path = in_tmp / "run.json"
    assert main([command, *flags, "--json", str(path)]) == code
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {path}"
    doc = json.loads(path.read_text())
    assert validate_report(doc) == []
    assert doc["command"] == command


def test_commands_without_a_run_report(in_tmp, capsys):
    """``verify --list`` and ``report FILE`` write no RunReport;
    ``report --diff A B --json`` writes the diff document instead."""
    path = in_tmp / "out.json"
    assert main(["verify", "--list", "--json", str(path)]) == 0
    assert main(["blocks", "--json", "blocks.json"]) == 0
    assert main(["report", "blocks.json", "--json", str(path)]) == 0
    assert not path.exists()
    capsys.readouterr()
    assert main(["report", "--diff", "blocks.json", "blocks.json",
                 "--json", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {path}"
    doc = json.loads(path.read_text())
    assert sorted(doc) == ["baseline", "checked", "current", "findings",
                           "skipped", "tolerance"]
    assert doc["findings"] == []


@pytest.mark.parametrize("argv", [
    ["query", "--batch", "batch.jsonl", "--threads", "1"],
    ["serve", "--warm", "xgene", "--threads", "1"],
    ["tune", "--smoke"],
], ids=["query", "serve", "tune"])
def test_cache_dir_that_is_a_file_is_a_clean_error(argv, in_tmp, capsys):
    """A file at or above ``--cache-dir`` is rejected before any answer
    is computed, not by a traceback from the first store write."""
    (in_tmp / "notadir").write_text("")
    for cache_dir in ("notadir", "notadir/sub"):
        assert main(argv + ["--cache-dir", cache_dir]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --cache-dir {cache_dir}: ")
        assert captured.err.rstrip().endswith("is not a directory")


@pytest.mark.parametrize("argv", [
    ["query", "--batch", "batch.jsonl", "--threads", "1"],
    ["serve", "--warm", "xgene", "--threads", "1"],
], ids=["query", "serve"])
def test_empty_cache_dir_is_a_clean_error(argv, in_tmp, capsys):
    """``--cache-dir ''`` would root the result store in the working
    directory; it is rejected before any answer is computed."""
    before = sorted(in_tmp.iterdir())
    assert main(argv + ["--cache-dir", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --cache-dir ")
    assert sorted(in_tmp.iterdir()) == before


_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("argv", [["kernel"], ["report", "run.json"]])
def test_closed_stdout_exits_without_traceback(argv, in_tmp, capsys):
    """A reader that closes stdout early (``repro report run.json |
    head -3``) ends the command with exit code 1 and no traceback."""
    assert main(["blocks", "--json", "run.json"]) == 0
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(_SRC)},
    )
    proc.stdout.close()  # before the command prints anything
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err
