"""Tests for the command-line interface."""

import json
import pathlib

import pytest

from repro.cli import build_parser, main


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
