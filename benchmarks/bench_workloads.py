"""The workload exhibits: stencil blocking and convolution lowering.

Regenerates both headline stories of the workloads package through the
unchanged machine models and gates their claims:

- **stencil** — the cache-blocked Jacobi sweep on a grid whose rows
  exceed the L1 must beat the unblocked traversal on L1 load miss rate
  (the solved tile keeps its halo rows resident) while producing
  bit-identical output;
- **conv** — the directly-blocked gather nest must touch DRAM less than
  the im2col lowering (which pays the patches-matrix round trip) while
  both lowerings, and the blocked-vs-unblocked pair, stay bit-identical.

Runs standalone (``python bench_workloads.py [--smoke]`` — the CI smoke
gate) or under pytest-benchmark with the rest of the harness. The full
run publishes ``benchmarks/results/baseline_workloads.json`` holding
both exhibit documents (deterministic regression surface; no wall-clock
leaves, the docs are modeled counters and cycles only).
"""

from __future__ import annotations

from typing import Any, Dict

from _harness import Bench

from repro.analysis import format_table
from repro.arch.presets import get_preset
from repro.workloads import conv_exhibit, stencil_exhibit

#: The machine preset both exhibits model.
MACHINE = "xgene"

#: Miss-rate ratio the blocked stencil must clear (measured 2.47 both
#: at the committed shape and in smoke mode; the floor leaves headroom).
MIN_MISS_RATE_RATIO = 1.5

#: DRAM ratio the im2col lowering must pay (measured 2.50 full, 1.87
#: smoke).
MIN_DRAM_RATIO = 1.3


def _variant_rows(variants: Dict[str, Any]):
    return [
        [name, v["l1_loads"], v["l1_load_misses"],
         f"{v['l1_load_miss_rate']:.4f}", v["dram_accesses"], v["cycles"],
         f"{v['gflops']:.3f}"]
        for name, v in variants.items()
    ]


class WorkloadsBench(Bench):
    command = "bench_workloads"
    text_name, json_name = "workloads", "baseline_workloads"

    def run(self, smoke: bool) -> Dict[str, Any]:
        chip = get_preset(MACHINE)
        return {
            "stencil": stencil_exhibit(chip, smoke=smoke),
            "conv": conv_exhibit(chip, smoke=smoke),
        }

    def params(self, docs, label: str):
        return {"machine": MACHINE, "smoke": label == "smoke"}

    def stats(self, docs):
        return docs

    def check(self, docs, smoke: bool) -> None:
        s, c = docs["stencil"], docs["conv"]
        assert s["bit_identical"], "stencil blocked != unblocked bits"
        assert c["bit_identical"], "conv im2col != direct bits"
        assert c["bit_identical_unblocked"], "conv blocked != unblocked bits"
        assert s["miss_rate_ratio"] >= MIN_MISS_RATE_RATIO, (
            f"blocked stencil lost its L1 win: miss-rate ratio "
            f"{s['miss_rate_ratio']:.3f} below {MIN_MISS_RATE_RATIO}"
        )
        assert c["dram_ratio"] >= MIN_DRAM_RATIO, (
            f"direct conv lost its DRAM win: im2col/direct ratio "
            f"{c['dram_ratio']:.3f} below {MIN_DRAM_RATIO}"
        )

    def format(self, docs, label: str) -> str:
        s, c = docs["stencil"], docs["conv"]
        head = ["variant", "L1 loads", "L1 misses", "miss rate", "DRAM",
                "cycles", "Gflops"]
        stencil = format_table(
            head, _variant_rows(s["variants"]),
            title=(f"stencil {s['params']['height']}x"
                   f"{s['params']['width']} tile {s['block']['bi']}x"
                   f"{s['block']['bj']} ({label})"),
        )
        conv = format_table(
            head, _variant_rows(c["variants"]),
            title=(f"conv GEMM {c['gemm_shape']['m']}x"
                   f"{c['gemm_shape']['k']}x{c['gemm_shape']['n']} "
                   f"({label})"),
        )
        return (
            f"{stencil}\n  miss-rate ratio {s['miss_rate_ratio']:.3f}x, "
            f"bit-identical {s['bit_identical']}\n"
            f"{conv}\n  DRAM ratio {c['dram_ratio']:.3f}x, bit-identical "
            f"{c['bit_identical']} (vs unblocked "
            f"{c['bit_identical_unblocked']})"
        )


BENCH = WorkloadsBench()


def test_workload_exhibits(benchmark):
    BENCH.test(benchmark)


if __name__ == "__main__":
    raise SystemExit(BENCH.main())
