"""Fig. 8 — the generated 8x6 register-kernel assembly.

Regenerates the unrolled kernel body and checks it has the paper's
instruction mix (7:24 LDR:FMLA, PREFA/PREFB prefetches).
"""

from conftest import bench_exhibit

from repro.isa import parse_program
from repro.kernels import get_variant


def test_fig8_codegen(benchmark, report_dir):
    text = bench_exhibit(benchmark, report_dir, "fig8_codegen")
    kernel = get_variant("OpenBLAS-8x6")
    assert kernel.body.ldr_fmla_ratio == (7, 24)
    assert parse_program(text) == kernel.body.instructions
