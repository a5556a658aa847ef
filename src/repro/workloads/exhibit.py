"""Workload exhibits: the miss-rate/Gflops story, one JSON doc per family.

Each exhibit runs a workload family's variant pair through both machine
models — the cache walk (:func:`~repro.workloads.base.simulate_workload_cache`)
and the timed scoreboard (:func:`~repro.workloads.base.timed_workload`),
which prices that same replay —
plus the *numeric* bit-equality check that makes the comparison honest:
the variants must produce byte-identical outputs before their memory
behaviour is worth comparing.

- :func:`stencil_exhibit` — cache-blocked vs. unblocked Jacobi sweeps on
  a wide grid (a row exceeds the L1, so the unblocked traversal loses
  its top-arm reuse);
- :func:`conv_exhibit` — direct vs. im2col convolution at the solved
  blocking (im2col pays the patches-matrix round trip through DRAM).

The docs are deterministic and JSON-clean: the serve layer caches them
by content hash, the CLI prints them, and ``baseline_workloads.json``
commits them.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.arch.params import ChipParams
from repro.workloads.base import (
    Workload,
    WorkloadCacheResult,
    WorkloadTimedResult,
    simulate_workload_cache,
    timed_workload,
)
from repro.workloads.conv import (
    ConvSpec,
    ConvWorkload,
    solve_conv_blocking,
    unblocked_conv_blocking,
)
from repro.workloads.stencil import (
    StencilSpec,
    StencilWorkload,
    solve_stencil_blocking,
)

__all__ = ["conv_exhibit", "stencil_exhibit"]


def _variant_doc(
    cache: WorkloadCacheResult, timed: WorkloadTimedResult
) -> Dict[str, Any]:
    return {
        **cache.counters(),
        "cycles": timed.cycles,
        "gflops": timed.gflops,
        "efficiency": timed.efficiency,
    }


def _measure(workload: Workload, chip: ChipParams) -> Dict[str, Any]:
    cache = simulate_workload_cache(workload, chip)
    return _variant_doc(cache, timed_workload(workload, chip, cache))


def stencil_exhibit(
    chip: ChipParams,
    height: Optional[int] = None,
    width: Optional[int] = None,
    radius: int = 1,
    iterations: int = 2,
    seed: int = 0,
    smoke: bool = False,
) -> Dict[str, Any]:
    """Blocked vs. unblocked stencil on a grid whose rows exceed the L1.

    The default 64x2048 float64 grid makes one row 16 KB: the unblocked
    row-major sweep has evicted row ``i-1`` by the time the up-arm needs
    it, while the solved tile keeps all its halo rows resident. Smoke
    mode narrows the grid (32 rows) but keeps the width — the effect is
    a property of the row length.
    """
    if height is None:
        height = 32 if smoke else 64
    if width is None:
        width = 2048
    spec = StencilSpec(radius=radius, iterations=iterations)
    block = solve_stencil_blocking(chip, radius)
    blocked = StencilWorkload(height, width, spec, block=block, seed=seed)
    unblocked = StencilWorkload(height, width, spec, block=None, seed=seed)
    bit_identical = (
        blocked.run().output.tobytes() == unblocked.run().output.tobytes()
    )
    variants = {
        "unblocked": _measure(unblocked, chip),
        "blocked": _measure(blocked, chip),
    }
    b, u = variants["blocked"], variants["unblocked"]
    return {
        "workload": "stencil",
        "chip": chip.name,
        "params": {
            "height": height,
            "width": width,
            "radius": radius,
            "iterations": iterations,
            "seed": seed,
            "smoke": smoke,
        },
        "block": {"bi": block[0], "bj": block[1]},
        "flops": blocked.flops,
        "bit_identical": bool(bit_identical),
        "variants": variants,
        "miss_rate_ratio": (
            u["l1_load_miss_rate"] / b["l1_load_miss_rate"]
            if b["l1_load_miss_rate"] > 0
            else float(u["l1_load_miss_rate"] == 0)
        ),
        "speedup": b["gflops"] / u["gflops"] if u["gflops"] > 0 else 0.0,
    }


def conv_exhibit(
    chip: ChipParams,
    cin: Optional[int] = None,
    height: Optional[int] = None,
    width: Optional[int] = None,
    kh: int = 3,
    kw: int = 3,
    filters: Optional[int] = None,
    seed: int = 0,
    smoke: bool = False,
) -> Dict[str, Any]:
    """Direct vs. im2col convolution at the solved blocking.

    Both lowerings run the identical GEBP stream; im2col additionally
    materializes the ``(P, K)`` patches matrix and re-reads it while
    packing, so its DRAM traffic carries the scratch matrix twice. The
    doc also proves the two bit-equality contracts: lowering-vs-lowering
    and solved-blocking-vs-unblocked.
    """
    if cin is None:
        cin = 1 if smoke else 3
    if height is None:
        height = 18 if smoke else 34
    if width is None:
        width = 18 if smoke else 34
    if filters is None:
        filters = 8 if smoke else 16
    spec = ConvSpec(cin=cin, height=height, width=width, kh=kh, kw=kw,
                    filters=filters)
    blocking = solve_conv_blocking(chip, spec)
    im2col_wl = ConvWorkload(spec, "im2col", blocking, seed=seed)
    direct_wl = ConvWorkload(spec, "direct", blocking, seed=seed)
    out_im2col = im2col_wl.run().output
    out_direct = direct_wl.run().output
    bit_identical = out_im2col.tobytes() == out_direct.tobytes()
    unblocked = ConvWorkload(
        spec, "im2col", unblocked_conv_blocking(spec, blocking), seed=seed
    )
    bit_identical_unblocked = (
        out_im2col.tobytes() == unblocked.run().output.tobytes()
    )
    variants = {
        "im2col": _measure(im2col_wl, chip),
        "direct": _measure(direct_wl, chip),
    }
    d, i = variants["direct"], variants["im2col"]
    return {
        "workload": "conv",
        "chip": chip.name,
        "params": {
            "cin": cin,
            "height": height,
            "width": width,
            "kh": kh,
            "kw": kw,
            "filters": filters,
            "seed": seed,
            "smoke": smoke,
        },
        "blocking": {
            "mr": blocking.mr,
            "nr": blocking.nr,
            "kc": blocking.kc,
            "mc": blocking.mc,
            "nc": blocking.nc,
        },
        "gemm_shape": {"m": spec.p, "k": spec.k, "n": spec.filters},
        "flops": spec.flops,
        "bit_identical": bool(bit_identical),
        "bit_identical_unblocked": bool(bit_identical_unblocked),
        "variants": variants,
        "dram_ratio": (
            i["dram_accesses"] / d["dram_accesses"]
            if d["dram_accesses"] > 0
            else 0.0
        ),
        "speedup": d["gflops"] / i["gflops"] if i["gflops"] > 0 else 0.0,
    }
