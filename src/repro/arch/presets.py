"""Preset chip descriptions.

:data:`XGENE` mirrors the evaluation platform of the paper (Fig. 1 and
Table II): an eight-core 64-bit ARMv8 chip at 2.4 GHz, one FMA pipeline per
core (4.8 Gflops/core peak), 32 KB 4-way L1D per core, 256 KB 16-way L2 per
dual-core module, and an 8 MB 16-way L3 shared by all four modules. Cache
lines are 64 bytes throughout and all caches are LRU — the associativity and
replacement facts the paper's block-size constraints (15), (17), (18) rely
on.
"""

from __future__ import annotations

from typing import Tuple

from repro.arch.params import (
    CacheParams,
    ChipParams,
    CoreClusterParams,
    CoreParams,
    DramParams,
    ReplacementPolicy,
    TlbParams,
)
from repro.errors import ArchitectureError

KB = 1024
MB = 1024 * 1024

#: The paper's X-Gene-class 64-bit ARMv8 eight-core processor.
XGENE = ChipParams(
    name="armv8-xgene-8core",
    cores=8,
    cores_per_module=2,
    core=CoreParams(
        issue_width=4,
        fma_pipes=1,
        load_ports=1,
        fma_latency=5,
        fma_throughput_cycles=2,
        load_latency=4,
        fp_registers=32,
        fp_register_bytes=16,
        rename_registers=8,
        frequency_hz=2.4e9,
    ),
    l1d=CacheParams(
        name="L1D",
        size_bytes=32 * KB,
        line_bytes=64,
        ways=4,
        latency_cycles=4,
        replacement=ReplacementPolicy.LRU,
        shared_by=1,
    ),
    l2=CacheParams(
        name="L2",
        size_bytes=256 * KB,
        line_bytes=64,
        ways=16,
        latency_cycles=12,
        replacement=ReplacementPolicy.LRU,
        shared_by=2,
    ),
    l3=CacheParams(
        name="L3",
        size_bytes=8 * MB,
        line_bytes=64,
        ways=16,
        latency_cycles=40,
        replacement=ReplacementPolicy.LRU,
        shared_by=8,
    ),
    dram=DramParams(
        latency_cycles=180,
        bandwidth_bytes_per_cycle=16.0,
        bridges=2,
    ),
    tlb=TlbParams(entries=512, page_bytes=4096, miss_penalty_cycles=30),
)


#: A little-core mobile SoC: four 2-issue cores, private 512 KB L2s and
#: no L3 — exercises the two-level-hierarchy paths (B panels stream from
#: DRAM; eq. (18) has no cache to bind nc).
MOBILE_SOC = ChipParams(
    name="armv8-mobile-4core",
    cores=4,
    cores_per_module=1,
    core=CoreParams(
        issue_width=2,
        fma_pipes=1,
        load_ports=1,
        fma_latency=5,
        fma_throughput_cycles=2,
        load_latency=3,
        fp_registers=32,
        fp_register_bytes=16,
        frequency_hz=1.8e9,
    ),
    l1d=CacheParams(
        name="L1D", size_bytes=32 * KB, line_bytes=64, ways=4,
        latency_cycles=3, shared_by=1,
    ),
    l2=CacheParams(
        name="L2", size_bytes=512 * KB, line_bytes=64, ways=16,
        latency_cycles=14, shared_by=1,
    ),
    l3=None,
    dram=DramParams(
        latency_cycles=150, bandwidth_bytes_per_cycle=8.0, bridges=1
    ),
    # No TLB on purpose: the mobile preset exercises the "TLB not
    # modeled" path end to end (timed runs skip TLB effects and
    # RunReports surface ``tlb_modeled: false``). Adding one here would
    # change every committed mobile baseline, so the omission is part of
    # the preset's contract.
)


_BIG_CLUSTER = CoreClusterParams(
    name="big",
    cores=2,
    cores_per_module=2,
    core=CoreParams(
        issue_width=4,
        fma_pipes=1,
        load_ports=1,
        fma_latency=5,
        fma_throughput_cycles=2,
        load_latency=4,
        fp_registers=32,
        fp_register_bytes=16,
        rename_registers=8,
        frequency_hz=2.4e9,
        fma_energy_pj=45.0,
        load_energy_pj=25.0,
        idle_energy_pj=150.0,
    ),
    l1d=CacheParams(
        name="L1D", size_bytes=32 * KB, line_bytes=64, ways=4,
        latency_cycles=4, shared_by=1, miss_energy_pj=50.0,
    ),
    l2=CacheParams(
        name="L2", size_bytes=1 * MB, line_bytes=64, ways=16,
        latency_cycles=14, shared_by=2, miss_energy_pj=300.0,
    ),
)

_LITTLE_CLUSTER = CoreClusterParams(
    name="LITTLE",
    cores=4,
    cores_per_module=2,
    core=CoreParams(
        issue_width=2,
        fma_pipes=1,
        load_ports=1,
        fma_latency=4,
        fma_throughput_cycles=2,
        load_latency=3,
        fp_registers=32,
        fp_register_bytes=16,
        rename_registers=4,
        frequency_hz=1.3e9,
        fma_energy_pj=15.0,
        load_energy_pj=8.0,
        idle_energy_pj=40.0,
    ),
    l1d=CacheParams(
        name="L1D", size_bytes=16 * KB, line_bytes=64, ways=4,
        latency_cycles=3, shared_by=1, miss_energy_pj=30.0,
    ),
    l2=CacheParams(
        name="L2", size_bytes=256 * KB, line_bytes=64, ways=16,
        latency_cycles=10, shared_by=2, miss_energy_pj=250.0,
    ),
)

#: An asymmetric big.LITTLE chip in the style of the Catalán et al.
#: platforms: two out-of-order big cores (X-Gene-class, 2.4 GHz) plus
#: four in-order LITTLE cores (1.3 GHz), each class with its own L1/L2
#: geometry, all six cores sharing a 4 MB L3. The flat fields mirror the
#: big cluster so symmetric consumers see the lead class.
BIG_LITTLE = ChipParams(
    name="armv8-biglittle-2p4e",
    cores=6,
    cores_per_module=2,
    core=_BIG_CLUSTER.core,
    l1d=_BIG_CLUSTER.l1d,
    l2=_BIG_CLUSTER.l2,
    l3=CacheParams(
        name="L3", size_bytes=4 * MB, line_bytes=64, ways=16,
        latency_cycles=38, shared_by=6, miss_energy_pj=2000.0,
    ),
    dram=DramParams(
        latency_cycles=160, bandwidth_bytes_per_cycle=12.0, bridges=1
    ),
    tlb=TlbParams(entries=512, page_bytes=4096, miss_penalty_cycles=30),
    clusters=(_BIG_CLUSTER, _LITTLE_CLUSTER),
)


#: Registry of named machine presets. Every layer that accepts a preset
#: name (CLI choices, serve queries, tune search, verify oracles) derives
#: its list from here, so a new preset appears everywhere at once.
PRESETS = {
    "xgene": XGENE,
    "mobile": MOBILE_SOC,
    "big_little": BIG_LITTLE,
}


def preset_names() -> Tuple[str, ...]:
    """The registered preset names, in registration order."""
    return tuple(PRESETS)


def get_preset(name: str) -> ChipParams:
    """Look up a preset chip by name, raising on unknown names."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ArchitectureError(
            f"unknown machine preset {name!r}; "
            f"known: {', '.join(PRESETS)}"
        ) from None
