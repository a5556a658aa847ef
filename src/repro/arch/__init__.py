"""Architecture descriptions for the simulated ARMv8 machine."""

from repro.arch.params import (
    CacheParams,
    ChipParams,
    CoreClusterParams,
    CoreParams,
    DramParams,
    ReplacementPolicy,
    TlbParams,
    WritePolicy,
)
from repro.arch.presets import (
    BIG_LITTLE,
    KB,
    MB,
    MOBILE_SOC,
    PRESETS,
    XGENE,
    get_preset,
    preset_names,
)

__all__ = [
    "CacheParams",
    "ChipParams",
    "CoreClusterParams",
    "CoreParams",
    "DramParams",
    "ReplacementPolicy",
    "TlbParams",
    "WritePolicy",
    "XGENE",
    "MOBILE_SOC",
    "BIG_LITTLE",
    "PRESETS",
    "get_preset",
    "preset_names",
    "KB",
    "MB",
]
