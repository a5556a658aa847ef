"""Performance simulation: microbench, residency analysis, GEMM cost model."""

from repro.sim.cache_fit import (
    Residency,
    StreamCosts,
    analyze_residency,
    fill_latency,
    stream_costs,
)
from repro.sim.gebp_cachesim import (
    GebpCacheResult,
    gebp_traces,
    simulate_gebp_cache,
)
from repro.sim.gemm_sim import GemmPerformance, GemmSimulator
from repro.sim.microbench import (
    TABLE_IV_PAPER,
    TABLE_IV_RATIOS,
    MicrobenchRow,
    build_mix,
    run_microbench,
)
from repro.sim.params import DEFAULT_SIM_PARAMS, SimParams
from repro.sim.synthetic_trace import micro_tiles, synthesize_trace
from repro.sim.timed_executor import (
    TIMED_ENGINES,
    GebpTimedRun,
    TimedRun,
    run_timed_gebp,
    run_timed_gebp_dual,
    run_timed_micro_tile,
)

__all__ = [
    "GemmSimulator",
    "GemmPerformance",
    "SimParams",
    "DEFAULT_SIM_PARAMS",
    "Residency",
    "StreamCosts",
    "analyze_residency",
    "stream_costs",
    "fill_latency",
    "simulate_gebp_cache",
    "gebp_traces",
    "GebpCacheResult",
    "run_microbench",
    "build_mix",
    "MicrobenchRow",
    "TABLE_IV_RATIOS",
    "TABLE_IV_PAPER",
    "synthesize_trace",
    "TimedRun",
    "GebpTimedRun",
    "TIMED_ENGINES",
    "run_timed_gebp",
    "run_timed_gebp_dual",
    "run_timed_micro_tile",
    "micro_tiles",
]
