"""Observability: metrics registry, structured run reports, baselines.

The measurement substrate of the stack (the counter-driven methodology of
the paper's Tables IV-VII, made machine-readable):

- :mod:`repro.obs.metrics` — named counters/gauges/histograms and span
  timers behind a zero-overhead-when-disabled hook;
- :mod:`repro.obs.run_report` — the versioned, JSON-serializable
  :class:`RunReport` document every CLI subcommand can emit
  (``repro ... --json out.json``);
- :mod:`repro.obs.baselines` — the regression comparator behind
  ``repro report --diff``.
"""

from repro.obs.baselines import (
    DEFAULT_TOLERANCE,
    Comparison,
    Finding,
    compare_files,
    compare_reports,
    format_comparison,
    load_report_dict,
)
from repro.obs.metrics import (
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Span,
)
from repro.obs.run_report import (
    SCHEMA_VERSION,
    RunReport,
    atomic_write_json,
    atomic_write_text,
    flatten,
    snapshot_cache_stats,
    snapshot_hierarchy,
    snapshot_pipeline,
    snapshot_pool_stats,
    snapshot_timed_run,
    validate_report,
)

__all__ = [
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Histogram",
    "Span",
    "RunReport",
    "SCHEMA_VERSION",
    "atomic_write_json",
    "atomic_write_text",
    "validate_report",
    "flatten",
    "snapshot_cache_stats",
    "snapshot_hierarchy",
    "snapshot_pipeline",
    "snapshot_pool_stats",
    "snapshot_timed_run",
    "Comparison",
    "Finding",
    "DEFAULT_TOLERANCE",
    "compare_reports",
    "compare_files",
    "format_comparison",
    "load_report_dict",
]
