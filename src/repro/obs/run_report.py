"""Structured, versioned run reports.

A :class:`RunReport` is the machine-readable counterpart of the CLI's
plain-text output: one JSON document per run that snapshots the engine
stat objects (:class:`~repro.gemm.pool.PoolStats`,
:class:`~repro.memory.cache.CacheStats` / TLB counters,
:class:`~repro.pipeline.scoreboard.PipelineResult` stall breakdowns),
the engine selections (requested and selected engine per slot), and
the run's :class:`~repro.obs.metrics.MetricsRegistry` dump.

The document shape is versioned (:data:`SCHEMA_VERSION`) and validated
structurally by :func:`validate_report` — no external schema library is
required. Committed reports under ``benchmarks/results/*.json`` are the
baselines the :mod:`repro.obs.baselines` comparator regresses against.

The snapshot helpers are duck-typed on purpose: they read public counter
attributes only, so this module imports nothing from the engine layers
and can be loaded (e.g. by CI validators) without pulling numpy.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "RunReport",
    "SCHEMA_VERSION",
    "atomic_write_json",
    "atomic_write_text",
    "flatten",
    "snapshot_cache_stats",
    "snapshot_hierarchy",
    "snapshot_pipeline",
    "snapshot_pool_stats",
    "snapshot_timed_run",
    "validate_report",
]

#: Version of the report document shape. Bump when a section is renamed,
#: removed, or changes meaning; additions of optional keys are compatible.
SCHEMA_VERSION = 1

#: Sections every report carries, in serialization order.
_SECTIONS = ("schema_version", "command", "created", "params", "engines",
             "metrics", "stats")

_METRIC_SECTIONS = ("counters", "gauges", "histograms", "spans")


def atomic_write_text(path: Any, text: str) -> None:
    """Write ``text`` to ``path`` crash-safely.

    The bytes land in a temporary file in the same directory and are
    moved over ``path`` with :func:`os.replace`, so a reader (or a crash
    mid-write) can only ever observe the old complete document or the
    new complete document — never a truncated one. Every committed JSON
    artifact of the repo (baselines, serve-cache entries, shrunk verify
    cases) goes through here.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(
    path: Any, doc: Any, indent: Optional[int] = 2
) -> None:
    """Serialize ``doc`` deterministically and write it atomically.

    ``indent=None`` writes one line, which ``json.dumps`` serializes with
    its C encoder (any indentation forces the pure-Python one).
    """
    atomic_write_text(
        path, json.dumps(doc, indent=indent, sort_keys=True) + "\n"
    )


@dataclass
class RunReport:
    """One run's structured result document.

    Attributes:
        command: The entry point that produced the report (CLI subcommand
            or benchmark name).
        created: ISO-8601 creation timestamp (informational; never
            compared).
        params: The run's input parameters (CLI args, sweep points).
        engines: Per-engine-slot selection record, e.g.
            ``{"timed": {"requested": "auto", "selected": "compiled",
            "fallback_reason": None}}`` (``fallback_reason`` is kept,
            always null, for schema compatibility).
        metrics: A :meth:`MetricsRegistry.as_dict` dump.
        stats: Snapshots of the engine stat objects (see the
            ``snapshot_*`` helpers).
    """

    command: str
    schema_version: int = SCHEMA_VERSION
    created: Optional[str] = None
    params: Dict[str, Any] = field(default_factory=dict)
    engines: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    stats: Dict[str, Any] = field(default_factory=dict)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The report as a plain document, sections in ``_SECTIONS`` order.

        Built directly rather than through :func:`dataclasses.asdict`,
        whose recursion and per-leaf deep copy every serve and tune miss
        paid for. The copy is shallow: the document and each section
        dict are new, so a caller may add or drop a section's keys, but
        everything below a section's top level is this report's own
        objects, shared and not copied.
        """
        return {
            "schema_version": self.schema_version,
            "command": self.command,
            "created": self.created,
            "params": dict(self.params),
            "engines": dict(self.engines),
            "metrics": dict(self.metrics),
            "stats": dict(self.stats),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write(self, path: str) -> None:
        """Write the report to ``path``, validating it first."""
        problems = validate_report(self.to_dict())
        if problems:
            raise ValueError(
                "refusing to write schema-invalid report: "
                + "; ".join(problems)
            )
        atomic_write_text(path, self.to_json() + "\n")


def flatten(
    doc: Any, prefix: str = ""
) -> Iterator[Tuple[str, Any]]:
    """Yield ``(dotted.path, leaf)`` pairs of a nested dict/list document."""
    if isinstance(doc, dict):
        for k in doc:
            yield from flatten(doc[k], f"{prefix}{k}.")
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from flatten(v, f"{prefix}{i}.")
    else:
        yield prefix[:-1], doc


# -- structural validation ---------------------------------------------------


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_leaves(doc: Any, path: str, problems: List[str]) -> None:
    if isinstance(doc, dict):
        for k, v in doc.items():
            if not isinstance(k, str):
                problems.append(f"{path}: non-string key {k!r}")
            else:
                _check_leaves(v, f"{path}.{k}", problems)
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            _check_leaves(v, f"{path}[{i}]", problems)
    elif not (doc is None or isinstance(doc, (str, bool, int, float))):
        problems.append(f"{path}: non-JSON leaf {type(doc).__name__}")


def validate_report(doc: Any) -> List[str]:
    """Structural problems of a report document (empty list = valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return [f"report must be an object, got {type(doc).__name__}"]
    version = doc.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool):
        problems.append("schema_version must be an integer")
    elif version > SCHEMA_VERSION:
        problems.append(
            f"schema_version {version} is newer than supported "
            f"{SCHEMA_VERSION}"
        )
    elif version < 1:
        problems.append(f"schema_version {version} out of range")
    command = doc.get("command")
    if not isinstance(command, str) or not command:
        problems.append("command must be a non-empty string")
    created = doc.get("created")
    if created is not None and not isinstance(created, str):
        problems.append("created must be a string or null")
    for section in ("params", "engines", "metrics", "stats"):
        if not isinstance(doc.get(section, {}), dict):
            problems.append(f"{section} must be an object")
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        problems.append(f"unknown sections: {sorted(unknown)}")

    engines = doc.get("engines", {})
    if isinstance(engines, dict):
        for slot, entry in engines.items():
            if not isinstance(entry, dict):
                problems.append(f"engines.{slot} must be an object")
                continue
            sel = entry.get("selected")
            if sel is not None and not isinstance(sel, str):
                problems.append(f"engines.{slot}.selected must be a string")
            reason = entry.get("fallback_reason")
            if reason is not None and not isinstance(reason, str):
                problems.append(
                    f"engines.{slot}.fallback_reason must be a string "
                    "or null"
                )

    metrics = doc.get("metrics", {})
    if isinstance(metrics, dict):
        unknown = set(metrics) - set(_METRIC_SECTIONS)
        if unknown:
            problems.append(f"unknown metrics sections: {sorted(unknown)}")
        for kind in ("counters", "gauges"):
            for name, value in metrics.get(kind, {}).items():
                if not _is_number(value):
                    problems.append(
                        f"metrics.{kind}.{name} must be a number"
                    )
        for name, hist in metrics.get("histograms", {}).items():
            if not isinstance(hist, dict) or not _is_number(
                hist.get("count", None)
            ):
                problems.append(
                    f"metrics.histograms.{name} must be an object with a "
                    "numeric count"
                )
        for name, span in metrics.get("spans", {}).items():
            if (
                not isinstance(span, dict)
                or not _is_number(span.get("count", None))
                or not _is_number(span.get("seconds", None))
            ):
                problems.append(
                    f"metrics.spans.{name} must have numeric count/seconds"
                )

    for section in ("params", "stats"):
        if isinstance(doc.get(section, {}), dict):
            _check_leaves(doc.get(section, {}), section, problems)
    return problems


# -- snapshot helpers (duck-typed on the engine stat objects) ----------------


def snapshot_cache_stats(stats: Any) -> Dict[str, Any]:
    """Serialize a :class:`~repro.memory.cache.CacheStats` (or merge)."""
    return {
        "loads": stats.loads,
        "load_misses": stats.load_misses,
        "stores": stats.stores,
        "store_misses": stats.store_misses,
        "prefetches": stats.prefetches,
        "prefetch_misses": stats.prefetch_misses,
        "evictions": stats.evictions,
        "writebacks": stats.writebacks,
        "load_miss_rate": stats.load_miss_rate,
    }


def snapshot_hierarchy(h: Any) -> Dict[str, Any]:
    """Serialize a :class:`~repro.memory.hierarchy.MemoryHierarchy`'s
    counters: merged per-level cache stats, DRAM traffic, TLB totals,
    and the batched-engine coverage split."""
    doc: Dict[str, Any] = {
        "l1": snapshot_cache_stats(h.l1_stats()),
        "l2": snapshot_cache_stats(h.l2_stats()),
        "dram_accesses": h.dram_accesses,
        "batched_accesses": sum(
            c.batched_accesses for c in h.all_caches().values()
        ),
        "batched_fallback_accesses": h.batched_fallback_accesses(),
    }
    if h.l3 is not None:
        doc["l3"] = snapshot_cache_stats(h.l3_stats())
    tlb_stats = [t.stats for t in h.tlbs if t is not None]
    # Surfaced explicitly so a report reader can tell "no TLB misses"
    # from "no TLB in the model" (e.g. the mobile preset omits one on
    # purpose; see repro.arch.presets.MOBILE_SOC).
    doc["tlb_modeled"] = bool(tlb_stats)
    if tlb_stats:
        doc["tlb"] = {
            "accesses": sum(s.accesses for s in tlb_stats),
            "misses": sum(s.misses for s in tlb_stats),
        }
    return doc


def snapshot_pool_stats(stats: Any) -> Dict[str, Any]:
    """Serialize a :class:`~repro.gemm.pool.PoolStats`."""
    return {
        "steps": stats.steps,
        "calls": stats.calls,
        "threads": {
            str(t): {
                "pack_a_calls": c.pack_a_calls,
                "pack_b_calls": c.pack_b_calls,
                "gebp_calls": c.gebp_calls,
                "pack_a_seconds": c.pack_a_seconds,
                "pack_b_seconds": c.pack_b_seconds,
                "gebp_seconds": c.gebp_seconds,
            }
            for t, c in sorted(stats.snapshot().items())
        },
    }


def snapshot_pipeline(result: Any) -> Dict[str, Any]:
    """Serialize a :class:`~repro.pipeline.scoreboard.PipelineResult`."""
    return {
        "cycles": result.cycles,
        "issue_cycles": result.issue_cycles,
        "raw_stall_cycles": result.raw_stall_cycles,
        "structural_stall_cycles": result.structural_stall_cycles,
        "war_stall_cycles": result.war_stall_cycles,
        "instructions": result.instructions,
        "flops": result.flops,
        "ipc": result.ipc,
    }


def snapshot_timed_run(run: Any) -> Dict[str, Any]:
    """Serialize a :class:`~repro.sim.timed_executor.TimedRun` (the C tile
    values are folded into a content hash; cycles/stalls/latencies plus
    the hash identify the run exactly)."""
    import hashlib

    import numpy as np

    c = np.ascontiguousarray(run.c_tile, dtype=np.float64)
    return {
        "c_sha256": hashlib.sha256(c.tobytes()).hexdigest(),
        "cycles": run.cycles,
        "cycles_per_iteration": run.cycles_per_iteration,
        "efficiency": run.efficiency,
        "engine": run.engine,
        # Always null (the timed engine never falls back); kept so stored
        # answers and baselines keep their bytes.
        "fallback_reason": None,
        "pipeline": snapshot_pipeline(run.pipeline),
        "load_latencies": {
            str(lat): cnt for lat, cnt in sorted(run.load_latencies.items())
        },
    }
