"""Named counters, gauges, histograms and span timers.

The simulator stack's engines each grew their own stat objects
(:class:`~repro.gemm.pool.PoolStats`, :class:`~repro.memory.cache.CacheStats`,
the scoreboard's :class:`~repro.pipeline.scoreboard.PipelineResult`).
:class:`MetricsRegistry` is the layer above them: one mutable sink a whole
run threads through its engines, collecting cross-cutting counts (engine
selections, batch replays, fallback events) and phase timings
(``with registry.span("pack_a"): ...``) that no single stat object owns.

Instrumentation follows a zero-overhead-when-disabled contract: every
instrumented entry point takes ``metrics: Optional[MetricsRegistry] = None``
and guards each hook with ``if metrics is not None`` — a disabled run pays
one pointer comparison per instrumented call, nothing else. Callers that
prefer to pass a registry unconditionally can use :data:`NULL_REGISTRY`,
whose operations are no-ops.

The registry serializes to the ``metrics`` section of a
:class:`~repro.obs.run_report.RunReport` via :meth:`MetricsRegistry.as_dict`.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "Span",
]

_clock = time.perf_counter


class Histogram:
    """Streaming summary of observed values: count/total/min/max.

    Deliberately bucket-free — the engines' interesting distributions
    (load latencies, per-tile cycles) are already exact dicts on their
    result objects; the registry-level histogram answers "how many, how
    big" without holding every sample.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class Span:
    """Accumulated wall-clock of one named phase (re-enterable timer)."""

    __slots__ = ("count", "seconds", "_t0")

    def __init__(self) -> None:
        self.count = 0
        self.seconds = 0.0
        self._t0 = 0.0

    def __enter__(self) -> "Span":
        self._t0 = _clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds += _clock() - self._t0
        self.count += 1

    def as_dict(self) -> Dict[str, Any]:
        return {"count": self.count, "seconds": self.seconds}


class MetricsRegistry:
    """A run's named counters, gauges, histograms and span timers.

    Names are free-form dotted strings (``"timed.engine.compiled"``);
    instruments are created on first use. No lock is taken: the registry
    has one writer, the thread that dispatches the work. Serve and tune
    compute their misses on :class:`~repro.gemm.pool.WorkerPool` threads
    with ``metrics=None`` and update the registry from the caller once
    the jobs finished. ``test_pooled_serve_and_tune_write_from_the_caller_only``
    in ``tests/test_obs.py`` pins that.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.spans: Dict[str, Span] = {}

    # -- instruments --------------------------------------------------------

    def inc(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Record the last-seen value of ``name``."""
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Feed ``value`` into histogram ``name``."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    def span(self, name: str) -> Span:
        """The re-enterable phase timer ``name``; use as a context manager::

            with registry.span("pack_a"):
                ...
        """
        sp = self.spans.get(name)
        if sp is None:
            sp = self.spans[name] = Span()
        return sp

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Drop every instrument (fresh-registry equivalence)."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self.spans.clear()

    def as_dict(self) -> Dict[str, Any]:
        """The ``metrics`` section of a run report (JSON-serializable)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                k: h.as_dict() for k, h in self.histograms.items()
            },
            "spans": {k: s.as_dict() for k, s in self.spans.items()},
        }

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(counters={len(self.counters)}, "
            f"gauges={len(self.gauges)}, "
            f"histograms={len(self.histograms)}, spans={len(self.spans)})"
        )


class _NullSpan:
    """A context manager that does nothing, reused for every null span."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullRegistry(MetricsRegistry):
    """A registry whose every operation is a no-op.

    For callers that want to pass ``metrics`` unconditionally without a
    per-call ``None`` guard. Always empty; :meth:`as_dict` reports empty
    sections.
    """

    def inc(self, name: str, amount: float = 1) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def span(self, name: str) -> Span:  # type: ignore[override]
        return _NULL_SPAN  # type: ignore[return-value]


#: Shared no-op registry (see :class:`NullRegistry`).
NULL_REGISTRY = NullRegistry()
