"""Memoized query-serving layer over the simulator engine families.

The *simulation-as-a-service* face of the stack: plain JSON query
documents (:mod:`repro.serve.query`) are content-hash-keyed, answered
from a sharded crash-safe on-disk store (:mod:`repro.serve.store`) when
possible, and otherwise computed concurrently on the generalized
:class:`~repro.gemm.pool.WorkerPool` job API and persisted
(:mod:`repro.serve.engine`). Cached answers are byte-identical to
freshly computed ones — the ``serve.cache`` oracle in
:mod:`repro.verify.oracles` enforces exactly that.
"""

from repro.serve.engine import (
    Answer,
    QueryEngine,
    ServeStats,
    compute_answer,
    execute,
)
from repro.serve.presets import WARM_PRESETS, warm_queries
from repro.serve.query import (
    KINDS,
    MACHINE_PRESETS,
    QUERY_SCHEMA_VERSION,
    QueryError,
    canonical_query,
    query_key,
    resolve_machine,
)
from repro.serve.store import STORE_SCHEMA_VERSION, ResultStore

__all__ = [
    "Answer",
    "QueryEngine",
    "ServeStats",
    "compute_answer",
    "execute",
    "WARM_PRESETS",
    "warm_queries",
    "KINDS",
    "MACHINE_PRESETS",
    "QUERY_SCHEMA_VERSION",
    "QueryError",
    "canonical_query",
    "query_key",
    "resolve_machine",
    "STORE_SCHEMA_VERSION",
    "ResultStore",
]
