"""Content-hash keys for tuner evaluations.

Every evaluation the tuner performs — analytic cost-model scoring of a
(tile, blocking) class, or a compiled timed run of a (tile, rotation,
schedule) variant — is described by a plain-JSON *evaluation document*.
The document is SHA-256-hashed into a cache key with the same key-material
idiom as :func:`repro.serve.query.query_key`, and the result is persisted
as a RunReport-shaped answer in a :class:`repro.serve.store.ResultStore`
by the serving layer's memoized-answer step
(:func:`repro.serve.engine.memoized`).

Three schema versions are folded into the key material:

- :data:`TUNE_SCHEMA_VERSION` — the shape of evaluation documents and of
  the stats they produce;
- :data:`~repro.serve.query.QUERY_SCHEMA_VERSION` — the machine-document
  conventions shared with the serving layer;
- :data:`~repro.obs.run_report.SCHEMA_VERSION` — the answer envelope.

Bumping any of them changes every key, so stale entries become
unreachable instead of being replayed in an old shape. The store's own
read-side validation additionally rejects entries whose answer no longer
validates as a report.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict

from repro.obs.run_report import SCHEMA_VERSION
from repro.serve.query import QUERY_SCHEMA_VERSION

__all__ = ["TUNE_SCHEMA_VERSION", "eval_key"]

#: Version of the tuner's evaluation-document and stats shapes. Bump
#: whenever an evaluation field is added/renamed or a stats field changes
#: meaning — either changes what a cached answer means.
TUNE_SCHEMA_VERSION = 1


def eval_key(doc: Dict[str, Any]) -> str:
    """The content-hash cache key of one evaluation document.

    ``doc`` must already be canonical: plain JSON types only, every field
    filled (the enumerator and evaluators construct docs this way, so two
    evaluations that mean the same thing hash identically).
    """
    material = json.dumps(
        {
            "tune_schema": TUNE_SCHEMA_VERSION,
            "query_schema": QUERY_SCHEMA_VERSION,
            "report_schema": SCHEMA_VERSION,
            "eval": doc,
        },
        sort_keys=True,
    )
    return hashlib.sha256(material.encode()).hexdigest()
