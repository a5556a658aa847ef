"""Sharded, crash-safe on-disk result store for the serving layer.

One JSON file per cache key, sharded by the key's first hex character
into at most 16 directories::

    <root>/a/ab93f1...e2.json

Sixteen shards rather than 256: a tune search puts ~226 entries into a
fresh store, and with 256 shards ~150 of those puts first had to create
their directory. Creating a directory costs about as much as writing an
entry: on ext4 (a shared 2-vCPU VM), the 228 puts of one tune search
into a fresh store took a median 74-164 ms with 256 shards and 53-116 ms
with 16 (three runs of 7).

Stores written with the earlier two-character shards (``<root>/ab/...``)
keep the same entry envelope, so :data:`STORE_SCHEMA_VERSION` did not
change; their entries are simply not looked at. Each such key is a miss
and is recomputed into its one-character shard.

Every entry is written atomically via
:func:`~repro.obs.run_report.atomic_write_text` (temp file + rename in
the same directory), so a crash mid-write can never leave a truncated
entry behind. Reads are deliberately forgiving: a missing, truncated,
garbage, version-skewed or key-mismatched file is a **miss** — the
engine recomputes and rewrites it — never an exception. A cache must
not be able to take the service down.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator, Optional

from repro.obs.run_report import atomic_write_json, validate_report
from repro.serve.query import QUERY_SCHEMA_VERSION

__all__ = ["STORE_SCHEMA_VERSION", "ResultStore"]

#: Version of the on-disk entry envelope (not of the answer inside it —
#: the answer carries the RunReport SCHEMA_VERSION on its own).
STORE_SCHEMA_VERSION = 1

#: Hash-prefix characters used as the shard directory name: 1 hex char
#: = 16 shards. A tune search's ~226 entries touched ~150 of the 256
#: two-character shards, and each first touch paid for a ``mkdir`` (see
#: the module docstring for the timings).
SHARD_CHARS = 1


class ResultStore:
    """Content-hash-keyed persistent answer store.

    Args:
        root: Directory holding the shards; created lazily on the first
            :meth:`put`.
    """

    def __init__(self, root: Any) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        """The entry file a key maps to (shard dir + key file)."""
        return self.root / key[:SHARD_CHARS] / f"{key}.json"

    # -- read ---------------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached answer for ``key``, or ``None`` on any miss.

        Corruption of every flavour — unreadable file, truncated or
        garbage JSON, wrong envelope, version skew, key mismatch, or an
        answer that no longer validates against the report schema — is
        treated as a miss so the entry gets recomputed and overwritten.
        """
        entry = self._load_entry(key)
        if entry is None:
            return None
        return entry["answer"]

    def _load_entry(self, key: str) -> Optional[Dict[str, Any]]:
        try:
            text = self.path_for(key).read_text()
        except OSError:
            return None
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, ValueError):
            return None
        if not isinstance(doc, dict):
            return None
        if doc.get("kind") != "serve-cache-entry":
            return None
        if doc.get("store_schema_version") != STORE_SCHEMA_VERSION:
            return None
        if doc.get("query_schema_version") != QUERY_SCHEMA_VERSION:
            return None
        if doc.get("key") != key:
            return None
        answer = doc.get("answer")
        if not isinstance(answer, dict) or validate_report(answer):
            return None
        return doc

    # -- write --------------------------------------------------------------

    def put(
        self, key: str, query: Dict[str, Any], answer: Dict[str, Any]
    ) -> Path:
        """Persist ``answer`` for ``key`` atomically; returns the path.

        The canonical query travels inside the entry purely for human
        inspection of the cache directory — reads trust only the key.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # One line: without indentation json.dumps uses its C encoder.
        atomic_write_json(path, {
            "kind": "serve-cache-entry",
            "store_schema_version": STORE_SCHEMA_VERSION,
            "query_schema_version": QUERY_SCHEMA_VERSION,
            "key": key,
            "query": query,
            "answer": answer,
        }, indent=None)
        return path

    # -- maintenance --------------------------------------------------------

    def keys(self) -> Iterator[str]:
        """Every key with a well-formed entry file name on disk."""
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir() or len(shard.name) != SHARD_CHARS:
                continue
            for entry in sorted(shard.glob("*.json")):
                key = entry.stem
                if key.startswith(shard.name):
                    yield key

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def bytes_held(self) -> int:
        """Total size of all entry files (the cache's disk footprint)."""
        total = 0
        for key in self.keys():
            try:
                total += os.path.getsize(self.path_for(key))
            except OSError:
                continue
        return total

    def __repr__(self) -> str:
        return f"ResultStore(root={str(self.root)!r})"
