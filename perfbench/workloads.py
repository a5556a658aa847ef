"""Seeded input streams for the four benchmark workloads.

Pure data: nothing here imports the program under test, so the program
receives only the generated documents. The same ``seed`` always yields a
byte-identical stream (``random.Random`` seeded from a string hashes it
with SHA-512, which is stable across interpreter runs).

Every workload is a fixed sequence of *slots* repeated in *periods*. A
slot fixes everything that decides how much work a request costs (query
kind, machine, kernel, shape); the seed only chooses which of a slot's
``VARIANTS`` cost-neutral variants (simulate sizes, RANDOM victim seed,
operand seed, prefetch lateness) fills it in each period. Different
seeds therefore keep identical kind, machine and kernel proportions and
identical per-period cost, which is what makes their timings comparable.
A stream visits every variant of every slot once per *epoch*; a run that
outlasts an epoch starts the next one on a fresh store (see ``run.py``),
so cold workloads stay cold.

Because the palette of inputs is finite and seed-independent, every
answer any seed can produce has a recorded SHA-256 in ``golden.json``
(written by ``record.py``), keyed by :func:`input_digest`.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

HERE = Path(__file__).resolve().parent

#: X-Gene machine documents with RANDOM (L1/L2; the L3 stays LRU) and
#: PLRU replacement, in the serve layer's machine-document schema.
MACHINE_DOCS: Dict[str, Dict[str, Any]] = json.loads(
    (HERE / "machines.json").read_text()
)

#: k-steps per generated body of each by-element kernel variant; a timed
#: query's ``kc`` must be a multiple of it.
UNROLL = {
    "OpenBLAS-8x6": 8,
    "OpenBLAS-8x4": 7,
    "OpenBLAS-4x4": 5,
    "ATLAS-5x5": 7,
    "OpenBLAS-8x6-noRR": 8,
}
TUNE_MACHINES = ("xgene", "mobile", "big_little")

#: The serve slots follow the committed query sample
#: ``benchmarks/data/serve_batch.jsonl``: per 16 queries 6 simulate,
#: 5 cachesim and 5 timed; mostly xgene and OpenBLAS-8x6; cachesim
#: ``nc_slice`` 8 or 12; timed ``kc`` between 16 and 32 (a multiple of
#: the kernel's unroll). Beyond the sample, every by-element kernel
#: appears, big_little joins mobile as a second preset, and one cachesim
#: and one timed slot in 15 use each of the RANDOM and PLRU X-Gene
#: documents, so the batched walk's per-access fallback is exercised.
#: Entries: (machine, kernel) for simulate, (machine, kernel, nc_slice)
#: for cachesim, (machine, kernel, kc) for timed.
_SIMULATE_SLOTS = (
    ("xgene", "OpenBLAS-8x6"), ("xgene", "OpenBLAS-4x4"),
    ("mobile", "OpenBLAS-8x6"), ("xgene", "ATLAS-5x5"),
    ("xgene", "OpenBLAS-8x6"), ("big_little", "OpenBLAS-8x4"),
    ("xgene", "OpenBLAS-8x6-noRR"), ("xgene", "OpenBLAS-8x6"),
    ("mobile", "OpenBLAS-4x4"), ("xgene", "OpenBLAS-8x4"),
    ("big_little", "OpenBLAS-8x6"), ("xgene", "OpenBLAS-8x6"),
    ("xgene", "OpenBLAS-4x4"), ("mobile", "ATLAS-5x5"),
    ("xgene", "OpenBLAS-8x6"), ("big_little", "OpenBLAS-8x6-noRR"),
    ("xgene", "ATLAS-5x5"), ("xgene", "OpenBLAS-8x6"),
)
_CACHESIM_SLOTS = (
    ("xgene", "OpenBLAS-8x6", 12), ("xgene", "OpenBLAS-4x4", 8),
    ("mobile", "OpenBLAS-8x6", 8), ("xgene-random", "OpenBLAS-8x6", 8),
    ("xgene", "OpenBLAS-8x4", 8), ("big_little", "OpenBLAS-8x6", 8),
    ("xgene", "ATLAS-5x5", 12), ("xgene", "OpenBLAS-8x6-noRR", 8),
    ("mobile", "OpenBLAS-4x4", 8), ("xgene-plru", "OpenBLAS-8x6", 8),
    ("xgene", "OpenBLAS-8x6", 8), ("big_little", "ATLAS-5x5", 8),
    ("xgene", "OpenBLAS-4x4", 12), ("xgene", "OpenBLAS-8x6-noRR", 12),
    ("xgene", "OpenBLAS-8x4", 12),
)
_TIMED_SLOTS = (
    ("xgene", "OpenBLAS-8x6", 16), ("xgene", "OpenBLAS-4x4", 20),
    ("mobile", "OpenBLAS-8x6", 16), ("xgene", "OpenBLAS-8x6", 32),
    ("xgene-plru", "OpenBLAS-8x6", 16), ("xgene", "ATLAS-5x5", 21),
    ("big_little", "OpenBLAS-8x4", 28), ("xgene", "OpenBLAS-8x6-noRR", 24),
    ("xgene", "OpenBLAS-8x6", 24), ("mobile", "OpenBLAS-4x4", 25),
    ("xgene-random", "OpenBLAS-8x6", 16), ("xgene", "OpenBLAS-8x4", 21),
    ("big_little", "OpenBLAS-8x6", 32), ("xgene", "OpenBLAS-4x4", 30),
    ("xgene", "ATLAS-5x5", 28),
)
#: Kind order within each block of 16 queries (6:5:5, interleaved so
#: every batch of 4 mixes kinds).
_BLOCK = "SCTSCTSCTSCTSSCT"

#: Variants per slot: one epoch of a stream.
VARIANTS = 16
SERVE_BATCH = 4
HOT_BATCH = 16
HOT_PREFILL = 24
ZIPF_S = 1.1
#: The default tune budget, passed explicitly so the workload does not
#: drift with the program's defaults.
TUNE_BUDGET = {"max_tiles": 4, "top_k": 12}

#: Simulate sizes span the sample's 256..768.
_SIM_SIZES = (256, 320, 384, 448, 512, 576, 640, 768)
_HW_LATE = (0.0, 0.125, 0.25, 0.375)

#: Exhibit slots: (kind, machine, shape). Stencil and conv shapes sit
#: around the ``--smoke`` sizes, scaled so every slot costs about the
#: same; the median request latency then falls inside one cluster
#: instead of between a cheap kind and an expensive one.
_CONV = {"cin": 2, "height": 22, "width": 22, "filters": 8}
EXHIBIT_SLOTS: Tuple[Tuple[str, str, Dict[str, int]], ...] = (
    ("stencil", "xgene", {"height": 8, "width": 2048, "iterations": 1}),
    ("conv", "xgene", _CONV),
    ("stencil", "mobile", {"height": 14, "width": 1024, "iterations": 1}),
    ("conv", "mobile", _CONV),
    ("stencil", "big_little", {"height": 14, "width": 1024, "iterations": 1}),
    ("conv", "big_little", _CONV),
)


def input_digest(doc: Dict[str, Any]) -> str:
    """Short content hash of one generated input document."""
    text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _machine(name: str) -> Any:
    return MACHINE_DOCS.get(name, name)


# -- serve ---------------------------------------------------------------------


def serve_slots() -> List[Tuple[str, str, str, int]]:
    """The 48 (kind, machine, kernel, size) slots of one serve period.

    ``size`` is ``nc_slice`` for cachesim, ``kc`` for timed and ``k``
    for simulate (distinct per slot, so no two slots share a query).
    Three blocks of ``_BLOCK`` take the per-kind slots in order.
    """
    lists = {
        "S": [("simulate", m, k, 256 + 16 * i)
              for i, (m, k) in enumerate(_SIMULATE_SLOTS)],
        "C": [("cachesim", m, k, s) for m, k, s in _CACHESIM_SLOTS],
        "T": [("timed", m, k, s) for m, k, s in _TIMED_SLOTS],
    }
    taken = {kind: 0 for kind in lists}
    slots = []
    for kind in _BLOCK * 3:
        slots.append(lists[kind][taken[kind]])
        taken[kind] += 1
    assert all(taken[kind] == len(lists[kind]) for kind in lists)
    return slots


def serve_query(kind: str, machine: str, kernel: str, size: int,
                v: int) -> Dict[str, Any]:
    """Variant ``v`` of one serve slot (all variants cost the same)."""
    doc: Dict[str, Any] = {"kind": kind, "machine": _machine(machine),
                           "kernel": kernel}
    if kind == "simulate":
        doc.update(
            m=_SIM_SIZES[v % 8], n=_SIM_SIZES[(3 * v + 1) % 8], k=size,
            threads=(1, 2, 4)[v % 3],
            parallel_axis="n" if v % 4 == 3 else "m",
        )
    elif kind == "cachesim":
        doc.update(nc_slice=size, seed=v)
    else:
        assert size % UNROLL[kernel] == 0, (kernel, size)
        doc.update(kc=size, hw_late=_HW_LATE[v % 4], seed=v // 4)
    return doc


def _perms(rng: random.Random, slots: int) -> List[List[int]]:
    return [rng.sample(range(VARIANTS), VARIANTS) for _ in range(slots)]


def serve_stream(seed: int) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """Endless ``(epoch, query)`` stream of the serve-cold workload."""
    slots = serve_slots()
    perms = _perms(random.Random(f"serve-cold:{seed}"), len(slots))
    period = 0
    while True:
        v_index = period % VARIANTS
        for slot, perm in zip(slots, perms):
            yield period // VARIANTS, serve_query(*slot, perm[v_index])
        period += 1


def serve_cold_batches(seed: int) -> Iterator[Tuple[int, List[Dict[str, Any]]]]:
    """``(epoch, batch)`` pairs of ``SERVE_BATCH`` distinct queries.

    An epoch holds ``48 * VARIANTS`` queries, a multiple of the batch
    size, so no batch straddles two epochs.
    """
    stream = serve_stream(seed)
    while True:
        items = [next(stream) for _ in range(SERVE_BATCH)]
        yield items[0][0], [doc for _, doc in items]


def serve_hot_prefill(seed: int) -> List[Dict[str, Any]]:
    """The serve-cold stream's first ``HOT_PREFILL`` queries."""
    stream = serve_stream(seed)
    return [next(stream)[1] for _ in range(HOT_PREFILL)]


def serve_hot_batches(seed: int) -> Iterator[List[Dict[str, Any]]]:
    """Endless Zipf(``ZIPF_S``) repeats of the prefilled queries.

    Popularity follows slot order, which every seed shares, so the most
    requested answers have the same kinds and sizes whatever the seed;
    the seed picks the variants and the draws.
    """
    prefill = serve_hot_prefill(seed)
    rng = random.Random(f"serve-hot:{seed}")
    weights = [1.0 / (rank ** ZIPF_S) for rank in range(1, len(prefill) + 1)]
    while True:
        yield rng.choices(prefill, weights=weights, k=HOT_BATCH)


# -- tune ----------------------------------------------------------------------


def tune_request(machine: str, v: int) -> Dict[str, Any]:
    """Keyword arguments of one ``tune_search`` call."""
    return {"machine": machine, "seed": v, **TUNE_BUDGET}


def tune_stream(seed: int) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """Endless ``(epoch, kwargs)`` stream cycling the tune machines."""
    perms = _perms(random.Random(f"tune-cold:{seed}"), len(TUNE_MACHINES))
    period = 0
    while True:
        for machine, perm in zip(TUNE_MACHINES, perms):
            yield period // VARIANTS, tune_request(
                machine, perm[period % VARIANTS]
            )
        period += 1


# -- exhibit -------------------------------------------------------------------


def exhibit_query(kind: str, machine: str, shape: Dict[str, int],
                  v: int) -> Dict[str, Any]:
    return {"kind": kind, "machine": machine, **shape, "seed": v}


def exhibit_stream(seed: int) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """Endless ``(epoch, query)`` stream of stencil and conv exhibits."""
    perms = _perms(random.Random(f"exhibit-cold:{seed}"), len(EXHIBIT_SLOTS))
    period = 0
    while True:
        for slot, perm in zip(EXHIBIT_SLOTS, perms):
            yield period // VARIANTS, exhibit_query(
                *slot, perm[period % VARIANTS]
            )
        period += 1


def exhibit_batches(seed: int) -> Iterator[Tuple[int, List[Dict[str, Any]]]]:
    """``(epoch, [query])``: exhibits are served one per request."""
    for epoch, doc in exhibit_stream(seed):
        yield epoch, [doc]


# -- palettes (every input any seed can generate) ------------------------------


def serve_palette() -> Iterator[Dict[str, Any]]:
    for slot in serve_slots():
        for v in range(VARIANTS):
            yield serve_query(*slot, v)


def tune_palette() -> Iterator[Dict[str, Any]]:
    for machine in TUNE_MACHINES:
        for v in range(VARIANTS):
            yield tune_request(machine, v)


def exhibit_palette() -> Iterator[Dict[str, Any]]:
    for slot in EXHIBIT_SLOTS:
        for v in range(VARIANTS):
            yield exhibit_query(*slot, v)


PALETTES = {
    "serve": serve_palette,
    "tune": tune_palette,
    "exhibit": exhibit_palette,
}
