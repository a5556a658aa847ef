"""Seeded generation of random-but-valid machines for differential fuzzing.

A *machine document* is a small JSON-able dict describing a
:class:`~repro.arch.params.ChipParams` perturbation — cache geometry,
replacement and write policies, topology, TLB presence. The fuzzer draws
documents from a seeded :class:`random.Random`; :func:`build_chip` turns a
document back into a validated ``ChipParams``. Keeping the document (not
the object) in the fuzz case makes every case JSON-serializable, so a
failing machine can be committed verbatim as a replay file.

Geometry is always generated valid by construction: sizes are computed as
``sets * ways * line`` (the :class:`~repro.arch.params.CacheParams`
divisibility invariant) and sharing factors follow the topology.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional

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

__all__ = ["build_chip", "chip_doc", "random_asym_machine",
           "random_machine", "simplified_asym_machines",
           "simplified_machines"]

_POLICIES = ("lru", "random", "plru")


def random_machine(rng: random.Random, budget: str = "default") -> Dict[str, Any]:
    """Draw one machine document from ``rng``.

    ``budget`` bounds the topology: ``"smoke"`` keeps chips small so a
    whole fuzz sweep stays interactive; larger budgets allow more cores
    and bigger caches.
    """
    small = budget == "smoke"
    per_module = rng.choice((1, 2))
    modules = rng.choice((1, 2) if small else (1, 2, 4))
    line = rng.choice((32, 64))

    def level(name: str, sets_choices, ways_choices, latency, shared_by):
        return {
            "name": name,
            "sets": rng.choice(sets_choices),
            "ways": rng.choice(ways_choices),
            "line": line,
            "latency": latency,
            "replacement": rng.choice(_POLICIES),
            # Write-through is rare on the modeled chips; it exercises the
            # batched engine's store-propagation walk, which we want
            # covered without dominating the sweep.
            "write_policy": (
                "write-through" if rng.random() < 0.1 else "write-back"
            ),
            "shared_by": shared_by,
        }

    cores = per_module * modules
    doc: Dict[str, Any] = {
        "cores": cores,
        "cores_per_module": per_module,
        "line": line,
        "l1": level("L1D", (2, 4, 8), (2, 4), 4, 1),
        "l2": level("L2", (8, 16), (4, 8), 12, per_module),
        "l3": (
            level("L3", (16, 32), (8, 16), 40, cores)
            if rng.random() < 0.7
            else None
        ),
        "with_tlb": rng.random() < 0.4,
        "dram_latency": rng.choice((120, 180)),
    }
    return doc


def _cache_params(doc: Dict[str, Any]) -> CacheParams:
    kwargs: Dict[str, Any] = {}
    if "miss_energy_pj" in doc:
        kwargs["miss_energy_pj"] = doc["miss_energy_pj"]
    return CacheParams(
        name=doc["name"],
        size_bytes=doc["sets"] * doc["ways"] * doc["line"],
        line_bytes=doc["line"],
        ways=doc["ways"],
        latency_cycles=doc["latency"],
        replacement=ReplacementPolicy(doc.get("replacement", "lru")),
        write_policy=WritePolicy(doc.get("write_policy", "write-back")),
        shared_by=doc.get("shared_by", 1),
        **kwargs,
    )


#: CoreParams fields a machine document's ``core`` sub-document may set.
_CORE_KEYS = (
    "issue_width", "fma_pipes", "load_ports", "fma_latency",
    "fma_throughput_cycles", "load_latency", "fp_registers",
    "fp_register_bytes", "rename_registers", "frequency_hz",
    "flops_per_fma", "fma_energy_pj", "load_energy_pj", "idle_energy_pj",
)


def _core_params(doc: Optional[Dict[str, Any]]) -> CoreParams:
    if not doc:
        return CoreParams()
    return CoreParams(**{k: doc[k] for k in _CORE_KEYS if k in doc})


def _cluster_params(doc: Dict[str, Any]) -> CoreClusterParams:
    return CoreClusterParams(
        name=doc["name"],
        cores=doc["cores"],
        cores_per_module=doc["cores_per_module"],
        core=_core_params(doc.get("core")),
        l1d=_cache_params(doc["l1"]),
        l2=_cache_params(doc["l2"]),
    )


def build_chip(doc: Dict[str, Any]) -> ChipParams:
    """Materialize a machine document into a validated ``ChipParams``.

    The historical flat form (``cores``/``cores_per_module``/``l1``/
    ``l2``) is unchanged. A document may additionally carry a ``core``
    sub-document overriding :class:`CoreParams` fields, and a
    ``clusters`` list of per-class sub-documents (each with its own
    ``core``/``l1``/``l2``) describing an asymmetric chip; with clusters
    present the flat fields are derived from the first cluster and the
    top-level ``cores``/``l1``/``l2`` keys may be omitted.
    """
    name = doc.get("name", "fuzz-machine")
    dram = DramParams(latency_cycles=doc.get("dram_latency", 180))
    tlb = TlbParams() if doc.get("with_tlb") else None
    l3 = _cache_params(doc["l3"]) if doc.get("l3") else None
    if doc.get("clusters"):
        clusters = tuple(_cluster_params(c) for c in doc["clusters"])
        lead = clusters[0]
        return ChipParams(
            name=name,
            cores=sum(c.cores for c in clusters),
            cores_per_module=lead.cores_per_module,
            core=lead.core,
            l1d=lead.l1d,
            l2=lead.l2,
            l3=l3,
            dram=dram,
            tlb=tlb,
            clusters=clusters,
        )
    return ChipParams(
        name=name,
        cores=doc["cores"],
        cores_per_module=doc["cores_per_module"],
        core=_core_params(doc.get("core")),
        l1d=_cache_params(doc["l1"]),
        l2=_cache_params(doc["l2"]),
        l3=l3,
        dram=dram,
        tlb=tlb,
    )


def _cache_doc(cache: CacheParams) -> Dict[str, Any]:
    return {
        "name": cache.name,
        "sets": cache.num_sets,
        "ways": cache.ways,
        "line": cache.line_bytes,
        "latency": cache.latency_cycles,
        "replacement": cache.replacement.value,
        "write_policy": cache.write_policy.value,
        "shared_by": cache.shared_by,
        "miss_energy_pj": cache.miss_energy_pj,
    }


def _core_doc(core: CoreParams) -> Dict[str, Any]:
    return {k: getattr(core, k) for k in _CORE_KEYS}


def chip_doc(chip: ChipParams) -> Dict[str, Any]:
    """Serialize a ``ChipParams`` into a machine document.

    Inverse of :func:`build_chip` up to DRAM bandwidth and TLB geometry
    (documents carry only their presence knobs): ``build_chip(chip_doc(
    chip))`` reproduces every cache, core and cluster parameter.
    """
    doc: Dict[str, Any] = {
        "name": chip.name,
        "cores": chip.cores,
        "cores_per_module": chip.cores_per_module,
        "line": chip.l1d.line_bytes,
        "core": _core_doc(chip.core),
        "l1": _cache_doc(chip.l1d),
        "l2": _cache_doc(chip.l2),
        "l3": _cache_doc(chip.l3) if chip.l3 is not None else None,
        "with_tlb": chip.tlb is not None,
        "dram_latency": chip.dram.latency_cycles,
    }
    if chip.clusters:
        doc["clusters"] = [
            {
                "name": c.name,
                "cores": c.cores,
                "cores_per_module": c.cores_per_module,
                "core": _core_doc(c.core),
                "l1": _cache_doc(c.l1d),
                "l2": _cache_doc(c.l2),
            }
            for c in chip.clusters
        ]
    return doc


def random_asym_machine(
    rng: random.Random, budget: str = "default"
) -> Dict[str, Any]:
    """Draw one asymmetric (two-cluster) machine document from ``rng``.

    A separate generator so the draw sequence of :func:`random_machine`
    — and therefore every committed symmetric fuzz case — is untouched.
    The big cluster runs faster and pays more energy per event; the
    LITTLE cluster is the reverse; both always exist, so any chip from
    here has at least two cores and a meaningful weighted partition.
    """
    small = budget == "smoke"
    line = rng.choice((32, 64))

    def level(name, sets_choices, ways_choices, latency, shared_by):
        return {
            "name": name,
            "sets": rng.choice(sets_choices),
            "ways": rng.choice(ways_choices),
            "line": line,
            "latency": latency,
            "replacement": rng.choice(_POLICIES),
            "write_policy": (
                "write-through" if rng.random() < 0.1 else "write-back"
            ),
            "shared_by": shared_by,
        }

    def cluster(name: str, fast: bool) -> Dict[str, Any]:
        per_module = rng.choice((1, 2))
        modules = 1 if small else rng.choice((1, 2))
        return {
            "name": name,
            "cores": per_module * modules,
            "cores_per_module": per_module,
            "core": {
                "issue_width": 4 if fast else 2,
                "frequency_hz": (
                    rng.choice((2.0e9, 2.4e9)) if fast
                    else rng.choice((1.2e9, 1.4e9))
                ),
                "fma_energy_pj": 45.0 if fast else 15.0,
                "load_energy_pj": 25.0 if fast else 8.0,
                "idle_energy_pj": 150.0 if fast else 40.0,
            },
            "l1": level("L1D", (2, 4, 8), (2, 4), 4 if fast else 3, 1),
            "l2": level("L2", (8, 16), (4, 8), 12, per_module),
        }

    big = cluster("big", True)
    little = cluster("LITTLE", False)
    total = big["cores"] + little["cores"]
    return {
        "line": line,
        "clusters": [big, little],
        "l3": (
            level("L3", (16, 32), (8, 16), 40, total)
            if rng.random() < 0.7
            else None
        ),
        "with_tlb": rng.random() < 0.3,
        "dram_latency": rng.choice((120, 180)),
    }


def simplified_asym_machines(doc: Dict[str, Any]):
    """Yield strictly simpler variants of an asymmetric machine document.

    The cluster-aware counterpart of :func:`simplified_machines`: drops
    the L3 and TLB, shrinks each cluster's core count and module
    structure (keeping the shared L3's ``shared_by`` consistent with the
    new total), and halves cluster cache geometry.
    """
    def with_clusters(clusters):
        out = dict(doc, clusters=clusters)
        if out.get("l3"):
            total = sum(c["cores"] for c in clusters)
            out["l3"] = dict(out["l3"], shared_by=total)
        return out

    if doc.get("l3") is not None:
        yield dict(doc, l3=None)
    if doc.get("with_tlb"):
        yield dict(doc, with_tlb=False)
    clusters = doc["clusters"]
    for i, cl in enumerate(clusters):
        others = list(clusters)
        if cl["cores"] > cl["cores_per_module"]:
            others[i] = dict(cl, cores=cl["cores_per_module"])
            yield with_clusters(others)
            continue
        if cl["cores_per_module"] > 1:
            others[i] = dict(
                cl,
                cores_per_module=1,
                cores=cl["cores"] // cl["cores_per_module"],
                l2=dict(cl["l2"], shared_by=1),
            )
            yield with_clusters(others)
        for lvl in ("l1", "l2"):
            level = cl[lvl]
            if level["sets"] > 1:
                others = list(clusters)
                others[i] = dict(cl, **{lvl: dict(level, sets=level["sets"] // 2)})
                yield with_clusters(others)
            if level["ways"] > 1:
                others = list(clusters)
                others[i] = dict(cl, **{lvl: dict(level, ways=level["ways"] // 2)})
                yield with_clusters(others)
            if level.get("replacement", "lru") != "lru":
                others = list(clusters)
                others[i] = dict(cl, **{lvl: dict(level, replacement="lru")})
                yield with_clusters(others)


def simplified_machines(doc: Dict[str, Any]):
    """Yield strictly simpler variants of a machine document (shrinking).

    Each candidate removes one source of complexity: the L3, the TLB,
    extra modules, write-through levels, non-LRU replacement, set count.
    """
    if doc.get("l3") is not None:
        out = dict(doc)
        out["l3"] = None
        yield out
    if doc.get("with_tlb"):
        out = dict(doc)
        out["with_tlb"] = False
        yield out
    if doc["cores"] > doc["cores_per_module"]:
        out = dict(doc)
        out["cores"] = doc["cores_per_module"]
        yield out
    if doc["cores_per_module"] > 1:
        out = dict(doc)
        out["cores_per_module"] = 1
        out["cores"] = doc["cores"] // doc["cores_per_module"]
        for lvl in ("l2",):
            out[lvl] = dict(out[lvl], shared_by=1)
        if out.get("l3"):
            out["l3"] = dict(out["l3"], shared_by=out["cores"])
        yield out
    for lvl in ("l1", "l2", "l3"):
        level = doc.get(lvl)
        if not level:
            continue
        if level.get("write_policy") == "write-through":
            out = dict(doc)
            out[lvl] = dict(level, write_policy="write-back")
            yield out
        if level.get("replacement", "lru") != "lru":
            out = dict(doc)
            out[lvl] = dict(level, replacement="lru")
            yield out
        if level["sets"] > 1:
            out = dict(doc)
            out[lvl] = dict(level, sets=level["sets"] // 2)
            yield out
        if level["ways"] > 1:
            out = dict(doc)
            out[lvl] = dict(level, ways=level["ways"] // 2)
            yield out
