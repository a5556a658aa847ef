"""Differential regression pins for the non-LRU replacement policies.

The batched cache engine decides RANDOM and PLRU batches with array
passes over runs in distinct sets, which must preserve the victim draw
order exactly: a seeded cache's sets share one RNG stream, and an
unseeded cache's sets each advance a counter into one ``Random(0)``
victim sequence. LRU identity is property-tested elsewhere, and the
``cache.policy`` oracle fuzzes these policies against per-set models;
these pins cover whole hierarchies: every level RANDOM (seeded and
unseeded), every level PLRU, and a mixed chip (PLRU L1, RANDOM L2, PLRU
L3). On each, the batched and scalar engines must agree on the full
Table VII sweep (truncated to a thin ``nc_slice`` so it stays fast), and
on a GEBP replay on the per-access levels and latencies and on every
cache's state.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.experiments import table7_miss_rates
from repro.arch.params import ReplacementPolicy
from repro.arch.presets import XGENE
from repro.blocking import solve_cache_blocking
from repro.kernels import KERNEL_8X6
from repro.memory import MemoryHierarchy
from repro.memory.trace import run_trace_levels
from repro.sim import gebp_traces

SEEDS = (0, 1, 2)
NC_SLICE = 6

RANDOM = ReplacementPolicy.RANDOM
PLRU = ReplacementPolicy.PLRU

CHIPS = {
    "random": XGENE.with_replacement(RANDOM),
    "plru": XGENE.with_replacement(PLRU),
    "mixed": dataclasses.replace(
        XGENE.with_replacement(PLRU),
        name=f"{XGENE.name}-mixed",
        l2=dataclasses.replace(XGENE.l2, replacement=RANDOM),
    ),
}

#: (chip, seed) pairs; ``None`` is the unseeded victim sequence.
CASES = (
    [("random", s) for s in SEEDS] + [("random", None)]
    + [("plru", s) for s in SEEDS]
    + [("mixed", s) for s in SEEDS] + [("mixed", None)]
)


def _table7_agrees(chip, seed):
    batched = table7_miss_rates(
        chip=chip, engine="batched", seed=seed, nc_slice=NC_SLICE
    )
    scalar = table7_miss_rates(
        chip=chip, engine="scalar", seed=seed, nc_slice=NC_SLICE
    )
    assert batched == scalar


@pytest.mark.parametrize("policy", [RANDOM, PLRU], ids=lambda p: p.value)
@pytest.mark.parametrize("seed", SEEDS)
def test_table7_batched_matches_scalar(policy, seed):
    _table7_agrees(CHIPS[policy.value], seed)


@pytest.mark.parametrize(
    "chip,seed", [("random", None), ("mixed", 0), ("mixed", None)],
    ids=["random-unseeded", "mixed-0", "mixed-unseeded"],
)
def test_table7_unseeded_and_mixed_batched_matches_scalar(chip, seed):
    _table7_agrees(CHIPS[chip], seed)


def _replay(chip, seed, batched):
    """Per-access ``(levels, latencies)`` of a GEBP replay, warm-up and
    main loop, and every cache's state after it."""
    blk = solve_cache_blocking(chip, 8, 6, threads=1)
    warm, main, _ = gebp_traces(KERNEL_8X6, blk, chip, nc_slice=NC_SLICE)
    h = MemoryHierarchy(chip, seed=seed)
    levels = []
    for trace in (warm, main):
        if batched:
            levels.append(h.run_batch_levels(0, trace))
        else:
            levels.append(run_trace_levels(h, 0, trace))
    states = {}
    for key, cache in h.all_caches().items():
        snap = cache.snapshot()
        # The coverage counters say which engine ran; nothing else may.
        del snap["batched_accesses"], snap["batched_fallback_accesses"]
        states[key] = snap
    return levels, states


@pytest.mark.parametrize(
    "chip,seed", CASES, ids=[f"{c}-{s}" for c, s in CASES]
)
def test_levels_and_cache_state_match_scalar(chip, seed):
    levels, states = _replay(CHIPS[chip], seed, batched=True)
    ref_levels, ref_states = _replay(CHIPS[chip], seed, batched=False)
    for (lv, lat), (ref_lv, ref_lat) in zip(levels, ref_levels):
        np.testing.assert_array_equal(lv, ref_lv)
        np.testing.assert_array_equal(lat, ref_lat)
    assert states.keys() == ref_states.keys()
    for key, snap in states.items():
        ref = ref_states[key]
        assert snap.keys() == ref.keys()
        for field, value in snap.items():
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(value, ref[field], err_msg=key)
            else:
                assert value == ref[field], (key, field)


def test_random_seeds_actually_differ():
    # Guard against the seed being silently dropped: distinct seeds must
    # produce distinct RANDOM-replacement miss rates somewhere in the
    # sweep (if they never did, the three-seed pin above proves nothing).
    sweeps = [
        table7_miss_rates(chip=CHIPS["random"], engine="batched", seed=s,
                          nc_slice=NC_SLICE)
        for s in SEEDS
    ]
    assert len({tuple(rows) for rows in sweeps}) > 1


def test_plru_is_seed_independent():
    # PLRU is deterministic: the seed must not change its results.
    first = table7_miss_rates(chip=CHIPS["plru"], engine="batched", seed=0,
                              nc_slice=NC_SLICE)
    second = table7_miss_rates(chip=CHIPS["plru"], engine="batched",
                               seed=99, nc_slice=NC_SLICE)
    assert first == second
