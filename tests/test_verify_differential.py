"""Differential regression pins for the non-LRU replacement policies.

The batched cache engine runs RANDOM and PLRU replacement through the
same per-access transition as scalar accesses, in program order, which
must preserve the victim draw order exactly: a seeded cache's sets share
one RNG stream, and an unseeded cache's sets each advance a counter into
one ``Random(0)`` victim sequence. LRU identity is property-tested
elsewhere, and the ``cache.policy`` oracle fuzzes these policies against
per-set models; these pins cover whole hierarchies. Each test runs the
full Table VII sweep (truncated to a thin ``nc_slice`` so it stays fast)
on a chip whose every level uses the policy, under three fixed seeds, and
requires the batched and scalar engines to agree bit-for-bit.
"""

import pytest

from repro.analysis.experiments import table7_miss_rates
from repro.arch.params import ReplacementPolicy
from repro.arch.presets import XGENE
from tests.helpers import with_replacement

SEEDS = (0, 1, 2)
NC_SLICE = 6


@pytest.mark.parametrize("policy", [
    ReplacementPolicy.RANDOM, ReplacementPolicy.PLRU,
], ids=lambda p: p.value)
@pytest.mark.parametrize("seed", SEEDS)
def test_table7_batched_matches_scalar(policy, seed):
    chip = with_replacement(XGENE, policy)
    batched = table7_miss_rates(
        chip=chip, engine="batched", seed=seed, nc_slice=NC_SLICE
    )
    scalar = table7_miss_rates(
        chip=chip, engine="scalar", seed=seed, nc_slice=NC_SLICE
    )
    assert batched == scalar


def test_random_seeds_actually_differ():
    # Guard against the seed being silently dropped: distinct seeds must
    # produce distinct RANDOM-replacement miss rates somewhere in the
    # sweep (if they never did, the three-seed pin above proves nothing).
    chip = with_replacement(XGENE, ReplacementPolicy.RANDOM)
    sweeps = [
        table7_miss_rates(chip=chip, engine="batched", seed=s,
                          nc_slice=NC_SLICE)
        for s in SEEDS
    ]
    assert len({tuple(rows) for rows in sweeps}) > 1


def test_plru_is_seed_independent():
    # PLRU is deterministic: the seed must not change its results.
    chip = with_replacement(XGENE, ReplacementPolicy.PLRU)
    first = table7_miss_rates(chip=chip, engine="batched", seed=0,
                              nc_slice=NC_SLICE)
    second = table7_miss_rates(chip=chip, engine="batched", seed=99,
                               nc_slice=NC_SLICE)
    assert first == second
