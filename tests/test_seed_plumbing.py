"""One top-level seed must deterministically reach every RNG.

These tests pin the seed-plumbing contract end to end: the CLI ``--seed``
flags, the per-cache victim RNG derivation inside ``MemoryHierarchy``,
the per-oracle stream derivation inside the fuzzer, and the repeat-run
determinism of a whole ``run_suite`` sweep.
"""

import json

from repro.arch.params import ReplacementPolicy
from repro.arch.presets import XGENE
from repro.cli import main
from repro.memory.batch import BatchTrace
from repro.memory.hierarchy import MemoryHierarchy
from repro.verify import run_suite


def _random_chip():
    return XGENE.with_replacement(ReplacementPolicy.RANDOM)


def _thrash_trace(chip):
    # More distinct lines than the L1 holds, so RANDOM eviction fires.
    line = chip.l1d.line_bytes
    lines = 4 * chip.l1d.size_bytes // line
    rows = [(i * line, 8, 0, 1) for i in range(lines)] * 3
    return BatchTrace.from_rows(rows)


def _victim_fingerprint(seed):
    chip = _random_chip()
    h = MemoryHierarchy(chip, seed=seed)
    h.run_batch(0, _thrash_trace(chip))
    return tuple(
        (
            key,
            cache.stats.evictions,
            tuple(
                tuple(cache.set_contents(s))
                for s in range(cache.params.num_sets)
            ),
        )
        for key, cache in sorted(h.all_caches().items())
    )


class TestHierarchySeed:
    def test_same_seed_same_victims(self):
        assert _victim_fingerprint(3) == _victim_fingerprint(3)

    def test_different_seed_different_victims(self):
        assert _victim_fingerprint(3) != _victim_fingerprint(4)


class TestSuiteDeterminism:
    def test_repeat_run_is_identical(self):
        # The whole sweep document — every case of every oracle plus the
        # self-test — must be byte-identical across repeat runs in one
        # process and (via string-seeded RNGs) across processes.
        first = run_suite(seed=11, budget="smoke", suite="all")
        second = run_suite(seed=11, budget="smoke", suite="all")
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_seed_changes_the_sweep(self):
        a = run_suite(seed=0, budget="smoke", suite="lru", selftest=False)
        b = run_suite(seed=1, budget="smoke", suite="lru", selftest=False)
        assert json.dumps(a, sort_keys=True) != json.dumps(
            b, sort_keys=True
        )


class TestCliSeedFlags:
    def _report(self, tmp_path, name, argv):
        path = tmp_path / name
        assert main(argv + ["--json", str(path)]) == 0
        return json.loads(path.read_text())

    def test_cachesim_seed_reaches_the_hierarchy(self, tmp_path):
        argv = ["cachesim", "--kernel", "OpenBLAS-4x4", "--nc-slice", "4"]
        a = self._report(tmp_path, "a.json", argv + ["--seed", "0"])
        b = self._report(tmp_path, "b.json", argv + ["--seed", "0"])
        # XGENE is all-LRU so results match regardless; the pin here is
        # that the flag exists, lands in params, and the run reports are
        # reproducible under a fixed seed.
        assert a["params"]["seed"] == 0
        assert a["stats"] == b["stats"]

    def test_timed_seed_reaches_the_operands(self, tmp_path):
        argv = ["timed", "--kernel", "OpenBLAS-4x4", "--kc", "10"]
        a = self._report(tmp_path, "a.json", argv + ["--seed", "1"])
        b = self._report(tmp_path, "b.json", argv + ["--seed", "1"])
        c = self._report(tmp_path, "c.json", argv + ["--seed", "2"])
        assert a["stats"]["run"] == b["stats"]["run"]
        # Different operand seeds must change the computed C tile but
        # not the cycle count (timing is data-independent).
        assert a["stats"]["run"] != c["stats"]["run"]
        assert (a["stats"]["run"]["cycles"]
                == c["stats"]["run"]["cycles"])

    def test_verify_seed_lands_in_report(self, tmp_path):
        doc = self._report(
            tmp_path, "v.json",
            ["verify", "--suite", "lru", "--seed", "42",
             "--budget", "smoke"],
        )
        assert doc["params"]["seed"] == 42
        assert doc["stats"]["verify"]["seed"] == 42
