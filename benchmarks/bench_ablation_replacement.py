"""Extension — cache replacement-policy ablation.

The paper's block-size constraints (15)/(17)/(18) lean on the caches
being LRU. Replaying the GEBP access stream against LRU, tree-PLRU and
random L1 replacement shows two things:

- with the kernel's prefetchers active, the policy is nearly irrelevant
  (the spread is a fraction of a point) — the streaming design is robust;
- with prefetching disabled, the bare streams are *LRU-hostile* (cyclic
  reuse of the B sliver is the textbook LRU worst case), and random
  replacement actually edges out LRU by keeping a residual fraction of
  the sliver resident.

Runs standalone (``python bench_ablation_replacement.py`` prints the
exhibit exactly as committed in ``results/ablation_replacement.txt``,
which CI diffs against) or under pytest-benchmark with the rest of the
harness.
"""

import dataclasses

from conftest import save_report

from repro.analysis import format_table
from repro.arch import XGENE, ReplacementPolicy
from repro.blocking import solve_cache_blocking
from repro.kernels import KERNEL_8X6
from repro.memory import MemoryHierarchy
from repro.sim import simulate_gebp_cache


def _chip_with_policy(policy: ReplacementPolicy):
    l1 = dataclasses.replace(XGENE.l1d, replacement=policy)
    return dataclasses.replace(XGENE, l1d=l1)


def run_ablation():
    blk = solve_cache_blocking(XGENE, 8, 6)
    rows = []
    for prefetch in (True, False):
        for policy in (ReplacementPolicy.LRU, ReplacementPolicy.PLRU,
                       ReplacementPolicy.RANDOM):
            chip = _chip_with_policy(policy)
            res = simulate_gebp_cache(
                KERNEL_8X6,
                blk,
                chip=chip,
                hierarchy=MemoryHierarchy(chip, seed=0),
                prefetch=prefetch,
                hw_late=0.25 if prefetch else 1.0,
            )
            rows.append(
                (
                    "on" if prefetch else "off",
                    policy.value,
                    res.l1_load_miss_rate,
                )
            )
    return rows


def format_ablation(rows) -> str:
    return format_table(
        ["prefetch", "L1 replacement", "L1 load miss rate %"],
        [[pf, p, r * 100] for pf, p, r in rows],
        title="Replacement-policy ablation (8x6 GEBP, derived blocking)",
    )


def check_ablation(rows) -> None:
    rates = {(pf, p): r for pf, p, r in rows}
    # Prefetching makes the policy nearly irrelevant.
    on = [rates[("on", p.value)] for p in ReplacementPolicy]
    assert max(on) - min(on) < 0.01
    # Bare streaming is LRU-hostile: random does not lose to LRU.
    assert rates[("off", "random")] <= rates[("off", "lru")] + 1e-9
    # And prefetching is worth ~5x either way.
    assert rates[("off", "lru")] > 4 * rates[("on", "lru")]


def test_ablation_replacement(benchmark, report_dir):
    rows = benchmark(run_ablation)
    save_report(report_dir, "ablation_replacement", format_ablation(rows))
    check_ablation(rows)


def main() -> int:
    rows = run_ablation()
    print(format_ablation(rows))
    check_ablation(rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
