"""Extension — empirical auto-tuning (the paper's future-work item).

The simulator-driven search must land on (or tie with) the analytic
derivation, empirically confirming the theory-guided choice of
8x6 / 512x56x1920.
"""

from conftest import save_report

from repro.analysis import format_table
from repro.arch import XGENE
from repro.blocking import solve_cache_blocking
from repro.tune import autotune_ablation


def test_ablation_autotune(benchmark, report_dir):
    results = benchmark(autotune_ablation)
    text = format_table(
        ["rank", "tile", "kc x mc x nc", "efficiency %"],
        [
            [i + 1, f"{c.mr}x{c.nr}", str(c.blocking()), eff * 100]
            for i, (c, eff) in enumerate(results[:8])
        ],
        title="Auto-tuning ablation: simulator-scored block-size search",
    )
    save_report(report_dir, "ablation_autotune", text)

    analytic = solve_cache_blocking(XGENE, 8, 6, threads=1)
    best, _ = results[0]
    assert (best.mr, best.nr) == (8, 6)
    assert best.blocking() == analytic
