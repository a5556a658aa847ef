"""The kernel-synthesis autotuner: space, evaluators, memo and search.

Covers the enumerator invariants (deduplication, register-file
feasibility, compilability of every enumerated code shape's spec, one
canonical enumeration order), the auto-tuning ablation's grid (81
blockings scored once, the analytic answer first), the two-stage
search's pinned headline (the X-Gene winner is the paper's 8x6 kernel at
512x56x1920, found through the timed stage overruling the analytic
model's 6x8 preference), and the content-hash memoization (warm replays
are bit-identical and compute nothing).
"""

import json

import pytest

from repro.blocking.register_blocking import RegisterBlockingProblem
from repro.arch.presets import XGENE
from repro.errors import BlockingError
from repro.kernels import compilability, generate_kernel
from repro.kernels.kernel_spec import KernelSpec
from repro.serve.store import ResultStore
from repro.tune import (
    Candidate,
    autotune_ablation,
    enumerate_candidates,
    eval_key,
    timed_eval,
    tune_search,
)
from repro.tune.space import candidate_tiles, neighborhood

SMOKE = dict(machine="xgene", max_tiles=2, top_k=12, radius=1, bodies=2)


def _strip_memo(result):
    doc = dict(result)
    doc.pop("memo")
    return json.dumps(doc, sort_keys=True)


class TestCandidateTiles:
    def test_deduplicated(self):
        tiles = candidate_tiles(XGENE)
        assert len(tiles) == len(set(tiles))

    def test_best_tile_first(self):
        assert candidate_tiles(XGENE, 1) == [(8, 6)]

    def test_codegen_filter_drops_unrealizable_tiles(self):
        # 12x4 and 4x12 satisfy eq. (9) but their C tile leaves no room
        # for the rotation pool in the 32-register file.
        problem = RegisterBlockingProblem.from_core(XGENE.core)
        feasible = {(t.mr, t.nr) for t in problem.feasible_tiles()}
        realizable = candidate_tiles(XGENE)
        assert (12, 4) in feasible and (12, 4) not in realizable
        nf = XGENE.core.fp_registers
        for mr, nr in realizable:
            assert KernelSpec(mr, nr).fits_register_file(nf)

    def test_neighborhood_dedupes_floored_values(self):
        # Both value-step and value floor to the same multiple.
        values = neighborhood(64, 128, 64)
        assert len(values) == len(set(values))
        assert values[0] == 64
        assert neighborhood(512, 128, 64, radius=0) == [512]
        with pytest.raises(BlockingError):
            neighborhood(512, 128, 64, radius=-1)


@pytest.fixture(scope="module")
def ablation():
    return autotune_ablation()


class TestAutotuneDedup:
    def test_counting_evaluator_sees_no_repeats(self, ablation):
        # The exhibit's grid: three realizable tiles x a 3x3x3 blocking
        # neighborhood, each blocking scored exactly once.
        blockings = [c.blocking() for c, _eff in ablation]
        assert len(blockings) == len(set(blockings)) == 81
        assert {(c.mr, c.nr) for c, _eff in ablation} == {
            (8, 6), (6, 8), (6, 6)
        }

    def test_winner_unchanged_by_refactor(self, ablation):
        best, _eff = ablation[0]
        assert (best.mr, best.nr) == (8, 6)
        assert str(best.blocking()) == "8x6x512x56x1920"
        effs = [eff for _c, eff in ablation]
        assert effs == sorted(effs, reverse=True)
        # Rank 8 is a three-way nc tie; canonical order ranks the
        # analytic centre first.
        assert str(ablation[7][0].blocking()) == "6x8x384x72x2560"
        assert ablation[7][1] == ablation[8][1] == ablation[9][1]


class TestEnumerator:
    def test_deterministic_canonical_order(self):
        a = enumerate_candidates(max_tiles=3)
        assert a == enumerate_candidates(max_tiles=3)
        first = a[0]
        assert (first.mr, first.nr, first.rotation, first.schedule) == (
            8, 6, "solved", "earliest"
        )
        assert str(first.blocking()) == "8x6x512x56x1920"

    def test_seed_permutes_but_preserves_the_set(self):
        # The search shuffles its candidates by seed; what it searches
        # and what it finds do not depend on the order.
        a = tune_search(store=None, seed=0, **SMOKE)
        b = tune_search(store=None, seed=7, **SMOKE)
        assert a["space"] == b["space"]
        assert a["winner"]["candidate"] == b["winner"]["candidate"]

    def test_candidates_unique(self):
        cands = enumerate_candidates(max_tiles=3)
        assert len(cands) == len(set(cands))

    def test_register_file_feasibility(self):
        problem = RegisterBlockingProblem.from_core(XGENE.core)
        feasible = {(t.mr, t.nr) for t in problem.feasible_tiles()}
        nf = XGENE.core.fp_registers
        for cand in enumerate_candidates(max_tiles=4):
            assert (cand.mr, cand.nr) in feasible
            assert cand.spec().fits_register_file(nf)

    def test_every_enumerated_spec_compiles(self):
        # Every distinct kernel shape the enumerator emits must generate
        # a compilable kernel via its default path (individual
        # rotation/schedule variants may still be unschedulable; the
        # evaluator records those as infeasible).
        specs = {(c.mr, c.nr, c.rotated)
                 for c in enumerate_candidates(max_tiles=3)}
        for mr, nr, rotated in sorted(specs):
            kernel = generate_kernel(KernelSpec(mr, nr, rotated=rotated))
            assert compilability(kernel) is None

    def test_rotation_gates(self):
        cands = enumerate_candidates(max_tiles=3)
        by_tile = {}
        for c in cands:
            by_tile.setdefault((c.mr, c.nr), set()).add(c.rotation)
        # 6x6 has a 7-slot pool: no Table I paper cycle exists for it.
        assert "paper" not in by_tile[(6, 6)]
        assert "paper" in by_tile[(8, 6)]


class TestTimedEval:
    def test_unschedulable_variant_reports_infeasible(self):
        # The naive ring cycle leaves no load window for 8x6 under the
        # earliest strategy; the evaluator must degrade to a record, not
        # an exception.
        doc = {"mr": 8, "nr": 6, "rotation": "ring",
               "schedule": "earliest", "bodies": 1, "na": 1, "nb": 1,
               "hw_late": 0.25, "seed": 0}
        stats = timed_eval(XGENE, doc)
        assert stats["feasible"] is False
        assert "window" in stats["reason"]

    def test_eval_key_is_content_addressed(self):
        doc = {"stage": "timed", "mr": 8, "nr": 6}
        assert eval_key(doc) == eval_key(dict(doc))
        assert eval_key(doc) != eval_key({**doc, "mr": 6})


class TestTuneSearch:
    def test_rediscovers_the_paper_kernel(self, tmp_path):
        store = ResultStore(tmp_path / "memo")
        result = tune_search(store=store, **SMOKE)
        winner = result["winner"]["candidate"]
        assert (winner["mr"], winner["nr"]) == (8, 6)
        assert winner["kc"] == 512
        assert winner["rotation"] == "solved"
        assert winner["schedule"] == "earliest"
        # The analytic model alone prefers 6x8; the timed stage flips it.
        ranked_analytic = max(
            result["top"], key=lambda e: e["analytic"]["efficiency"]
        )
        assert ranked_analytic["candidate"]["mr"] == 6
        assert (result["winner"]["timed"]["efficiency"]
                > ranked_analytic["timed"]["efficiency"])

    def test_pruning_floor(self, tmp_path):
        store = ResultStore(tmp_path / "memo")
        result = tune_search(store=store, **SMOKE)
        assert result["stats"]["prune_ratio"] >= 5.0
        assert (result["space"]["timed_variants"]
                < result["space"]["enumerated"] / 5)

    def test_warm_replay_is_bit_identical_and_computes_nothing(
        self, tmp_path
    ):
        store = ResultStore(tmp_path / "memo")
        cold = tune_search(store=store, **SMOKE)
        warm = tune_search(store=store, **SMOKE)
        assert _strip_memo(cold) == _strip_memo(warm)
        for stage in ("analytic", "timed"):
            assert cold["memo"][stage]["hits"] == 0
            assert warm["memo"][stage]["misses"] == 0
            assert warm["memo"][stage]["stored"] == 0
            assert (warm["memo"][stage]["hits"]
                    == cold["memo"][stage]["misses"])

    def test_pool_dispatch_matches_inline(self, tmp_path):
        from repro.gemm.pool import WorkerPool

        inline = tune_search(store=None, **SMOKE)
        pool = WorkerPool(2)
        try:
            pooled = tune_search(store=None, pool=pool, **SMOKE)
        finally:
            pool.close()
        assert _strip_memo(inline) == _strip_memo(pooled)

    def test_failing_evaluation_propagates(self, tmp_path, monkeypatch):
        def boom(chip, doc):
            raise ValueError("analytic model failed")

        monkeypatch.setattr("repro.tune.search.analytic_eval", boom)
        with pytest.raises(ValueError, match="analytic model failed"):
            tune_search(store=ResultStore(tmp_path / "memo"), **SMOKE)

    def test_unwritable_store_still_tunes(self, tmp_path):
        """Every put fails when the store's root is a file: the search
        returns the store-free result and reports nothing stored."""
        root = tmp_path / "memo"
        root.write_text("not a directory")
        result = tune_search(store=ResultStore(root), **SMOKE)
        assert _strip_memo(result) == _strip_memo(
            tune_search(store=None, **SMOKE))
        for stage in ("analytic", "timed"):
            assert result["memo"][stage]["misses"] > 0
            assert result["memo"][stage]["stored"] == 0

    def test_memoized_entries_are_valid_reports(self, tmp_path):
        from repro.obs import validate_report

        store = ResultStore(tmp_path / "memo")
        tune_search(store=store, **SMOKE)
        keys = list(store.keys())
        assert keys
        for key in keys:
            answer = store.get(key)
            assert answer is not None
            assert validate_report(answer) == []
            assert answer["created"] is None

    def test_guards(self):
        with pytest.raises(BlockingError):
            tune_search(problem_size=32)
        with pytest.raises(BlockingError):
            tune_search(top_k=0)
        with pytest.raises(BlockingError):
            enumerate_candidates(rotations=("spiral",))
        with pytest.raises(BlockingError):
            enumerate_candidates(schedules=("sometime",))


class TestCandidate:
    def test_doc_roundtrip_and_classes(self):
        cand = Candidate(mr=8, nr=6, rotation="solved",
                         schedule="earliest", kc=512, mc=56, nc=1920,
                         k1=1, k2=2, k3=1)
        assert cand.rotated is True
        assert cand.spec().mr == 8
        assert str(cand.blocking()) == "8x6x512x56x1920"
        assert cand.doc()["rotation"] == "solved"
        static = Candidate(mr=8, nr=6, rotation="static",
                           schedule="earliest", kc=512, mc=56, nc=1920,
                           k1=1, k2=2, k3=1)
        # Analytic classes split on the rotated bit, timed classes on
        # the full code shape.
        assert cand.analytic_class() != static.analytic_class()
        assert cand.timed_class() != static.timed_class()
