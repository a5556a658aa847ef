"""Asymmetric big.LITTLE support: clusters, weighted partitioning,
energy, and the bugfix sweep that rode along (pool-stats call counter,
executor validation shortcut, ``single_core`` field drops, preset-choice
drift)."""

import dataclasses
import threading

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.arch import (
    BIG_LITTLE,
    MOBILE_SOC,
    PRESETS,
    XGENE,
    ChipParams,
    CoreClusterParams,
    get_preset,
    preset_names,
)
from repro.blocking import CacheBlocking
from repro.blocking.cache_blocking import (
    solve_cache_blocking,
    solve_class_blockings,
)
from repro.errors import ArchitectureError, GemmError, SimulationError
from repro.gemm import GemmTrace, PoolStats, dgemm, parallel_dgemm
from repro.gemm.parallel import _thread_row_blocks, apportion_blocks
from repro.sim.asym import asym_exhibit, class_rates, partition_model
from repro.sim.energy import dgemm_energy
from repro.sim.gemm_sim import GemmSimulator
from tests.helpers import single_core

RNG = np.random.default_rng(4242)

SMALL_BLOCKING = CacheBlocking(
    mr=8, nr=6, kc=64, mc=24, nc=48, k1=1, k2=2, k3=1
)


def fmat(m, n):
    return np.asfortranarray(RNG.standard_normal((m, n)))


def scaled_chip(big_freq, little_freq):
    """A BIG_LITTLE variant with rescaled per-class clock rates."""
    big, little = BIG_LITTLE.clusters
    big = dataclasses.replace(
        big, core=dataclasses.replace(big.core, frequency_hz=big_freq)
    )
    little = dataclasses.replace(
        little,
        core=dataclasses.replace(little.core, frequency_hz=little_freq),
    )
    return dataclasses.replace(
        BIG_LITTLE, core=big.core, clusters=(big, little)
    )


class TestClusterModel:
    def test_big_little_shape(self):
        assert BIG_LITTLE.is_asymmetric
        assert [c.name for c in BIG_LITTLE.clusters] == ["big", "LITTLE"]
        assert sum(c.cores for c in BIG_LITTLE.clusters) == BIG_LITTLE.cores
        assert BIG_LITTLE.peak_flops == sum(
            c.peak_flops for c in BIG_LITTLE.clusters
        )

    def test_symmetric_chips_have_no_clusters(self):
        for chip in (XGENE, MOBILE_SOC):
            assert chip.clusters == ()
            assert not chip.is_asymmetric
            (synth,) = chip.core_clusters
            assert synth.name == "all"
            assert synth.cores == chip.cores
            assert synth.core == chip.core

    def test_thread_clusters_fill_in_declaration_order(self):
        assert list(BIG_LITTLE.thread_clusters(1)) == [0]
        assert list(BIG_LITTLE.thread_clusters(3)) == [0, 0, 1]
        assert list(BIG_LITTLE.thread_clusters(6)) == [0, 0, 1, 1, 1, 1]

    def test_cluster_view_is_symmetric(self):
        for index, cluster in enumerate(BIG_LITTLE.clusters):
            view = BIG_LITTLE.cluster_view(index)
            assert not view.is_asymmetric
            assert view.cores == cluster.cores
            assert view.core == cluster.core
            assert view.l3.shared_by == cluster.cores
            assert view.name == f"{BIG_LITTLE.name}:{cluster.name}"

    def test_cluster_core_sum_must_match(self):
        big, little = BIG_LITTLE.clusters
        with pytest.raises(ArchitectureError):
            dataclasses.replace(BIG_LITTLE, cores=5)

    def test_flat_fields_must_mirror_lead_cluster(self):
        big, little = BIG_LITTLE.clusters
        with pytest.raises(ArchitectureError):
            dataclasses.replace(BIG_LITTLE, core=little.core)

    def test_cluster_l2_sharing_must_match_module(self):
        big = BIG_LITTLE.clusters[0]
        with pytest.raises(ArchitectureError):
            dataclasses.replace(
                big, l2=dataclasses.replace(big.l2, shared_by=4)
            )


class TestWeightedPartition:
    @given(st.integers(0, 64), st.lists(
        st.floats(0.1, 16.0, allow_nan=False), min_size=1, max_size=8,
    ))
    @settings(max_examples=80)
    def test_apportion_conserves_blocks(self, count, weights):
        counts = apportion_blocks(count, weights)
        assert sum(counts) == count
        assert all(c >= 0 for c in counts)

    def test_apportion_is_proportional(self):
        assert apportion_blocks(6, [2.0, 1.0, 1.0]) == [3, 2, 1]
        assert apportion_blocks(8, [1.0, 1.0]) == [4, 4]

    def test_apportion_rejects_bad_weights(self):
        with pytest.raises(GemmError):
            apportion_blocks(4, [])
        with pytest.raises(GemmError):
            apportion_blocks(4, [1.0, -1.0])
        with pytest.raises(GemmError):
            apportion_blocks(4, [0.0, 0.0])

    @given(
        st.integers(1, 40), st.integers(2, 6),
        st.lists(st.sampled_from([1.0, 1.3, 2.0, 3.7, 8.0]),
                 min_size=2, max_size=6),
    )
    @settings(max_examples=80)
    def test_weighted_split_covers_every_block_once(
        self, blocks_m, threads, ratios
    ):
        weights = (ratios * threads)[:threads]
        mc = 8
        split = _thread_row_blocks(blocks_m * mc, mc, threads, weights)
        flat = sorted(b for run in split for b in run)
        assert flat == list(range(0, blocks_m * mc, mc))
        for run in split:
            # Weighted runs are contiguous (cache-friendly slabs).
            assert not run or run == list(
                range(run[0], run[0] + len(run) * mc, mc)
            )

    @given(
        st.integers(1, 60), st.integers(1, 40), st.integers(1, 70),
        st.sampled_from([1.0, 1.5, 2.4 / 1.3, 3.3, 8.0]),
        st.integers(2, 6), st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_weighted_parallel_bit_identical_to_serial(
        self, m, n, k, ratio, threads, seed
    ):
        chip = scaled_chip(int(1.3e9 * ratio), int(1.3e9))
        rng = np.random.default_rng(seed)
        a = np.asfortranarray(rng.standard_normal((m, k)))
        b = np.asfortranarray(rng.standard_normal((k, n)))
        c = np.asfortranarray(rng.standard_normal((m, n)))
        serial = dgemm(a, b, c.copy(order="F"), blocking=SMALL_BLOCKING,
                       alpha=1.25, beta=-0.5)
        weighted = parallel_dgemm(
            a, b, c.copy(order="F"), threads=threads,
            blocking=SMALL_BLOCKING, alpha=1.25, beta=-0.5,
            chip=chip, partition="weighted",
        )
        assert np.array_equal(serial, weighted)

    def test_auto_partition_goes_weighted_on_asym_chips(self):
        a, b, c = fmat(64, 32), fmat(32, 48), fmat(64, 48)
        trace = GemmTrace()
        stats = PoolStats()
        parallel_dgemm(a, b, c, threads=4, blocking=SMALL_BLOCKING,
                       chip=BIG_LITTLE, trace=trace, stats=stats)
        assert trace.thread_classes == {0: "big", 1: "big",
                                        2: "LITTLE", 3: "LITTLE"}
        assert set(trace.class_flops()) == {"big", "LITTLE"}
        assert stats.thread_class == trace.thread_classes

    def test_partition_name_is_validated(self):
        a, b, c = fmat(8, 8), fmat(8, 8), fmat(8, 8)
        with pytest.raises(GemmError):
            parallel_dgemm(a, b, c, threads=2, blocking=SMALL_BLOCKING,
                           partition="fastest")

    def test_symmetric_chip_defaults_to_round_robin(self):
        """``auto`` on a symmetric chip must not change the historical
        split (same thread gets the same interleaved blocks)."""
        a, b, c = fmat(97, 33), fmat(33, 50), fmat(97, 50)
        base = parallel_dgemm(a, b, c.copy(order="F"), threads=3,
                              blocking=SMALL_BLOCKING)
        auto = parallel_dgemm(a, b, c.copy(order="F"), threads=3,
                              blocking=SMALL_BLOCKING, chip=XGENE,
                              partition="auto")
        assert np.array_equal(base, auto)


class TestBugfixSweep:
    def test_record_call_is_atomic_under_threads(self):
        stats = PoolStats()
        n_threads, reps = 16, 500
        barrier = threading.Barrier(n_threads)

        def hammer():
            barrier.wait()
            for _ in range(reps):
                stats.record_call()

        workers = [threading.Thread(target=hammer)
                   for _ in range(n_threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert stats.calls == n_threads * reps

    def test_invalid_pool_rejected_even_inline(self):
        """threads=1 used to shortcut to the inline executor before
        validating ``pool``; bad arguments must fail loudly always."""
        a, b, c = fmat(8, 8), fmat(8, 8), fmat(8, 8)
        for threads in (1, 2):
            with pytest.raises(GemmError):
                parallel_dgemm(a, b, c.copy(order="F"), threads=threads,
                               blocking=SMALL_BLOCKING,
                               pool=123)
            with pytest.raises(GemmError):
                parallel_dgemm(a, b, c.copy(order="F"), threads=threads,
                               blocking=SMALL_BLOCKING,
                               pool="fork")

    @pytest.mark.parametrize("name", preset_names())
    def test_single_core_preserves_every_cache_field(self, name):
        """The private-view rebuild must carry every CacheParams field
        (it used to re-list them and silently drop new ones)."""
        chip = get_preset(name)
        solo = single_core(chip)
        pairs = [(chip.l1d, solo.l1d), (chip.l2, solo.l2)]
        if chip.l3 is not None:
            pairs.append((chip.l3, solo.l3))
        for original, rebuilt in pairs:
            for field in dataclasses.fields(original):
                expected = (1 if field.name == "shared_by"
                            else getattr(original, field.name))
                assert getattr(rebuilt, field.name) == expected

    def test_cli_choices_track_the_preset_registry(self):
        """The serve/tune/asym choice lists must derive from PRESETS —
        a new preset must never require editing cli.py."""
        import argparse

        from repro.cli import build_parser
        from repro.serve.presets import WARM_PRESETS
        from repro.serve.query import MACHINE_PRESETS

        assert MACHINE_PRESETS == preset_names()
        assert WARM_PRESETS == preset_names() + ("all",)
        parser = build_parser()
        (sub,) = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]

        def choices(command, flag):
            for action in sub.choices[command]._actions:
                if flag in action.option_strings:
                    return list(action.choices)
            raise AssertionError(f"{command} has no {flag}")

        assert choices("serve", "--warm") == list(preset_names()) + ["all"]
        assert choices("tune", "--machine") == list(preset_names())
        assert choices("asym", "--machine") == list(preset_names())


class TestEnergyModel:
    def test_simulate_reports_energy(self):
        for chip in (XGENE, BIG_LITTLE):
            perf = GemmSimulator(chip).simulate(
                "OpenBLAS-8x6", 256, 256, 256, threads=2
            )
            assert perf.joules > 0
            assert perf.gflops_per_watt > 0
            assert set(perf.energy_breakdown) == {
                "fma", "load", "miss", "idle"
            }
            assert perf.joules == pytest.approx(
                sum(perf.energy_breakdown.values())
            )

    def test_energy_rejects_nonpositive_cycles(self):
        with pytest.raises(SimulationError):
            dgemm_energy(XGENE, flops=1e6, l1_loads=1e5,
                         bytes_offchip=1e4, cycles=0)

    def test_idle_energy_charged_for_straggler_wait(self):
        est = dgemm_energy(
            XGENE, flops=1e9, l1_loads=1e8, bytes_offchip=1e6,
            cycles=1000, per_thread_cycles=[1000, 200],
        )
        assert est.breakdown["idle"] > 0

    def test_serve_answer_carries_energy_fields(self):
        from repro.serve.engine import compute_answer
        from repro.serve.query import query_key

        canonical, key = query_key(
            {"kind": "simulate", "machine": "big_little"}
        )
        perf = compute_answer(canonical, key)["stats"]["performance"]
        assert perf["joules"] > 0
        assert perf["gflops_per_watt"] > 0


class TestClassBlocking:
    def test_symmetric_chip_matches_flat_solver(self):
        flat = solve_cache_blocking(XGENE, 8, 6, threads=8)
        assert solve_class_blockings(XGENE, 8, 6, threads=8) == {
            "all": flat
        }

    def test_big_little_solves_per_class(self):
        per_class = solve_class_blockings(BIG_LITTLE, 8, 6, threads=6)
        assert set(per_class) == {"big", "LITTLE"}
        big, little = per_class["big"], per_class["LITTLE"]
        # The LITTLE L1/L2 are smaller: kc and mc must shrink with them.
        assert little.kc < big.kc
        assert little.mc < big.mc
        # nc comes from the shared L3: the LITTLE class's shallower kc
        # leaves room for proportionally more B-panel columns.
        assert little.nc > big.nc

    def test_thread_subset_only_solves_occupied_classes(self):
        per_class = solve_class_blockings(BIG_LITTLE, 8, 6, threads=2)
        assert set(per_class) == {"big"}


class TestExhibit:
    def test_weighted_beats_symmetric_at_full_size(self):
        doc = asym_exhibit(smoke=True)
        (entry,) = doc["sizes"]
        placements = entry["placements"]
        assert entry["weighted_speedup"] > 1.0
        assert (placements["all-weighted"]["gflops"]
                > placements["all-symmetric"]["gflops"])
        # The energy frontier: LITTLE-only wins Gflops/W, weighted
        # strictly improves both axes over the symmetric split.
        assert (placements["LITTLE-only"]["gflops_per_watt"]
                > placements["all-weighted"]["gflops_per_watt"])
        assert (placements["all-weighted"]["joules"]
                < placements["all-symmetric"]["joules"])

    def test_class_rates_order_big_over_little(self):
        rates = class_rates(BIG_LITTLE)
        assert rates["big"] > rates["LITTLE"]

    def test_symmetric_chip_degenerates_cleanly(self):
        doc = asym_exhibit(chip=XGENE, sizes=(1024,))
        assert list(doc["classes"]) == ["all"]
        assert doc["sizes"][0]["weighted_speedup"] == pytest.approx(1.0)

    def test_partition_model_conserves_slabs(self):
        out = partition_model(
            BIG_LITTLE, 4096, 4096, 4096,
            list(BIG_LITTLE.thread_clusters(6)), weighted=True,
        )
        assert sum(out["counts"]) == out["slabs"]
        assert sum(out["class_slabs"].values()) == out["slabs"]


class TestMachineDocRoundTrip:
    @pytest.mark.parametrize("name", preset_names())
    def test_presets_round_trip_through_machine_docs(self, name):
        from repro.verify.machines import build_chip, chip_doc

        chip = PRESETS[name]
        rebuilt = build_chip(chip_doc(chip))
        assert rebuilt.cores == chip.cores
        assert rebuilt.core == chip.core
        assert rebuilt.l1d == chip.l1d
        assert rebuilt.l2 == chip.l2
        assert rebuilt.l3 == chip.l3
        assert rebuilt.clusters == chip.clusters
        assert rebuilt.is_asymmetric == chip.is_asymmetric

    def test_random_asym_machines_validate_and_rebuild(self):
        import random

        from repro.verify.machines import build_chip, random_asym_machine

        rng = random.Random(7)
        for _ in range(20):
            chip = build_chip(random_asym_machine(rng))
            assert isinstance(chip, ChipParams)
            assert chip.is_asymmetric


class TestTlbSurfacing:
    def test_hierarchy_snapshot_flags_tlb_presence(self):
        from repro.memory.hierarchy import MemoryHierarchy
        from repro.obs import snapshot_hierarchy

        modeled = snapshot_hierarchy(
            MemoryHierarchy(XGENE, with_tlb=True, seed=0)
        )
        # The mobile preset omits the TLB on purpose: even when the
        # hierarchy asks for one, the report must say none was modeled.
        omitted = snapshot_hierarchy(
            MemoryHierarchy(MOBILE_SOC, with_tlb=True, seed=0)
        )
        disabled = snapshot_hierarchy(MemoryHierarchy(XGENE, seed=0))
        assert modeled["tlb_modeled"] is True
        assert omitted["tlb_modeled"] is False
        assert disabled["tlb_modeled"] is False
        assert "tlb" not in omitted and "tlb" not in disabled
