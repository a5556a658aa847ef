"""Unit tests for the sequential hardware prefetcher and trace utilities."""

import random

import numpy as np
import pytest

from repro.arch import XGENE
from repro.errors import SimulationError
from repro.memory import (
    Access,
    DropPattern,
    MemoryHierarchy,
    SequentialPrefetcher,
    contiguous_trace,
    run_trace,
    strided_matrix_trace,
)
from repro.memory.prefetcher import drop_mask, sequential_installs


def _recording():
    """A prefetcher with late rate 0 whose installs land in a list."""
    installs = []
    return SequentialPrefetcher(
        0.0, lambda line, level: installs.append((line, level))
    ), installs


class TestSequentialPrefetcher:
    def test_covers_a_sequential_stream(self):
        h = MemoryHierarchy(XGENE)
        pf = SequentialPrefetcher(
            0.0, lambda line, level: h.prefetch_line(0, line, level)
        )
        misses = 0
        for ln in range(100):
            if h.access_line(0, ln).level_hit > 1:
                misses += 1
            pf.observe(ln, "S")
        # Only the first line (no prior observation) can miss.
        assert misses == 1

    def test_installs_the_next_line_into_l1(self):
        pf, installs = _recording()
        for ln in (10, 11, 12):
            pf.observe(ln, "S")
        assert installs == [(11, 1), (12, 1), (13, 1)]

    def test_late_rate_one_never_issues(self):
        installs = []
        pf = SequentialPrefetcher(
            1.0, lambda line, level: installs.append(line)
        )
        for ln in range(50):
            pf.observe(ln, "S")
        assert installs == []

    def test_same_line_does_not_retrigger(self):
        pf, installs = _recording()
        for _ in range(10):
            pf.observe(5, "S")
        assert installs == [(6, 1)]

    def test_streams_tracked_independently(self):
        pf, installs = _recording()
        pf.observe(1, "A")
        pf.observe(100, "B")
        pf.observe(1, "A")  # A has not moved: no retrigger
        pf.observe(2, "A")
        assert installs == [(2, 1), (101, 1), (3, 1)]

    def test_validation(self):
        with pytest.raises(SimulationError):
            SequentialPrefetcher(1.5, lambda line, level: None)
        with pytest.raises(SimulationError):
            DropPattern(-0.1)


class TestDropPattern:
    @pytest.mark.parametrize("rate", [0.0, 0.25, 0.5, 0.35, 1.0])
    def test_exact_rate_over_window(self, rate):
        d = DropPattern(rate)
        n = 1000
        drops = sum(d.dropped() for _ in range(n))
        assert drops == pytest.approx(rate * n, abs=1)

    def test_deterministic(self):
        a, b = DropPattern(0.3), DropPattern(0.3)
        assert [a.dropped() for _ in range(50)] == [
            b.dropped() for _ in range(50)
        ]


class TestTraceUtilities:
    def test_contiguous_trace_chunks(self):
        accs = list(contiguous_trace(0, 40))
        assert [a.address for a in accs] == [0, 16, 32]
        assert accs[-1].nbytes == 8

    def test_strided_trace_walks_columns(self):
        accs = list(strided_matrix_trace(0, rows=4, cols=2, ld=100))
        assert accs[0].address == 0
        # Second column starts at ld * 8 bytes.
        assert any(a.address == 800 for a in accs)

    def test_run_trace_counts_levels(self):
        h = MemoryHierarchy(XGENE)
        trace = list(contiguous_trace(0, 256))
        cost = run_trace(h, 0, trace)
        assert cost.accesses == len(trace)
        assert sum(cost.level_hits) == cost.accesses
        # Cold run: the 4 distinct lines miss to DRAM, the rest hit L1.
        assert cost.level_hits[3] == 4

    def test_run_trace_prefetch_access(self):
        h = MemoryHierarchy(XGENE)
        trace = [Access(0, 16, "prefetch", level=1), Access(0, 16, "load")]
        cost = run_trace(h, 0, trace)
        assert cost.accesses == 1  # prefetch not counted as demand
        assert cost.level_hits[0] == 1  # demand hits L1


class TestArrayForms:
    """``drop_mask`` and ``sequential_installs`` against the per-event
    ``DropPattern`` and ``SequentialPrefetcher`` they fold."""

    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.25, 0.35, 1 / 3, 1.0])
    def test_drop_mask_matches_the_pattern(self, rate):
        pattern = DropPattern(rate)
        expected = [pattern.dropped() for _ in range(3000)]
        # A short prefix first: the memo extends it, never recomputes.
        assert drop_mask(rate, 10).tolist() == expected[:10]
        assert drop_mask(rate, 3000).tolist() == expected
        assert drop_mask(rate, 0).size == 0

    def test_drop_mask_checks_the_rate(self):
        with pytest.raises(SimulationError):
            drop_mask(1.5, 4)

    @pytest.mark.parametrize("late", [0.0, 0.1, 0.25, 1.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_installs_match_the_prefetcher(self, late, seed):
        rng = random.Random(seed)
        n = rng.randint(0, 400)
        lines = [rng.randrange(12) for _ in range(n)]
        streams = [rng.choice((-1, 0, 1, 2, 5)) for _ in range(n)]
        merged = []
        pf = SequentialPrefetcher(
            late, lambda line, level: merged.append(("install", line))
        )
        for line, stream in zip(lines, streams):
            merged.append(("access", line))
            if stream >= 0:
                pf.observe(line, stream)
        installs, at = sequential_installs(
            np.array(lines, dtype=np.int64),
            np.array(streams, dtype=np.int64), late,
        )
        expected = [i for i, (what, _) in enumerate(merged)
                    if what == "install"]
        assert at.tolist() == expected
        assert installs.tolist() == [merged[i][1] for i in expected]
