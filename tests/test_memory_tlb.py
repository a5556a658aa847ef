"""Direct unit tests for the fully-associative LRU TLB model."""

from repro.arch.params import TlbParams
from repro.arch.presets import XGENE
from repro.memory import MemoryHierarchy, Tlb


def make_tlb(entries=4, page_bytes=4096, penalty=30):
    return Tlb(TlbParams(
        entries=entries, page_bytes=page_bytes, miss_penalty_cycles=penalty,
    ))


class TestTlb:
    def test_cold_miss_then_hit(self):
        tlb = make_tlb()
        assert tlb.access_page(7) is False
        assert tlb.access_page(7) is True
        assert tlb.stats.accesses == 2
        assert tlb.stats.misses == 1
        assert tlb.stats.hits == 1

    def test_lru_eviction_order(self):
        tlb = make_tlb(entries=2)
        tlb.access_page(0)
        tlb.access_page(1)
        # Touch 0 so 1 becomes the LRU victim.
        assert tlb.access_page(0) is True
        tlb.access_page(2)  # evicts 1
        assert tlb.access_page(0) is True
        assert tlb.access_page(1) is False

    def test_capacity_is_bounded(self):
        tlb = make_tlb(entries=3)
        for page in range(10):
            tlb.access_page(page)
        # Only the last `entries` pages survive.
        assert tlb.access_page(7) is True
        assert tlb.access_page(8) is True
        assert tlb.access_page(9) is True
        assert tlb.access_page(6) is False

    def test_access_line_maps_to_pages(self):
        tlb = make_tlb(page_bytes=4096)
        line_bytes = 64
        # 64 consecutive 64-byte lines share one 4 KiB page.
        for line in range(64):
            tlb.access_line(line, line_bytes)
        assert tlb.stats.misses == 1
        assert tlb.access_line(64, line_bytes) is False  # next page

    def test_miss_rate(self):
        tlb = make_tlb()
        assert tlb.stats.miss_rate == 0.0
        tlb.access_page(0)
        tlb.access_page(0)
        tlb.access_page(0)
        tlb.access_page(0)
        assert tlb.stats.miss_rate == 0.25

    def test_reset_stats_keeps_translations(self):
        tlb = make_tlb()
        tlb.access_page(3)
        tlb.reset_stats()
        assert tlb.stats.accesses == 0
        assert tlb.access_page(3) is True


class TestTlbInHierarchy:
    def test_hierarchy_charges_miss_penalty(self):
        h = MemoryHierarchy(XGENE, with_tlb=True)
        res = h.access_line(0, 0)
        assert res.tlb_miss is True
        h2 = MemoryHierarchy(XGENE, with_tlb=False)
        res_no = h2.access_line(0, 0)
        assert (
            res.latency_cycles
            == res_no.latency_cycles + XGENE.tlb.miss_penalty_cycles
        )

    def test_tlbs_are_per_core(self):
        h = MemoryHierarchy(XGENE, with_tlb=True)
        h.access_line(0, 0)
        assert h.access_line(1, 0).tlb_miss is True  # core 1's TLB is cold
        assert h.tlbs[0].stats.accesses == 1
        assert h.tlbs[1].stats.accesses == 1
