"""Tests for the set-associative TLB and MSHR file."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tlb.mshr import MSHRFile
from repro.tlb.tlb import SetAssociativeTLB


class TestTLBBasics:
    def test_miss_then_hit(self):
        tlb = SetAssociativeTLB("t", 4, 2)
        assert tlb.lookup(5) is None
        tlb.insert(5, "entry")
        assert tlb.lookup(5) == "entry"
        assert tlb.hits == 1 and tlb.misses == 1

    def test_lru_eviction_within_set(self):
        tlb = SetAssociativeTLB("t", 1, 2)
        tlb.insert(1, "a")
        tlb.insert(2, "b")
        tlb.lookup(1)  # refresh 1; 2 becomes LRU
        evicted = tlb.insert(3, "c")
        assert evicted == (2, "b")
        assert tlb.lookup(1) == "a"
        assert tlb.lookup(2) is None

    def test_insert_existing_updates_without_eviction(self):
        tlb = SetAssociativeTLB("t", 1, 2)
        tlb.insert(1, "a")
        tlb.insert(2, "b")
        assert tlb.insert(1, "a2") is None
        assert tlb.peek(1) == "a2"

    def test_set_indexing_isolates_sets(self):
        tlb = SetAssociativeTLB("t", 4, 1)
        tlb.insert(0, "s0")
        tlb.insert(1, "s1")
        assert tlb.peek(0) == "s0" and tlb.peek(1) == "s1"

    def test_peek_does_not_touch_lru_or_stats(self):
        tlb = SetAssociativeTLB("t", 1, 2)
        tlb.insert(1, "a")
        tlb.insert(2, "b")
        tlb.peek(1)  # must NOT refresh 1
        evicted = tlb.insert(3, "c")
        assert evicted == (1, "a")
        assert tlb.hits == 0 and tlb.misses == 0

    def test_invalidate(self):
        tlb = SetAssociativeTLB("t", 2, 2)
        tlb.insert(4, "x")
        assert tlb.invalidate(4)
        assert not tlb.invalidate(4)
        assert tlb.lookup(4) is None

    def test_flush(self):
        tlb = SetAssociativeTLB("t", 2, 2)
        for vpn in range(4):
            tlb.insert(vpn, vpn)
        assert tlb.flush() == 4
        assert tlb.occupancy == 0

    def test_capacity_and_occupancy(self):
        tlb = SetAssociativeTLB("t", 4, 4)
        assert tlb.capacity == 16
        for vpn in range(10):
            tlb.insert(vpn, vpn)
        assert tlb.occupancy == 10

    def test_hit_rate(self):
        tlb = SetAssociativeTLB("t", 2, 2)
        tlb.insert(1, "a")
        tlb.lookup(1)
        tlb.lookup(9)
        assert tlb.hit_rate() == pytest.approx(0.5)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeTLB("t", 0, 4)


class TestTLBProperties:
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, vpns):
        tlb = SetAssociativeTLB("t", 4, 4)
        for vpn in vpns:
            tlb.insert(vpn, vpn)
        assert tlb.occupancy <= tlb.capacity
        for set_ in tlb._sets:
            assert len(set_) <= tlb.num_ways

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_inserted_payload_is_returned_until_evicted(self, vpns):
        tlb = SetAssociativeTLB("t", 8, 4)
        for vpn in vpns:
            tlb.insert(vpn, ("payload", vpn))
        # Whatever survives must map to its own payload.
        for set_ in tlb._sets:
            for vpn, payload in set_.items():
                assert payload == ("payload", vpn)


class TestMSHR:
    def test_allocate_until_full(self):
        mshr = MSHRFile("m", 2)
        assert mshr.allocate(1)
        assert mshr.allocate(2)
        assert not mshr.allocate(3)
        assert mshr.stalls == 1

    def test_merge_same_vpn_even_when_full(self):
        mshr = MSHRFile("m", 1)
        mshr.allocate(1)
        assert mshr.allocate(1)  # merges, does not need a new register
        assert mshr.merges == 1
        assert mshr.waiters(1) == 2

    def test_release_returns_merged_count(self):
        mshr = MSHRFile("m", 2)
        mshr.allocate(5)
        mshr.allocate(5)
        assert mshr.release(5) == 2
        assert mshr.release(5) == 0

    def test_release_frees_register(self):
        mshr = MSHRFile("m", 1)
        mshr.allocate(1)
        mshr.release(1)
        assert mshr.allocate(2)

    def test_outstanding_listing(self):
        mshr = MSHRFile("m", 4)
        mshr.allocate(1)
        mshr.allocate(9)
        assert sorted(mshr.outstanding_vpns()) == [1, 9]
        assert mshr.occupancy == 2

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            MSHRFile("m", 0)
