"""Tests for the memory substrate: addresses, page tables, allocator, HBM."""

import pytest

from repro.errors import AddressError
from repro.mem.address import (
    PAGE_SIZE_4K,
    PAGE_SIZE_16K,
    PAGE_SIZE_64K,
    AddressSpace,
)
from repro.mem.allocator import PageAllocator
from repro.mem.hbm import HBMModel
from repro.mem.page import PageTableEntry
from repro.mem.page_table import (
    LEAF_LINE_SPAN,
    WALK_LEVELS,
    GlobalPageTable,
    LocalPageTable,
)


class TestAddressSpace:
    def test_vpn_and_offset(self):
        space = AddressSpace(PAGE_SIZE_4K)
        vaddr = 5 * 4096 + 123
        assert space.vpn_of(vaddr) == 5
        assert space.offset_of(vaddr) == 123

    def test_base_of_roundtrip(self):
        space = AddressSpace(PAGE_SIZE_16K)
        assert space.vpn_of(space.base_of(77)) == 77

    def test_pages_for_bytes_ceiling(self):
        space = AddressSpace(PAGE_SIZE_4K)
        assert space.pages_for_bytes(1) == 1
        assert space.pages_for_bytes(4096) == 1
        assert space.pages_for_bytes(4097) == 2

    def test_page_size_changes_vpn(self):
        vaddr = 100 * 4096
        assert AddressSpace(PAGE_SIZE_4K).vpn_of(vaddr) == 100
        assert AddressSpace(PAGE_SIZE_64K).vpn_of(vaddr) == 6

    def test_unsupported_page_size(self):
        with pytest.raises(AddressError):
            AddressSpace(5000)

    def test_negative_address_rejected(self):
        with pytest.raises(AddressError):
            AddressSpace().vpn_of(-1)


class TestPageTableEntry:
    def test_touch_increments_and_saturates(self):
        entry = PageTableEntry(vpn=1, pfn=2, owner_gpm=0)
        for _ in range(100):
            entry.touch()
        assert entry.access_count == 63

    def test_copy_for_push_preserves_mapping(self):
        entry = PageTableEntry(vpn=1, pfn=2, owner_gpm=3)
        entry.touch()
        copy = entry.copy_for_push(prefetched=True)
        assert (copy.vpn, copy.pfn, copy.owner_gpm) == (1, 2, 3)
        assert copy.prefetched
        assert not entry.prefetched

    def test_copy_is_independent(self):
        entry = PageTableEntry(vpn=1, pfn=2, owner_gpm=0)
        copy = entry.copy_for_push()
        copy.touch()
        assert entry.access_count == 0


class TestPageTables:
    def test_insert_and_walk(self):
        table = GlobalPageTable()
        table.insert(PageTableEntry(vpn=9, pfn=1, owner_gpm=0))
        assert table.walk(9).pfn == 1
        assert table.walk(10) is None

    def test_duplicate_insert_rejected(self):
        table = GlobalPageTable()
        table.insert(PageTableEntry(vpn=9, pfn=1, owner_gpm=0))
        with pytest.raises(AddressError):
            table.insert(PageTableEntry(vpn=9, pfn=2, owner_gpm=0))

    def test_remove(self):
        table = GlobalPageTable()
        table.insert(PageTableEntry(vpn=9, pfn=1, owner_gpm=0))
        table.remove(9)
        assert not table.contains(9)
        with pytest.raises(AddressError):
            table.remove(9)

    def test_local_table_enforces_ownership(self):
        table = LocalPageTable(gpm_id=2)
        with pytest.raises(AddressError):
            table.insert(PageTableEntry(vpn=1, pfn=0, owner_gpm=5))

    def test_insert_many_maps_a_batch(self):
        table = GlobalPageTable()
        table.insert_many(
            [PageTableEntry(vpn=vpn, pfn=vpn, owner_gpm=0) for vpn in (3, 4)]
        )
        assert [e.vpn for e in table] == [3, 4]

    @pytest.mark.parametrize("batch_vpns", [(5, 9), (5, 6, 5)])
    def test_insert_many_duplicate_maps_nothing(self, batch_vpns):
        # An already-mapped VPN (9) or one repeated inside the batch (5).
        table = GlobalPageTable()
        table.insert(PageTableEntry(vpn=9, pfn=1, owner_gpm=0))
        batch = [PageTableEntry(vpn=v, pfn=v, owner_gpm=0) for v in batch_vpns]
        with pytest.raises(AddressError, match="already mapped"):
            table.insert_many(batch)
        assert [e.vpn for e in table] == [9]

    def test_local_insert_many_enforces_ownership(self):
        table = LocalPageTable(gpm_id=2)
        batch = [
            PageTableEntry(vpn=1, pfn=0, owner_gpm=2),
            PageTableEntry(vpn=2, pfn=1, owner_gpm=5),
        ]
        with pytest.raises(AddressError, match="owned by GPM 5"):
            table.insert_many(batch)
        assert len(table) == 0

    def test_walk_depth_is_five_levels(self):
        assert GlobalPageTable().walk_depth(123) == WALK_LEVELS == 5

    def test_walk_range_skips_unmapped(self):
        table = GlobalPageTable()
        for vpn in (10, 12):
            table.insert(PageTableEntry(vpn=vpn, pfn=vpn, owner_gpm=0))
        entries = table.walk_range(10, 3)
        assert [e.vpn for e in entries] == [10, 12]

    def test_extra_leaf_lines(self):
        table = GlobalPageTable()
        # vpn 0 with 3 successors stays within one leaf line of span 8.
        assert table.extra_leaf_lines(0, 3) == 0
        # vpn 6 + 3 crosses into the next line.
        assert table.extra_leaf_lines(LEAF_LINE_SPAN - 2, 3) == 1

    def test_iteration_and_len(self):
        table = GlobalPageTable()
        for vpn in range(5):
            table.insert(PageTableEntry(vpn=vpn, pfn=vpn, owner_gpm=0))
        assert len(table) == 5
        assert {e.vpn for e in table} == set(range(5))


class TestPageAllocator:
    def _allocator(self, num_gpms=4):
        return PageAllocator(AddressSpace(PAGE_SIZE_4K), num_gpms)

    def test_even_contiguous_partitioning(self):
        allocator = self._allocator(4)
        allocation = allocator.allocate_pages(8)
        owners = [allocation.owner_of[v] for v in allocation.vpns()]
        assert owners == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_remainder_goes_to_first_gpms(self):
        allocator = self._allocator(4)
        allocation = allocator.allocate_pages(6)
        owners = [allocation.owner_of[v] for v in allocation.vpns()]
        assert owners == [0, 0, 1, 1, 2, 3]

    def test_allocations_do_not_overlap(self):
        allocator = self._allocator()
        first = allocator.allocate_pages(10)
        second = allocator.allocate_pages(10)
        assert first.end_vpn <= second.base_vpn

    def test_materialize_assigns_frames_per_gpm(self):
        allocator = self._allocator(2)
        entries = allocator.materialize(allocator.allocate_pages(4))
        by_owner = {}
        for entry in entries:
            by_owner.setdefault(entry.owner_gpm, []).append(entry.pfn)
        assert by_owner[0] == [0, 1]
        assert by_owner[1] == [0, 1]

    def test_owner_of_lookup(self):
        allocator = self._allocator(4)
        allocation = allocator.allocate_pages(8)
        assert allocator.owner_of(allocation.base_vpn) == 0
        assert allocator.owner_of(allocation.end_vpn - 1) == 3
        with pytest.raises(AddressError):
            allocator.owner_of(10_000)

    def test_allocate_bytes_rounds_up(self):
        allocator = self._allocator()
        allocation = allocator.allocate_bytes(4097)
        assert allocation.num_pages == 2

    def test_zero_allocation_rejected(self):
        with pytest.raises(AddressError):
            self._allocator().allocate_pages(0)

    def test_total_pages(self):
        allocator = self._allocator()
        allocator.allocate_pages(5)
        allocator.allocate_pages(7)
        assert allocator.total_pages == 12


class TestHBM:
    def test_access_latency(self):
        hbm = HBMModel(access_latency=100)
        assert hbm.access(now=0) == 100

    def test_bandwidth_serialization(self):
        hbm = HBMModel(bandwidth_bytes_per_sec=64e9, access_latency=10)
        first = hbm.access(0, size_bytes=64)
        second = hbm.access(0, size_bytes=64)
        assert first == 10
        assert second == 11  # one-cycle serialization behind the first

    def test_utilization(self):
        hbm = HBMModel(bandwidth_bytes_per_sec=64e9)
        hbm.access(0, size_bytes=640)
        assert hbm.utilization(now=100) == pytest.approx(0.1)

    def test_accounting(self):
        hbm = HBMModel()
        hbm.access(0)
        hbm.access(5)
        assert hbm.accesses == 2
        assert hbm.bytes_served == 128
