"""GPM behaviour tests on a small fully-wired wafer.

These drive single GPMs through a real WaferScaleGPU (3x3, baseline
policy) so message plumbing, merging, and data access paths are exercised
without a workload generator.
"""

import pytest

from repro.core.request import ServedBy
from repro.mem.allocator import PageAllocator
from repro.mem.page import PageTableEntry
from repro.system.wafer import WaferScaleGPU


@pytest.fixture
def wafer(small_system_config):
    return WaferScaleGPU(small_system_config)


def _install_pages(wafer, num_pages=32):
    allocator = PageAllocator(wafer.address_space, wafer.num_gpms)
    allocation = allocator.allocate_pages(num_pages)
    wafer.install_entries(allocator.materialize(allocation))
    return allocation


def _addr(wafer, vpn, offset=0):
    return vpn * wafer.address_space.page_size + offset


class TestLocalTranslation:
    def test_local_access_completes_without_iommu(self, wafer):
        allocation = _install_pages(wafer)
        gpm = wafer.gpms[0]
        local_vpn = next(
            v for v, owner in allocation.owner_of.items() if owner == 0
        )
        gpm.load_trace([_addr(wafer, local_vpn)])
        gpm.start()
        wafer.sim.run()
        assert gpm.finish_time is not None
        assert wafer.iommu.stat("requests") == 0
        assert gpm.served_by_counts.get(ServedBy.LOCAL_WALK) == 1

    def test_repeat_access_hits_tlb(self, wafer):
        allocation = _install_pages(wafer)
        gpm = wafer.gpms[0]
        local_vpn = next(
            v for v, owner in allocation.owner_of.items() if owner == 0
        )
        # Far-apart repeats so the second access probes after the first
        # translation completed.
        gpm.load_trace([_addr(wafer, local_vpn)] * 3, interval=2000, burst=1)
        gpm.start()
        wafer.sim.run()
        assert gpm.served_by_counts.get(ServedBy.LOCAL_L1, 0) >= 1


class TestRemoteTranslation:
    def test_remote_access_goes_to_iommu(self, wafer):
        allocation = _install_pages(wafer)
        gpm = wafer.gpms[0]
        remote_vpn = next(
            v for v, owner in allocation.owner_of.items() if owner == 5
        )
        gpm.load_trace([_addr(wafer, remote_vpn)])
        gpm.start()
        wafer.sim.run()
        assert wafer.iommu.stat("requests") == 1
        assert wafer.iommu.stat("walks") == 1
        assert gpm.served_by_counts.get(ServedBy.IOMMU) == 1
        assert gpm.finish_time is not None

    def test_concurrent_same_page_misses_merge(self, wafer):
        allocation = _install_pages(wafer)
        gpm = wafer.gpms[0]
        remote_vpn = next(
            v for v, owner in allocation.owner_of.items() if owner == 5
        )
        gpm.load_trace([_addr(wafer, remote_vpn, off) for off in (0, 64, 128)])
        gpm.start()
        wafer.sim.run()
        # One translation serves all three accesses.
        assert wafer.iommu.stat("requests") == 1
        assert gpm.stat("merged_misses") == 2
        assert gpm.stat("accesses_completed") == 3

    def test_mshr_capacity_stalls_excess_misses(self, wafer, tiny_gpm_config):
        allocation = _install_pages(wafer, num_pages=256)
        gpm = wafer.gpms[0]
        remote_vpns = [
            v for v, owner in allocation.owner_of.items() if owner != 0
        ]
        mshrs = tiny_gpm_config.l2_tlb.num_mshrs
        trace = [_addr(wafer, v) for v in remote_vpns[: mshrs + 8]]
        gpm.load_trace(trace, burst=64)
        gpm.start()
        wafer.sim.run()
        assert gpm.stat("mshr_stalls") > 0
        assert gpm.stat("accesses_completed") == len(trace)

    def test_rtt_recorded_for_remote(self, wafer):
        allocation = _install_pages(wafer)
        gpm = wafer.gpms[0]
        remote_vpn = next(
            v for v, owner in allocation.owner_of.items() if owner == 5
        )
        gpm.load_trace([_addr(wafer, remote_vpn)])
        gpm.start()
        wafer.sim.run()
        assert gpm.rtt_count == 1
        # At least two mesh traversals plus a walk.
        assert gpm.mean_rtt() >= wafer.config.iommu.walk_latency


class TestMSHRStallQueue:
    """A saturated L2 TLB MSHR file: stalled misses wait in a FIFO of
    per-VPN groups and are admitted once each, without a re-probe."""

    EXTRA = 4  # distinct VPNs beyond the MSHR count: these stall

    @pytest.fixture
    def saturated(self, wafer, tiny_gpm_config):
        """GPM 0 with a trace that oversubscribes its MSHRs.

        Every VPN is remote and filter-negative on GPM 0, so each one is
        a straight remote translation.  The trace is one access per
        distinct VPN, then repeats of the last two (which stall), all
        issued in the same cycle.  Returns ``(gpm, trace, vpns, log)``
        where ``log`` records stall order and remote-translation order.
        """
        allocation = _install_pages(wafer, num_pages=256)
        gpm = wafer.gpms[0]
        mshrs = tiny_gpm_config.l2_tlb.num_mshrs
        vpns = [
            v for v, owner in allocation.owner_of.items()
            if owner != 0 and not gpm.hierarchy.cuckoo.contains(v)
        ][: mshrs + self.EXTRA]
        repeats = vpns[-2:] * 2
        trace = [_addr(wafer, v) for v in vpns]
        trace += [_addr(wafer, v, 64) for v in repeats]
        assert len(trace) <= gpm.driver.max_outstanding
        log = {"stalled": [], "remote": []}
        miss, go_remote = gpm._translation_miss, gpm._go_remote

        def recording_miss(vaddr, vpn, needs_walk, epoch):
            was_stalled = vpn in gpm._stalled
            miss(vaddr, vpn, needs_walk, epoch)
            if not was_stalled and vpn in gpm._stalled:
                log["stalled"].append(vpn)

        def recording_go_remote(pending):
            log["remote"].append(pending.vpn)
            go_remote(pending)

        gpm._translation_miss = recording_miss
        gpm._go_remote = recording_go_remote
        gpm.load_trace(trace, burst=64)
        return gpm, trace, vpns, log

    @staticmethod
    def _l1_probes(gpm):
        l1 = gpm.hierarchy.l1_vector
        return l1.hits + l1.misses

    def test_each_access_probed_once_and_stalled_at_most_once(
        self, wafer, saturated
    ):
        gpm, trace, vpns, log = saturated
        gpm.start()
        wafer.sim.run()
        assert gpm.stat("accesses_completed") == len(trace)
        assert self._l1_probes(gpm) == len(trace)
        # One stall per stalled VPN: a repeat joins the group instead.
        assert log["stalled"] == vpns[-self.EXTRA:]
        assert gpm.stat("mshr_stalls") == self.EXTRA
        assert gpm.stat("merged_misses") == len(trace) - len(vpns)
        assert not gpm._stalled and not gpm._pending

    def test_fifo_admission_oldest_stall_goes_remote_first(
        self, wafer, saturated
    ):
        gpm, _trace, vpns, log = saturated
        gpm.start()
        wafer.sim.run()
        assert log["remote"] == vpns

    def test_repeats_of_a_stalled_vpn_cause_one_translation(
        self, wafer, saturated
    ):
        gpm, trace, vpns, log = saturated
        gpm.start()
        wafer.sim.run()
        assert sorted(log["remote"]) == sorted(vpns)
        assert gpm.stat("remote_translations") == len(vpns)
        assert wafer.iommu.stat("requests") == len(vpns)
        assert gpm.served_by_counts.get(ServedBy.IOMMU) == len(vpns)

    def test_push_for_stalled_vpn_completes_group_without_remote(
        self, wafer, saturated
    ):
        gpm, trace, vpns, log = saturated
        target = vpns[-1]  # stalled, with two repeats in its group
        entry = wafer.iommu.page_table.walk(target)

        def push_once_stalled():
            if target in gpm._stalled:
                gpm.accept_pte_push(entry.copy_for_push(True))
            elif not gpm.driver.drained:
                wafer.sim.schedule(1, push_once_stalled)

        gpm.start()
        wafer.sim.schedule(1, push_once_stalled)
        wafer.sim.run()
        assert target in log["stalled"]
        assert target not in log["remote"]
        assert gpm.served_by_counts.get(ServedBy.PROACTIVE) == 1
        assert wafer.iommu.stat("requests") == len(vpns) - 1
        assert gpm.stat("accesses_completed") == len(trace)
        assert self._l1_probes(gpm) == len(trace)

    def test_halt_with_stalled_groups_then_resume(self, wafer, saturated):
        gpm, trace, _vpns, _log = saturated
        resumed = []

        def halt_once_stalled():
            if gpm._stalled:
                gpm.halt()
                assert not gpm._stalled and not gpm._pending
                wafer.sim.schedule(2000, lambda: resumed.append(True))
                wafer.sim.schedule(2000, gpm.resume)
            elif not gpm.driver.drained:
                wafer.sim.schedule(1, halt_once_stalled)

        gpm.start()
        wafer.sim.schedule(1, halt_once_stalled)
        wafer.sim.run()
        assert resumed
        assert gpm.stat("halt_abandoned_accesses") == len(trace)
        # Every access completes exactly once after the re-issue.
        assert gpm.stat("accesses_completed") == len(trace)
        assert gpm.driver.drained and gpm.finish_time is not None
        assert self._l1_probes(gpm) == 2 * len(trace)
        assert not gpm._stalled and not gpm._pending


class TestPtePush:
    def test_push_satisfies_waiting_request(self, wafer):
        _install_pages(wafer)
        gpm = wafer.gpms[0]
        entry = wafer.iommu.page_table.walk(
            next(iter(wafer.iommu.page_table)).vpn
        )
        # Create a pending remote translation, then deliver a push for it
        # before the IOMMU responds.
        remote_entry = PageTableEntry(vpn=9999, pfn=1, owner_gpm=5)
        wafer.iommu.page_table.insert(remote_entry)
        gpm.load_trace([_addr(wafer, 9999)])
        gpm.start()
        wafer.sim.schedule(
            40, lambda: gpm.accept_pte_push(remote_entry.copy_for_push(True))
        )
        wafer.sim.run()
        assert gpm.served_by_counts.get(ServedBy.PROACTIVE) == 1
        assert entry is not None  # page table sanity

    def test_unsolicited_push_installs_quietly(self, wafer):
        gpm = wafer.gpms[0]
        entry = PageTableEntry(vpn=777, pfn=2, owner_gpm=3)
        gpm.accept_pte_push(entry)
        assert gpm.stat("pte_pushes_received") == 1
        assert gpm.hierarchy.probe_remote(777).entry is not None


class TestPeerProbe:
    def test_probe_miss_returns_none(self, wafer):
        gpm = wafer.gpms[0]
        results = []
        gpm.serve_peer_probe(4242, results.append)
        wafer.sim.run()
        assert results == [None]

    def test_probe_hit_on_cached_entry(self, wafer):
        gpm = wafer.gpms[0]
        entry = PageTableEntry(vpn=11, pfn=1, owner_gpm=5)
        gpm.hierarchy.install_cached_remote(entry)
        results = []
        gpm.serve_peer_probe(11, results.append)
        wafer.sim.run()
        assert results and results[0].vpn == 11

    def test_owner_probe_walks_local_table(self, wafer):
        allocation = _install_pages(wafer)
        gpm = wafer.gpms[3]
        own_vpn = next(
            v for v, owner in allocation.owner_of.items() if owner == 3
        )
        results = []
        gpm.serve_peer_probe(own_vpn, results.append)
        wafer.sim.run()
        assert results and results[0].vpn == own_vpn
        assert gpm.gmmu.completed == 1

    def test_probe_port_contention_counted(self, wafer):
        gpm = wafer.gpms[0]
        for _ in range(5):
            gpm.serve_peer_probe(4242, lambda e: None)
        wafer.sim.run()
        assert gpm.stat("probe_port_wait_cycles") > 0


class TestDataPath:
    def test_remote_data_access_round_trip(self, wafer):
        allocation = _install_pages(wafer)
        gpm = wafer.gpms[0]
        remote_vpn = next(
            v for v, owner in allocation.owner_of.items() if owner == 7
        )
        gpm.load_trace([_addr(wafer, remote_vpn)])
        gpm.start()
        wafer.sim.run()
        assert gpm.stat("remote_data_accesses") == 1
        assert gpm.stat("accesses_completed") == 1

    def test_second_access_hits_local_l2_cache(self, wafer):
        allocation = _install_pages(wafer)
        gpm = wafer.gpms[0]
        remote_vpn = next(
            v for v, owner in allocation.owner_of.items() if owner == 7
        )
        gpm.load_trace([_addr(wafer, remote_vpn)] * 2, interval=5000, burst=1)
        gpm.start()
        wafer.sim.run()
        assert gpm.stat("remote_data_accesses") == 1  # second is an L2 hit
        assert gpm.l2_data.hits == 1
