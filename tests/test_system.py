"""Wafer assembly and benchmark-runner tests."""

import pytest

from repro.config.hdpat import HDPATConfig
from repro.core.overhead import (
    equivalent_tlb_entries,
    redirection_table_overhead,
    sram_overhead,
)
from repro.core.request import ServedBy, TranslationRequest
from repro.errors import AddressError, ConfigurationError
from repro.mem.allocator import PageAllocator
from repro.mem.page import PageTableEntry
from repro.system.runner import run_benchmark
from repro.system.wafer import WaferScaleGPU


class TestWaferAssembly:
    def test_gpm_count_and_coordinates(self, small_system_config):
        wafer = WaferScaleGPU(small_system_config)
        assert wafer.num_gpms == 8
        assert wafer.iommu.coordinate == wafer.topology.cpu_coordinate
        for gpm in wafer.gpms:
            assert wafer.gpm_id_at(gpm.coordinate) == gpm.gpm_id

    def test_no_gpm_at_cpu_tile(self, small_system_config):
        wafer = WaferScaleGPU(small_system_config)
        with pytest.raises(ConfigurationError):
            wafer.gpm_id_at(wafer.topology.cpu_coordinate)

    def test_policy_bound_everywhere(self, small_system_config):
        wafer = WaferScaleGPU(small_system_config)
        assert wafer.policy.wafer is wafer
        assert wafer.iommu.policy is wafer.policy
        assert all(g.policy is wafer.policy for g in wafer.gpms)

    def test_layout_respects_mesh_size(self, small_system_config):
        wafer = WaferScaleGPU(small_system_config)
        # 3x3 has one complete ring even though HDPAT asks for C=2.
        assert wafer.layout.caching_rings == [1]

    def test_trace_count_validated(self, small_system_config):
        wafer = WaferScaleGPU(small_system_config)
        with pytest.raises(ConfigurationError):
            wafer.load_traces([[1], [2]])

    def test_execution_cycles_before_run(self, small_system_config):
        wafer = WaferScaleGPU(small_system_config)
        assert wafer.execution_cycles() == 0


class TestInstallEntries:
    def _installed(self, wafer):
        return (
            sorted(e.vpn for e in wafer.iommu.page_table),
            [sorted(e.vpn for e in g.hierarchy.page_table) for g in wafer.gpms],
            [len(g.hierarchy.cuckoo) for g in wafer.gpms],
        )

    def test_pages_land_with_their_owners(self, small_system_config):
        wafer = WaferScaleGPU(small_system_config)
        allocator = PageAllocator(wafer.address_space, wafer.num_gpms)
        allocation = allocator.allocate_pages(20)
        wafer.install_entries(allocator.materialize(allocation))
        vpns, local, filtered = self._installed(wafer)
        assert vpns == list(allocation.vpns())
        for gpm in wafer.gpms:
            owned = [
                vpn for vpn in allocation.vpns()
                if allocation.owner_of[vpn] == gpm.gpm_id
            ]
            assert local[gpm.gpm_id] == owned
            assert filtered[gpm.gpm_id] == len(owned)
            assert all(gpm.hierarchy.cuckoo.contains(vpn) for vpn in owned)

    def test_already_mapped_vpn_maps_nothing(self, small_system_config):
        wafer = WaferScaleGPU(small_system_config)
        allocator = PageAllocator(wafer.address_space, wafer.num_gpms)
        allocation = allocator.allocate_pages(16)
        wafer.install_entries(allocator.materialize(allocation))
        before = self._installed(wafer)
        fresh = PageTableEntry(vpn=allocation.end_vpn, pfn=99, owner_gpm=1)
        mapped = PageTableEntry(vpn=allocation.base_vpn, pfn=98, owner_gpm=1)
        with pytest.raises(AddressError, match="already mapped"):
            wafer.install_entries([fresh, mapped])
        assert self._installed(wafer) == before


class TestRequestRecord:
    def test_unique_ids_and_hash(self):
        a = TranslationRequest(1, 0, (0, 0), 0)
        b = TranslationRequest(1, 0, (0, 0), 0)
        assert a != b and hash(a) != hash(b)
        assert a == a

    def test_served_by_classification(self):
        assert ServedBy.LOCAL_L1.is_local
        assert not ServedBy.IOMMU.is_local
        assert ServedBy.PEER.is_distributed
        assert ServedBy.REDIRECT.is_distributed
        assert ServedBy.PROACTIVE.is_distributed
        assert not ServedBy.IOMMU.is_distributed


class TestRunner:
    def test_end_to_end_baseline_run(self, small_system_config):
        result = run_benchmark(small_system_config, "aes", scale=0.02, seed=1)
        assert result.workload == "aes"
        assert result.exec_cycles > 0
        assert result.extras["all_finished"]
        assert result.total_accesses == sum(
            1 for _ in range(result.total_accesses)
        )
        assert len(result.per_gpm_finish) == 8

    def test_gpm_finishing_at_cycle_zero_reports_zero(self, small_system_config):
        # Regression: ``finish_time or sim.now`` treated a legitimate
        # cycle-0 finish (empty trace slice drains immediately) as
        # "still running" and reported the wafer-wide end time instead.
        from repro.mem.allocator import PageAllocator
        from repro.system.runner import collect_result
        from repro.workloads.registry import get_workload

        workload = get_workload("aes")
        wafer = WaferScaleGPU(small_system_config)
        allocator = PageAllocator(wafer.address_space, wafer.num_gpms)
        trace = workload.generate(
            num_gpms=wafer.num_gpms, allocator=allocator, scale=0.02, seed=1
        )
        for allocation in allocator.allocations:
            wafer.install_entries(allocator.materialize(allocation))
        trace.per_gpm[0] = []  # this GPM drains at cycle 0
        wafer.load_traces(
            trace.per_gpm, burst=trace.burst, interval=trace.interval
        )
        wafer.run()
        result = collect_result(wafer, trace)
        assert result.exec_cycles > 0
        assert result.per_gpm_finish[0] == 0
        assert all(f > 0 for f in result.per_gpm_finish[1:])

    def test_workload_object_accepted(self, small_system_config):
        from repro.workloads.registry import get_workload

        result = run_benchmark(
            small_system_config, get_workload("bt"), scale=0.02, seed=1
        )
        assert result.workload == "bt"

    def test_hdpat_offloads_some_translations(self, small_hdpat_config):
        result = run_benchmark(small_hdpat_config, "pr", scale=0.05, seed=1)
        assert result.offload_fraction() > 0.0

    def test_buffer_sampling(self, small_system_config):
        result = run_benchmark(
            small_system_config, "spmv", scale=0.02, seed=1,
            sample_buffer_every=500,
        )
        assert result.buffer_series is not None
        assert len(result.buffer_series) > 0

    def test_speedup_over(self, small_system_config, small_hdpat_config):
        baseline = run_benchmark(small_system_config, "pr", scale=0.05, seed=1)
        hdpat = run_benchmark(small_hdpat_config, "pr", scale=0.05, seed=1)
        speedup = hdpat.speedup_over(baseline)
        assert speedup == pytest.approx(
            baseline.exec_cycles / hdpat.exec_cycles
        )

    def test_remote_breakdown_sums_to_one(self, small_hdpat_config):
        result = run_benchmark(small_hdpat_config, "spmv", scale=0.03, seed=1)
        assert sum(result.remote_breakdown().values()) == pytest.approx(1.0)

    def test_local_fraction_in_range(self, small_system_config):
        result = run_benchmark(small_system_config, "bt", scale=0.03, seed=1)
        assert 0.0 <= result.local_fraction() <= 1.0

    def test_analyzers_attached(self, small_system_config):
        result = run_benchmark(small_system_config, "fwt", scale=0.02, seed=1)
        analyzers = result.extras["iommu_analyzers"]
        assert analyzers["translation_counts"].total_requests == result.iommu_requests


class TestConservation:
    """Every issued access must complete exactly once, on every config."""

    @pytest.mark.parametrize("workload", ["aes", "pr", "mt", "spmv"])
    def test_accesses_conserved_baseline(self, small_system_config, workload):
        result = run_benchmark(small_system_config, workload, scale=0.02, seed=2)
        assert result.extras["all_finished"]

    @pytest.mark.parametrize("workload", ["aes", "pr", "mt", "spmv"])
    def test_accesses_conserved_hdpat(self, small_hdpat_config, workload):
        result = run_benchmark(small_hdpat_config, workload, scale=0.02, seed=2)
        assert result.extras["all_finished"]

    def test_iommu_requests_bounded_by_remote(self, small_system_config):
        result = run_benchmark(small_system_config, "spmv", scale=0.03, seed=2)
        # Baseline: every remote translation is one IOMMU request.
        assert result.iommu_requests == result.remote_translations


class TestOverheadModel:
    def test_matches_paper_design_point(self):
        estimate = redirection_table_overhead(1024)
        assert estimate.area_mm2 == pytest.approx(0.034, rel=0.15)
        assert estimate.power_w == pytest.approx(0.16, rel=0.15)
        assert estimate.area_fraction_of_host == pytest.approx(0.0002, rel=0.4)
        assert estimate.power_fraction_of_host == pytest.approx(0.0009, rel=0.4)

    def test_tlb_holds_roughly_half_the_entries(self):
        entries = equivalent_tlb_entries(1024)
        assert 400 <= entries <= 640

    def test_scaling_linear_in_entries(self):
        small = sram_overhead(512, 58)
        large = sram_overhead(1024, 58)
        assert large.area_mm2 == pytest.approx(2 * small.area_mm2)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sram_overhead(0, 58)
