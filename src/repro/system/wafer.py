"""The assembled wafer-scale GPU.

Builds every component from a :class:`~repro.config.SystemConfig`, wires
the mesh handlers, binds the translation policy, and exposes the install /
load / run lifecycle the benchmark runner drives.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import groupby
from operator import attrgetter
from typing import Dict, List, Optional, Tuple, Union

from repro.config.system import SystemConfig
from repro.core.layers import ConcentricLayout
from repro.core.policy import TranslationPolicy, build_policy
from repro.errors import ConfigurationError
from repro.faults import FaultState
from repro.gpm.gpm import GPM
from repro.iommu.iommu import IOMMU
from repro.mem.address import AddressSpace
from repro.mem.page import PageTableEntry
from repro.noc.network import MeshNetwork
from repro.noc.topology import MeshTopology
from repro.obs import NULL_OBS, Observability
from repro.sim.engine import Simulator

Coordinate = Tuple[int, int]


class WaferScaleGPU:
    """A fully wired wafer: simulator, mesh, GPMs, IOMMU, and policy."""

    def __init__(
        self,
        config: SystemConfig,
        policy: Optional[TranslationPolicy] = None,
        obs: Optional[Observability] = None,
        sanitize: Union[bool, str] = False,
    ) -> None:
        self.config = config
        self.obs = obs if obs is not None else NULL_OBS
        self.sim = Simulator(profiler=self.obs.profiler, sanitize=sanitize)
        #: Per-subsystem wall-time attribution: the engine books dispatch,
        #: each instrumented component slices its own phase out of it.
        self.sim.phases = self.obs.phases
        self.topology = MeshTopology(config.mesh_width, config.mesh_height)
        #: Fault state derived from the config's plan; None (the common
        #: case) keeps every downstream component on its historical,
        #: byte-identical no-fault path.
        self.faults: Optional[FaultState] = (
            FaultState(config.faults, self.topology)
            if config.faults is not None and not config.faults.is_empty
            else None
        )
        if self.faults is not None:
            self.faults.phases = self.obs.phases
        self.network = MeshNetwork(
            self.sim,
            self.topology,
            link_latency=config.noc.link_latency,
            link_bandwidth_bytes_per_sec=config.noc.link_bandwidth,
            obs=self.obs,
            faults=self.faults,
        )
        self.address_space = AddressSpace(config.page_size)
        effective_layers = min(
            config.hdpat.num_layers, len(self.topology.complete_rings())
        )
        self.layout = ConcentricLayout(self.topology, effective_layers)
        self.policy = policy if policy is not None else build_policy(config.hdpat)
        iommu_config = config.iommu
        if self.policy.iommu_walk_latency_override is not None:
            iommu_config = replace(
                iommu_config,
                walk_latency=self.policy.iommu_walk_latency_override,
            )
        self.iommu = IOMMU(
            self.sim,
            self.topology.cpu_coordinate,
            iommu_config,
            config.hdpat,
            self.network,
            obs=self.obs,
        )
        self.gpms: List[GPM] = []
        self._gpm_id_at: Dict[Coordinate, int] = {}
        for gpm_id, tile in enumerate(self.topology.gpm_tiles):
            gpm = GPM(
                self.sim,
                gpm_id,
                tile.coordinate,
                config.gpm,
                self.address_space,
                self.network,
                obs=self.obs,
            )
            gpm.policy = self.policy
            gpm.hierarchy.phases = self.obs.phases
            gpm.iommu_coord = self.topology.cpu_coordinate
            gpm.on_finished = self._gpm_finished
            gpm.faults = self.faults
            self.gpms.append(gpm)
            self._gpm_id_at[tile.coordinate] = gpm_id
            # Dead GPMs are still constructed (stable gpm ids) but never
            # attached: a message routed at one raises DeadDestinationError
            # instead of silently disappearing into a handler.
            if self.faults is None or self.faults.gpm_alive(gpm_id):
                self.network.attach(tile.coordinate, gpm.handle_message)
        self.network.attach(
            self.topology.cpu_coordinate, self.iommu.handle_message
        )
        self.iommu.policy = self.policy
        self.policy.bind(self)
        self.migration = None
        if config.migration.enabled:
            from repro.system.migration import MigrationEngine

            self.migration = MigrationEngine(self.sim, self, config.migration)
            self.iommu.migration = self.migration
        #: Timeline replayer; present only when the plan schedules
        #: mid-run events.  Imported lazily (repro.faults.recovery pulls
        #: in repro.system.migration).
        self.recovery = None
        if self.faults is not None and self.faults.dynamic:
            from repro.faults.recovery import RecoveryManager

            self.recovery = RecoveryManager(
                self.sim, self, config.faults.timeline
            )
        self._finished: set = set()
        self._metrics_collected = False
        if self.obs.registry.enabled or self.obs.tracer.enabled:
            self._attach_depth_samplers()

    def _attach_depth_samplers(self) -> None:
        """Sample per-GPM outstanding-miss depth and IOMMU buffer pressure.

        Samples land in registry gauges (and, when tracing, as Chrome
        counter events) every ``obs.sample_period`` cycles.  All probes
        share ONE scheduled event: independent samplers would each see the
        others pending in the queue and reschedule forever, keeping the
        simulation alive after the workload drains.
        """
        tracer = self.obs.tracer if self.obs.tracer.enabled else None
        period = self.obs.sample_period
        probes = [
            (
                f"{gpm.name}.pending_depth",
                (lambda g=gpm: len(g._pending)),
                self.obs.registry.gauge(f"{gpm.name}.pending_depth"),
            )
            for gpm in self.gpms
        ]
        probes.append((
            "iommu.buffer_pressure",
            self.iommu.buffer_pressure,
            self.obs.registry.gauge("iommu.buffer_pressure"),
        ))

        def _tick() -> None:
            now = self.sim.now
            for name, probe, gauge in probes:
                value = probe()
                gauge.sample(now, value)
                if tracer is not None:
                    tracer.counter(now, name, track="depth", value=value)
            if self.sim.pending_events:
                self.sim.schedule(period, _tick)

        self.sim.schedule(period, _tick)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def num_gpms(self) -> int:
        return len(self.gpms)

    def gpm_id_at(self, coordinate: Coordinate) -> int:
        try:
            return self._gpm_id_at[coordinate]
        except KeyError:
            raise ConfigurationError(f"no GPM at {coordinate}") from None

    # ------------------------------------------------------------------
    # Memory setup
    # ------------------------------------------------------------------
    def install_entries(self, entries: List[PageTableEntry]) -> None:
        """Register PTEs with the global page table and their home GPMs.

        Pages owned by a fault-disabled GPM are remapped to a surviving
        one (deterministically, by id) before installation — the modelled
        runtime reassigns a dead module's memory at boot.  Installs in
        bulk: one global page-table batch, then one batch per run of
        pages with the same owner.  A VPN that is already mapped raises
        :class:`~repro.errors.AddressError` before anything is mapped.
        """
        self.iommu.page_table.insert_many(entries)
        faults = self.faults
        if faults is not None:
            for entry in entries:
                if not faults.gpm_alive(entry.owner_gpm):
                    entry.owner_gpm = faults.remap_owner(entry.owner_gpm)
                    faults.bump("remapped_pages")
        # The driver lays pages out in per-GPM runs.  A GPM's pages reach
        # it in entry order whether installed in one group or several.
        for owner, run in groupby(entries, key=attrgetter("owner_gpm")):
            self.gpms[owner].hierarchy.install_local_pages(list(run))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def load_traces(
        self,
        per_gpm_traces: List[List[int]],
        burst: int = None,
        interval: int = None,
    ) -> None:
        if len(per_gpm_traces) != self.num_gpms:
            raise ConfigurationError(
                f"expected {self.num_gpms} trace slices, "
                f"got {len(per_gpm_traces)}"
            )
        for gpm, trace in zip(self.gpms, per_gpm_traces):
            if self.faults is not None and not self.faults.gpm_alive(gpm.gpm_id):
                # A dead module executes nothing; its share of the workload
                # is simply lost (the degradation the ext_faults experiment
                # measures), and its empty trace drains immediately so the
                # wafer still reaches all_finished.
                trace = []
            gpm.load_trace(trace, burst=burst, interval=interval)

    def run(self, max_cycles: Optional[int] = None) -> int:
        """Start every GPM and run to completion; returns the final cycle."""
        self.sim.max_cycles = max_cycles
        for gpm in self.gpms:
            gpm.start()
        return self.sim.run()

    def _gpm_finished(self, gpm: GPM) -> None:
        self._finished.add(gpm.gpm_id)

    def note_gpm_killed(self, gpm: GPM) -> None:
        """A timeline kill: the module's remaining work is lost, so it
        counts as finished (PR 4's boot-dead semantics, applied mid-run)
        until a recovery resurrects it."""
        if gpm.finish_time is None:
            gpm.finish_time = self.sim.now
        self._finished.add(gpm.gpm_id)

    def note_gpm_recovered(self, gpm: GPM) -> None:
        """Undo the kill's finish bookkeeping when trace remains to run."""
        if not gpm.driver.drained:
            gpm.finish_time = None
            self._finished.discard(gpm.gpm_id)

    @property
    def all_finished(self) -> bool:
        return len(self._finished) >= self.num_gpms

    def execution_cycles(self) -> int:
        """Wall-clock of the slowest GPM (the workload's makespan)."""
        times = [g.finish_time for g in self.gpms if g.finish_time is not None]
        return max(times) if times else self.sim.now

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def collect_metrics(self) -> Dict[str, object]:
        """Fold every component's counters into the registry; snapshot it.

        Pull-based: plain ``Component.stats`` dicts cost nothing during the
        run and are merged once here, so the registry sees the same
        counters the result assembly reads, plus anything components
        pushed live (histograms, sampled gauges).  Idempotent.
        """
        registry = self.obs.registry
        if registry.enabled and not self._metrics_collected:
            self._metrics_collected = True
            for gpm in self.gpms:
                registry.merge_stats(gpm.name, gpm.stats)
                hierarchy = gpm.hierarchy
                registry.merge_stats(f"{gpm.name}.filter", {
                    "false_positives": hierarchy.false_positives,
                    "negatives": hierarchy.filter_negatives,
                    "remote_cached_vpns": hierarchy.remote_cached_vpns,
                })
                for level, tlb in hierarchy.tlb_levels().items():
                    registry.merge_stats(f"{gpm.name}.tlb.{level}", tlb.stats)
            registry.merge_stats("iommu", self.iommu.stats)
            registry.merge_stats("iommu.walkers", self.iommu.walkers.stats)
            registry.merge_stats("iommu.front", self.iommu.front.stats)
            registry.merge_stats("noc", {
                "messages_sent": self.network.messages_sent,
                "messages_routed": self.network.messages_routed,
                "total_hops": self.network.total_hops,
                "link_wait_cycles": self.network.link_wait_cycles(),
                "total_link_bytes": self.network.total_link_bytes(),
            })
            registry.merge_stats("sim", {
                "events_processed": self.sim.events_processed,
                "dropped_events": self.sim.dropped_events,
                "final_cycle": self.sim.now,
            })
            if self.faults is not None:
                registry.merge_stats("faults", dict(self.faults.counters))
            if self.recovery is not None:
                registry.merge_stats("recovery", self.recovery.stats)
        return registry.snapshot()
