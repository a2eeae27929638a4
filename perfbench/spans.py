"""The traced pass: spans around each layer call, counts, profiler shares.

Spans are recorded from this file only, around the public calls that
``repro.system.runner.run_benchmark`` makes (and, on fig14, around the
``SweepExecutor`` methods the experiment layer calls).  The mirror's
result digest is checked against the bare run's, so the mirror cannot
drift from the real entry point unnoticed.
"""

from __future__ import annotations

import cProfile
import pstats
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional

from repro.mem.allocator import PageAllocator
from repro.system.result import RunResult
from repro.system.runner import collect_result
from repro.system.wafer import WaferScaleGPU
from repro.workloads.registry import get_workload

#: Packages whose self-time share of ``wafer.run`` is reported; everything
#: outside ``repro`` (builtins, stdlib) is ``python``, and the remaining
#: ``repro`` packages are ``other``.
PROFILED_PACKAGES = (
    "sim", "gpm", "tlb", "filters", "noc", "iommu", "mem", "faults", "core",
)


class SpanRecorder:
    """In-memory spans: name, start, end, parent span and trace id."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, trace: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "trace": trace,
            "parent": self._open[-1] if self._open else None,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def self_seconds(self, trace: Optional[str] = None) -> Dict[str, float]:
        """Per span name: summed duration minus what child spans cover."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            if trace is not None and span["trace"] != trace:
                continue
            duration = span["end"] - span["start"]
            totals[span["name"]] = totals.get(span["name"], 0.0) + duration
            parent = span["parent"]
            if parent is not None:
                name = self.spans[parent]["name"]
                totals[name] = totals.get(name, 0.0) - duration
        return totals

    def export(self, origin: float) -> List[dict]:
        """Spans with times relative to ``origin``, for writing out."""
        return [
            {**span, "start": span["start"] - origin, "end": span["end"] - origin}
            for span in self.spans
        ]


@dataclass
class MirrorRun:
    result: RunResult
    counts: Dict[str, int]


def mirror_run(
    job, seed: int, scale: float, recorder: SpanRecorder,
    profiler: Optional[cProfile.Profile] = None,
) -> MirrorRun:
    """``run_benchmark``'s layer calls, each inside a span."""
    trace_id = job.job_id
    span = recorder.span
    with span("job", trace_id):
        with span("system.build", trace_id):
            wafer = WaferScaleGPU(job.config)
            allocator = PageAllocator(wafer.address_space, wafer.num_gpms)
        with span("workloads.generate", trace_id):
            trace = get_workload(job.workload).generate(
                num_gpms=wafer.num_gpms, allocator=allocator, scale=scale,
                seed=seed,
            )
        with span("mem.install", trace_id):
            for allocation in allocator.allocations:
                wafer.install_entries(allocator.materialize(allocation))
        with span("system.build", trace_id):
            wafer.load_traces(
                trace.per_gpm, burst=trace.burst, interval=trace.interval
            )
        with span("sim.run", trace_id):
            if profiler is None:
                wafer.run()
            else:
                profiler.runcall(wafer.run)
        with span("system.collect", trace_id):
            result = collect_result(wafer, trace)
            if wafer.faults is not None:
                result.extras["faults"] = wafer.faults.report()
    return MirrorRun(result, wafer_counts(wafer))


def wafer_counts(wafer: WaferScaleGPU) -> Dict[str, int]:
    """Exact work counts read from the components after a run."""
    counts = {
        "sim.events": wafer.sim.events_processed,
        "gpm.mshr_stalls": 0,
        "gpm.merged_misses": 0,
        "tlb.l1_probes": 0,
        "filters.probes": 0,
        "noc.messages": wafer.network.messages_sent,
        "noc.routed_messages": wafer.network.messages_routed,
        "noc.hops": wafer.network.total_hops,
        "noc.link_wait_cycles": wafer.network.link_wait_cycles(),
    }
    for gpm in wafer.gpms:
        hierarchy = gpm.hierarchy
        counts["gpm.mshr_stalls"] += gpm.stat("mshr_stalls")
        counts["gpm.merged_misses"] += gpm.stat("merged_misses")
        counts["tlb.l1_probes"] += sum(
            tlb.accesses for tlb in
            (hierarchy.l1_vector, hierarchy.l1_scalar, hierarchy.l1_inst)
        )
        counts["filters.probes"] += hierarchy.cuckoo.lookups
    return counts


def package_self_fractions(profiler: cProfile.Profile) -> Dict[str, float]:
    """Share of profiled self time per ``repro`` package."""
    buckets = {name: 0.0 for name in PROFILED_PACKAGES + ("python", "other")}
    stats = pstats.Stats(profiler).stats
    for (filename, _line, _func), (_cc, _nc, self_time, _ct, _callers) in (
        stats.items()
    ):
        parts = filename.replace("\\", "/").split("/")
        if "repro" not in parts:
            buckets["python"] += self_time
            continue
        below = parts[len(parts) - parts[::-1].index("repro"):]
        package = below[0] if len(below) > 1 else "other"
        buckets[package if package in buckets else "other"] += self_time
    total = sum(buckets.values()) or 1.0
    return {name: value / total for name, value in buckets.items()}


def wrap_executor(executor, phase: str, recorder: SpanRecorder) -> None:
    """Time ``map``, ``lookup`` and ``store`` of one executor as spans."""
    for method in ("map", "lookup", "store"):
        inner = getattr(executor, method)

        def timed(*args, _inner=inner, _name=f"exec.{method}", **kwargs):
            with recorder.span(_name, phase):
                return _inner(*args, **kwargs)

        setattr(executor, method, timed)
