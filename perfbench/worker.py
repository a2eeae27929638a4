"""One fresh interpreter of the benchmark: set up, run the passes, report.

``run.py`` starts this script; it is not meant to be run by hand.  With
``--setup-only`` it imports and builds what the workload needs, prints
the seconds since ``--spawned-at`` and exits.  Otherwise it runs the
workload's passes and prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fewest timed passes in a bare run, whatever ``--seconds`` says, so the
#: reported wall time is a median of at least three.
MIN_PASSES = 3

#: Kernel samples per pool-wide block of partners, timed before and after
#: each fig14 pass while the program is idle.
KERNEL_BLOCK = 6


def import_repro() -> None:
    """Put the checkout's ``src`` first on the path and check it won."""
    sys.path.insert(0, str(SRC))
    import repro

    where = Path(repro.__file__).resolve().parent
    if where != (SRC / "repro").resolve():
        raise SystemExit(f"imported repro from {where}, not from {SRC}")


def setup(workload: str, seed: int, scratch: Path):
    """Import the layers the workload calls and build its job configs
    (``fig14_overall.run`` builds its own)."""
    import passes

    if workload == "fig14":
        from repro.exec import SweepExecutor  # noqa: F401
        from repro.experiments import fig14_overall  # noqa: F401
        from repro.experiments.common import RunCache  # noqa: F401

        scratch.mkdir(parents=True, exist_ok=True)
        return None
    return passes.sim_jobs(workload, seed)


def peak_rss_mb(pool_width: int) -> float:
    """This process's peak RSS plus ``pool_width`` times the largest
    reaped child's: an upper bound of the concurrent high-water mark."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_width * child) / 1024.0


# ----------------------------------------------------------------------
# Bare runs: end-to-end metrics
# ----------------------------------------------------------------------
def bare_run(workload, jobs, seed, seconds, scratch, gate):
    """Repeat bare passes while the next one should end within ``seconds``
    (at least ``MIN_PASSES``).

    On fig14 ``wall_s`` is the median pass, scaled to the reference host
    by kernels timed on every core at once before and after each pass,
    as wide as the pool.  On the in-process workloads it is the sum over
    jobs of each job's median wall (host speed drifts in bursts shorter
    than a pass; a per-job median drops a burst that hit one job in one
    pass), scaled by kernel samples taken before every job.
    """
    import passes

    walls, samples, kernels = [], {}, []
    accesses = 0
    started = perf_counter()
    while (
        len(walls) < MIN_PASSES
        or perf_counter() - started + walls[-1] <= seconds
    ):
        label = f"pass{len(walls)}"
        if workload == "fig14":
            kernels += hostspeed.concurrent_kernel_seconds(
                KERNEL_BLOCK, passes.FIG14_JOBS,
            )
            run = passes.fig14_pass(seed, scratch / label, gate, label)
            kernels += hostspeed.concurrent_kernel_seconds(
                KERNEL_BLOCK, passes.FIG14_JOBS,
            )
            if run is None:
                break
            wall, results, job_walls = run.wall, run.results, {"pass": run.wall}
        else:
            wall, results, job_walls = passes.sim_pass(
                jobs, seed, gate, label,
                between_jobs=lambda: kernels.append(hostspeed.kernel_seconds()),
            )
        if not walls:
            # After one pass: later pools fork from a parent that has
            # grown by a varying amount, which only adds noise.
            rss = peak_rss_mb(passes.FIG14_JOBS if workload == "fig14" else 0)
        walls.append(wall)
        for job_id, job_wall in job_walls.items():
            samples.setdefault(job_id, []).append(job_wall)
        accesses = passes.completed_accesses(results)
        if gate.failures:
            break
    raw_wall = sum(statistics.median(s) for s in samples.values())
    wall_s = hostspeed.to_reference(raw_wall, kernels)
    return {
        "passes": len(walls),
        "walls": walls,
        "raw_wall_s": raw_wall,
        "kernel_s": kernels,
        "metrics": {
            "wall_s": wall_s,
            "accesses_per_s": accesses / wall_s if wall_s else 0.0,
            "peak_rss_mb": rss if walls else 0.0,
        },
    }


# ----------------------------------------------------------------------
# Traced runs: per-layer metrics
# ----------------------------------------------------------------------
def traced_sim_run(jobs, seed, gate, recorder):
    """Bare pass, span-traced mirror, profiled mirror, instrumented pass."""
    import passes
    import spans
    from repro.obs import Observability
    from repro.units import geomean

    bare_kernels, obs_kernels = [], []
    bare_wall, _, _ = passes.sim_pass(
        jobs, seed, gate, "bare",
        between_jobs=lambda: bare_kernels.append(hostspeed.kernel_seconds()),
    )
    mirrors = {}
    profiler = cProfile.Profile()
    # Only the traced mirror's spans are reported: the profiled mirror's
    # are inflated by the profiler.
    for label, target, prof in (
        ("traced", recorder, None),
        ("profiled", spans.SpanRecorder(), profiler),
    ):
        for job in jobs:
            run, problems = passes.run_guarded(
                spans.mirror_run, job, seed, passes.SIM_SCALE, target, prof,
            )
            if run is not None:
                problems += passes.result_problems(run.result, job.faulted)
                problems += gate.digest(job.job_id, run.result)
                reference = mirrors.get(job.job_id)
                if reference is not None and reference.counts != run.counts:
                    problems.append("counts differ from the traced mirror")
                mirrors.setdefault(job.job_id, run)
            gate.check(f"{label}:{job.job_id}", problems)
    obs_wall, _, _ = passes.sim_pass(
        jobs, seed, gate, "instrumented",
        make_obs=lambda: Observability(metrics=True, phases=True),
        between_jobs=lambda: obs_kernels.append(hostspeed.kernel_seconds()),
    )
    if len(mirrors) < len(jobs):
        return {}, {}

    counts = {}
    for run in mirrors.values():
        for name, value in run.counts.items():
            counts[name] = counts.get(name, 0) + value
    results = {job_id: run.result for job_id, run in mirrors.items()}
    completed = passes.completed_accesses(results)
    requests = sum(r.iommu_requests for r in results.values())
    speedups = [
        results[f"{job.workload}.baseline"].exec_cycles / results[job.job_id].exec_cycles
        for job in jobs if job.scheme == "hdpat" and not job.faulted
    ]
    layer_seconds = recorder.self_seconds()
    job_seconds = sum(
        value for name, value in layer_seconds.items() if name != "job"
    )
    metrics = {
        "sim.events_per_access": counts["sim.events"] / completed,
        "gpm.mshr_stalls_per_access": counts["gpm.mshr_stalls"] / completed,
        "tlb.l1_probes_per_access": counts["tlb.l1_probes"] / completed,
        "gpm.merged_misses_per_access": counts["gpm.merged_misses"] / completed,
        "filters.probes_per_access": counts["filters.probes"] / completed,
        "iommu.walks_per_access":
            sum(r.iommu_walks for r in results.values()) / completed,
        "iommu.coalesced_frac":
            sum(r.iommu_coalesced for r in results.values()) / requests,
        "noc.messages_per_access": counts["noc.messages"] / completed,
        "noc.hops_per_message":
            counts["noc.hops"] / counts["noc.routed_messages"],
        "noc.link_wait_cycles_per_message":
            counts["noc.link_wait_cycles"] / counts["noc.routed_messages"],
        "model.exec_cycles": sum(r.exec_cycles for r in results.values()),
        "model.hdpat_speedup_geomean": geomean(speedups),
        "sim.events_per_s": counts["sim.events"] / layer_seconds["sim.run"],
        # Each pass scaled by its own kernel samples: the two passes run
        # a minute apart, and host speed drifts by more than the overhead.
        "obs.overhead_frac":
            hostspeed.to_reference(obs_wall, obs_kernels)
            / hostspeed.to_reference(bare_wall, bare_kernels) - 1.0,
        "system.non_run_frac": 1.0 - layer_seconds["sim.run"] / job_seconds,
    }
    for name in ("workloads.generate", "system.build", "mem.install",
                 "sim.run", "system.collect"):
        metrics[f"{name}_s"] = layer_seconds[name]
    for package, share in spans.package_self_fractions(profiler).items():
        metrics[f"{package}.self_frac"] = share
    counts["accesses_completed"] = completed
    details = {
        "counts": counts,
        "exec_cycles": {k: r.exec_cycles for k, r in sorted(results.items())},
        "layer_seconds": layer_seconds,
        "bare_wall_s": bare_wall,
        "instrumented_wall_s": obs_wall,
    }
    return metrics, details


def traced_fig14_run(seed, scratch, gate, recorder):
    """Bare cold+warm pass, then the same pass with exec spans."""
    import passes

    bare = passes.fig14_pass(seed, scratch / "bare", gate, "bare")
    traced = passes.fig14_pass(
        seed, scratch / "traced", gate, "traced", recorder=recorder,
    )
    if bare is None or traced is None:
        return {}, {}
    results = bare.results
    completed = passes.completed_accesses(results)
    walls = bare.executor.registry.histogram("sweep.job_wall_seconds")
    cold = recorder.self_seconds("cold")
    warm = recorder.self_seconds("warm")
    geomean_row = bare.table.row_for("GEOMEAN")
    metrics = {
        "iommu.walks_per_access":
            sum(r.iommu_walks for r in results.values()) / completed,
        "iommu.coalesced_frac":
            sum(r.iommu_coalesced for r in results.values())
            / sum(r.iommu_requests for r in results.values()),
        "model.exec_cycles": sum(r.exec_cycles for r in results.values()),
        "model.hdpat_speedup_geomean":
            geomean_row[bare.table.headers.index("Hdpat")],
        "exec.parallel_efficiency":
            walls.total / (bare.wall * passes.FIG14_JOBS),
        "exec.job_wall_p50_s": walls.percentile(50),
        "exec.store_s": cold.get("exec.store", 0.0),
        "exec.lookup_s": warm.get("exec.lookup", 0.0),
        "exec.warm_replay_s": bare.warm_wall,
        "exec.warm_hit_frac": bare.warm_disk_hits / len(results),
    }
    details = {
        "counts": {
            "jobs": len(results),
            "accesses_completed": completed,
            "warm_disk_hits": bare.warm_disk_hits,
        },
        "exec_cycles": {k: r.exec_cycles for k, r in sorted(results.items())},
        "layer_seconds": {"cold": cold, "warm": warm},
        "job_wall_sum_s": walls.total,
        "geomean": dict(zip(bare.table.headers[1:], geomean_row[1:])),
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_repro()
    jobs = setup(args.workload, args.seed, args.scratch)
    ready = time.time() - args.spawned_at
    if args.setup_only:
        # Kernels timed in this interpreter once it is ready: the speed of
        # the core the set-up ran on.
        print(json.dumps({
            "setup_s": ready,
            "kernel_s": [hostspeed.kernel_seconds() for _ in range(2)],
        }))
        return 0

    import passes
    import spans

    gate = passes.Gate()
    origin = perf_counter()
    if args.trace:
        recorder = spans.SpanRecorder()
        if args.workload == "fig14":
            metrics, details = traced_fig14_run(
                args.seed, args.scratch, gate, recorder,
            )
        else:
            metrics, details = traced_sim_run(jobs, args.seed, gate, recorder)
        report = {"metrics": metrics, "details": details,
                  "spans": recorder.export(origin)}
    else:
        report = bare_run(
            args.workload, jobs, args.seed, args.seconds, args.scratch, gate,
        )
    report.update(attempted=gate.attempted, failures=gate.failures)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
