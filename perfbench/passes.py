"""Workload grids, bare (untraced) passes and the correctness gate.

Imported by ``worker.py`` after it has put the checkout's ``src`` first on
``sys.path``; nothing here runs at import time.
"""

from __future__ import annotations

import shutil
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from repro.analysis.sanitizers import result_digest
from repro.config.hdpat import HDPATConfig
from repro.config.presets import wafer_7x7_config
from repro.config.scaling import capacity_scaled
from repro.core.baselines.registry import SOTA_NAMES, sota_system_config
from repro.errors import AccountingWarning, TruncationWarning
from repro.faults import degradation_plan
from repro.system.result import RunResult
from repro.system.runner import run_benchmark

#: Trace scale of the in-process workloads (the scale the experiment
#: suite's end-to-end record uses).
SIM_SCALE = 0.08

#: Scale of the fig14 workload.  A cold figure at 0.08 takes ~15 s on two
#: cores, which leaves room for only one or two passes per run; at 0.04
#: (the pytest bench suite's scale) three passes fit and the reported
#: median is steadier.
FIG14_SCALE = 0.04

#: Pool width of the fig14 workload: one worker per core of a 2-core host.
FIG14_JOBS = 2

IRREGULAR = ("spmv", "mt", "pr")
REGULAR = ("aes", "fir", "relu", "sc", "i2c")

#: Fault severity of the faulted half of ``regular``.
FAULT_FRACTION = 0.1


@dataclass(frozen=True)
class Job:
    """One in-process simulation: a capacity-scaled config and a workload."""

    job_id: str
    workload: str
    scheme: str
    config: object
    faulted: bool


def sim_jobs(workload: str, seed: int) -> List[Job]:
    """The job list of ``irregular`` or ``regular``, configs built."""
    base = wafer_7x7_config()
    schemes = (("baseline", base), ("hdpat", base.with_hdpat(HDPATConfig.full())))
    if workload == "irregular":
        variants = ((IRREGULAR, False),)
    else:
        variants = ((REGULAR, False), (REGULAR, True))
    jobs = []
    for names, faulted in variants:
        for name in names:
            for scheme, config in schemes:
                if faulted:
                    plan = degradation_plan(
                        config.mesh_width, config.mesh_height, seed,
                        FAULT_FRACTION,
                    )
                    config = config.with_faults(plan)
                suffix = ".faulted" if faulted else ""
                jobs.append(Job(
                    job_id=f"{name}.{scheme}{suffix}",
                    workload=name,
                    scheme=scheme,
                    config=capacity_scaled(config, SIM_SCALE),
                    faulted=faulted,
                ))
    return jobs


def fig14_grid(seed: int):
    """``(job_id, config, workload, policy_key)`` for every fig14 cell, in
    the keying ``fig14_overall.run`` warms its ``RunCache`` with."""
    from repro.workloads.registry import BENCHMARK_NAMES

    base = wafer_7x7_config()
    configs = [("baseline", base, "")]
    configs += [(s, sota_system_config(s, base), s) for s in SOTA_NAMES]
    configs.append(("hdpat", base.with_hdpat(HDPATConfig.full()), ""))
    return [
        (f"{name}.{scheme}", config, name, key)
        for name in BENCHMARK_NAMES
        for scheme, config, key in configs
    ]


@dataclass
class Gate:
    """Correctness record of one run: every attempted check and failure."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: job_id -> digest from the first pass; later passes must match it.
    digests: Dict[str, str] = field(default_factory=dict)

    def check(self, label: str, problems: List[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")
        return not problems

    def digest(self, job_id: str, result: RunResult) -> List[str]:
        digest = result_digest(result)
        expected = self.digests.setdefault(job_id, digest)
        if digest != expected:
            return [f"digest {digest[:12]} != first pass {expected[:12]}"]
        return []


def result_problems(result: RunResult, faulted: bool) -> List[str]:
    """Checks every job's result must pass, whichever pass produced it."""
    problems = []
    if result.truncated:
        problems.append("truncated")
    if result.prefetch_accuracy_raw() > 1.0:
        problems.append("prefetch accuracy > 1 (accounting)")
    completed = result.extras.get("completed_accesses")
    if not faulted and completed != result.total_accesses:
        problems.append(f"completed {completed} of {result.total_accesses}")
    return problems


def run_guarded(fn, *args, **kwargs):
    """Call ``fn`` and return ``(value, problems)``: an exception or an
    accounting/truncation warning is a problem, never a crash."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:  # a failed job is counted, not fatal
            return None, [f"raised {exc!r}"]
    problems = [
        f"{w.category.__name__}: {w.message}"
        for w in caught
        if issubclass(w.category, (AccountingWarning, TruncationWarning))
    ]
    return value, problems


def pair_problems(results: Dict[str, RunResult], workloads) -> List[str]:
    """HDPAT must finish in fewer cycles than baseline on every fault-free
    pair ``<workload>.hdpat`` / ``<workload>.baseline`` in ``results``."""
    problems = []
    for name in workloads:
        hdpat = results.get(f"{name}.hdpat")
        baseline = results.get(f"{name}.baseline")
        if hdpat is None or baseline is None:
            continue
        if hdpat.exec_cycles >= baseline.exec_cycles:
            problems.append(
                f"{name}: hdpat {hdpat.exec_cycles} cycles >= "
                f"baseline {baseline.exec_cycles}"
            )
    return problems


def sim_pass(
    jobs: List[Job], seed: int, gate: Gate, label: str, make_obs=None,
    between_jobs=None,
):
    """Run every job through ``run_benchmark``.

    Returns ``(wall, results, job_walls)``; ``wall`` covers the jobs only.
    ``make_obs`` builds a fresh ``Observability`` per job (the
    instrumented pass); None runs bare.  ``between_jobs`` is called
    before each job, outside its timing.
    """
    results: Dict[str, RunResult] = {}
    job_walls: Dict[str, float] = {}
    for job in jobs:
        if between_jobs is not None:
            between_jobs()
        job_started = perf_counter()
        result, problems = run_guarded(
            run_benchmark, job.config, job.workload, scale=SIM_SCALE,
            seed=seed, obs=make_obs() if make_obs else None,
        )
        job_walls[job.job_id] = perf_counter() - job_started
        if result is not None:
            problems += result_problems(result, job.faulted)
            problems += gate.digest(job.job_id, result)
            results[job.job_id] = result
        gate.check(f"{label}:{job.job_id}", problems)
    gate.check(f"{label}:pairs", pair_problems(
        results, {job.workload for job in jobs if not job.faulted},
    ))
    return sum(job_walls.values()), results, job_walls


@dataclass
class Fig14Pass:
    wall: float
    warm_wall: float
    #: The cold figure's ``ExperimentResult``.
    table: object
    results: Dict[str, RunResult]
    #: The cold phase's executor, whose registry holds the job walls.
    executor: object
    warm_disk_hits: int


def fig14_pass(
    seed: int, cache_dir: Path, gate: Gate, label: str, recorder=None,
) -> Optional[Fig14Pass]:
    """A cold ``fig14_overall.run`` on a fresh disk cache, then a warm replay
    from a fresh ``RunCache`` on the filled cache.

    With a ``SpanRecorder`` (the traced pass) each phase's figure call and
    its executor's ``map``/``lookup``/``store`` are recorded as spans.
    """
    from repro.exec import SweepExecutor
    from repro.experiments import fig14_overall
    from repro.experiments.common import RunCache

    tables = []
    walls = []
    caches = []
    started = perf_counter()
    try:
        for phase in ("cold", "warm"):
            phase_started = perf_counter()
            executor = SweepExecutor(jobs=FIG14_JOBS, cache_dir=cache_dir)
            cache = RunCache(executor)
            span = nullcontext()
            if recorder is not None:
                from spans import wrap_executor

                wrap_executor(executor, phase, recorder)
                span = recorder.span("experiments.fig14", phase)
            with span:
                table, problems = run_guarded(
                    fig14_overall.run, scale=FIG14_SCALE, seed=seed,
                    cache=cache,
                )
            walls.append(perf_counter() - phase_started)
            if executor.failures:
                problems.append(f"{len(executor.failures)} job failures")
            if not gate.check(f"{label}:{phase}", problems):
                return None
            tables.append(table)
            caches.append(cache)
    finally:
        wall = perf_counter() - started
        shutil.rmtree(cache_dir, ignore_errors=True)
    cold, warm = tables
    results = {}
    grid = fig14_grid(seed)
    for job_id, config, name, key in grid:
        hits = caches[0].hits
        result, problems = run_guarded(
            caches[0].get, config, name, FIG14_SCALE, seed, policy_key=key,
        )
        # Every cell must be one the figure computed: a miss means the
        # grid's keying has drifted from the figure's and the job re-ran
        # here, unchecked by the figure.
        if caches[0].hits == hits:
            problems.append("missed the figure's cache")
        if result is not None:
            problems += result_problems(result, False)
            problems += gate.digest(job_id, result)
            results[job_id] = result
        gate.check(f"{label}:{job_id}", problems)
    gate.check(f"{label}:table", table_problems(cold, warm))
    gate.check(f"{label}:pairs", pair_problems(
        results, {name for _id, _config, name, _key in grid},
    ))
    return Fig14Pass(
        wall=wall, warm_wall=walls[1], table=cold, results=results,
        executor=caches[0].executor, warm_disk_hits=caches[1].disk_hits,
    )


def table_problems(cold, warm) -> List[str]:
    """The warm replay reproduces the cold table; the paper's shape holds."""
    problems = []
    if cold.rows != warm.rows:
        problems.append("warm replay table differs from cold table")
    geomean = cold.row_for("GEOMEAN")
    hdpat = geomean[cold.headers.index("Hdpat")]
    if not hdpat >= 1.3:
        problems.append(f"HDPAT geomean {hdpat:.3f} < 1.3")
    for sota in SOTA_NAMES:
        other = geomean[cold.headers.index(sota.capitalize())]
        if not hdpat > other:
            problems.append(f"HDPAT geomean {hdpat:.3f} <= {sota} {other:.3f}")
    return problems


def completed_accesses(results: Dict[str, RunResult]) -> int:
    return sum(r.extras["completed_accesses"] for r in results.values())
