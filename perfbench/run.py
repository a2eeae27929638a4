"""Benchmark of the HDPAT simulator: three workloads, bare and traced runs.

Run from the repository root:

    python3 perfbench/run.py --workload irregular --seed 42 --seconds 30 --trace 0

``--trace 0`` times bare (untraced) passes for ``--seconds`` seconds and
reports the end-to-end metrics; ``--trace 1`` runs the traced pass and
reports the per-layer metrics.  Every pass runs the correctness gate.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit codes: 0 when every
check passed, 1 when the gate failed (the result is still printed), 2
when the benchmark could not run at all (no result is printed).

See README.md beside this file for why each workload exists and which
end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
#: Everything a run leaves behind (reports, spans, scratch caches).
OUT = ROOT / ".perfbench"

WORKLOADS = ("irregular", "regular", "fig14")

#: Fresh interpreters started per run to time set-up; the median counts.
SETUP_SAMPLES = 9

#: The whole command must end within this many seconds.
RUN_BUDGET_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "accesses_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Exact counts: they repeat bit for bit for a given tree and seed.
COUNTS = {
    "sim.events_per_access": "events/access",
    "gpm.mshr_stalls_per_access": "stalls/access",
    "tlb.l1_probes_per_access": "probes/access",
    "gpm.merged_misses_per_access": "misses/access",
    "filters.probes_per_access": "probes/access",
    "iommu.walks_per_access": "walks/access",
    "iommu.coalesced_frac": "fraction",
    "noc.messages_per_access": "msgs/access",
    "noc.hops_per_message": "hops/msg",
    "noc.link_wait_cycles_per_message": "cycles/msg",
    "model.exec_cycles": "cycles",
    "model.hdpat_speedup_geomean": "x",
}

#: Host timings and shares from the traced pass.
TIMINGS = {
    "sim.events_per_s": "1/s",
    "workloads.generate_s": "s",
    "system.build_s": "s",
    "mem.install_s": "s",
    "sim.run_s": "s",
    "system.collect_s": "s",
    "system.non_run_frac": "fraction",
    **{
        f"{package}.self_frac": "fraction"
        for package in ("sim", "gpm", "tlb", "filters", "noc", "iommu",
                        "mem", "faults", "core", "python", "other")
    },
    "obs.overhead_frac": "fraction",
    "exec.parallel_efficiency": "fraction",
    "exec.job_wall_p50_s": "s",
    "exec.store_s": "s",
    "exec.lookup_s": "s",
    "exec.warm_replay_s": "s",
    "exec.warm_hit_frac": "fraction",
}

PER_LAYER = {**COUNTS, **TIMINGS}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_command(args, scratch: Path, *extra: str):
    return [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scratch", str(scratch),
        "--spawned-at", repr(time.time()),
        *extra,
    ]


def run_worker(command, timeout: float) -> dict:
    """Run one worker in its own process group; return its last JSON line.

    On timeout the whole group (the fig14 pool included) is killed and
    reaped before the error is raised.
    """
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    proc = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker exceeded {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def source_digest() -> str:
    """sha256 over the simulator's sources (the checkout need not be a
    git repository, so this identifies the code measured)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def print_block(title: str, metrics: dict, units: dict, measured: dict) -> None:
    print(title)
    for name, unit in units.items():
        if name in measured:
            print(f"  {name:36s} {metrics[name]:>16.6g} {unit}")
        else:
            print(f"  {name:36s} {'n/a':>16s} (not exercised by this workload)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_BUDGET_S
    # On SIGTERM, unwind through run_worker's cleanup, which kills the
    # worker's process group.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(2))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    scratch = OUT / f"tmp-{os.getpid()}"
    setups, kernels = [], []
    try:
        # Set-up is an end-to-end metric only: a traced run skips it.
        for _ in range(0 if args.trace else SETUP_SAMPLES):
            before = [hostspeed.kernel_seconds() for _ in range(2)]
            sample = run_worker(
                worker_command(args, scratch, "--setup-only"),
                deadline - time.monotonic(),
            )
            setups.append(sample["setup_s"])
            kernels.append(before + sample["kernel_s"])
        report = run_worker(
            worker_command(args, scratch), deadline - time.monotonic(),
        )
    except (BenchError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    env = environment(args)
    failures = report["failures"]
    measured = report.get("metrics", {})
    if args.trace:
        metrics = {name: float(measured.get(name, 0.0)) for name in PER_LAYER}
    else:
        metrics = {name: float(measured.get(name, 0.0)) for name in END_TO_END}
        # Each set-up is scaled by the kernels timed just before it (here)
        # and just after it (in its interpreter).
        metrics["setup_s"] = statistics.median(
            hostspeed.to_reference(setup, around)
            for setup, around in zip(setups, kernels)
        )
        measured = {**measured, "setup_s": metrics["setup_s"]}

    print(f"== perfbench {args.workload} seed={args.seed} trace={args.trace} ==")
    print("measured on: " + " ".join(
        f"{key}={env[key]}" for key in ("git_sha", "nproc", "python", "platform")
    ) + f" src_sha256={env['src_sha256'][:16]}")
    if args.trace:
        print_block("counts (exact, repeatable):", metrics, COUNTS, measured)
        print_block("timings (host, traced pass):", metrics, TIMINGS, measured)
        for job_id, cycles in report.get("details", {}).get(
                "exec_cycles", {}).items():
            print(f"  exec_cycles[{job_id}] = {cycles}")
    else:
        print_block(
            f"end to end (bare, median of {report['passes']} passes; "
            f"set-up median of {SETUP_SAMPLES} interpreters):",
            metrics, END_TO_END, measured,
        )
    attempted = report["attempted"]
    print(f"  failed_frac {len(failures) / max(attempted, 1):.6g} "
          f"({len(failures)} of {attempted} checks)")
    for failure in failures:
        print(f"  FAILED {failure}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {**report, "environment": env, "metrics": metrics,
         "setup_samples": setups, "setup_kernel_s": kernels},
        indent=1,
    ))
    correct = not failures and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": len(failures) if attempted else 1,
        "metrics": {
            name: {"value": value, "unit": PER_LAYER.get(name) or END_TO_END[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
