"""Host-speed reference for the end-to-end timings.

The 2-vCPU host this benchmark was built on shares its caches and memory
bandwidth with other tenants. Each vCPU flips between a fast and a slow
state within seconds (the same pure-Python loop takes ≈37 ms or ≈70 ms),
and the share of time spent slow changes over minutes; pass walls drift
with it. So a timing is reported as measured seconds × ``REFERENCE_S`` /
(harmonic mean of kernel seconds timed in the same run while the program
is idle): the time on a host where the kernel takes ``REFERENCE_S``. The
raw seconds and the kernel samples are kept in each run's report file.

The kernel does what the simulator's hot loop does: heap pushes and pops,
dict stores and lookups, and small-object allocation and attribute
updates. It does not touch ``repro``, so no change to the simulator moves
it.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import subprocess
import sys
from time import perf_counter
from typing import List

#: Kernel seconds of the reference host: the build host's fast state.
REFERENCE_S = 0.035

_ITERATIONS = 30_000


class _Slot:
    __slots__ = ("key", "hits")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hits = 0


def kernel_seconds() -> float:
    """Time one run of the fixed kernel.

    The collector is paused meanwhile (the kernel makes no cycles), so the
    time does not depend on how many objects the calling process holds.
    """
    rng = random.Random(1)
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        heap: list = []
        table = {}
        for i in range(_ITERATIONS):
            heapq.heappush(heap, (rng.random(), i))
            table[i & 4095] = _Slot(i)
            slot = table.get((i * 7) & 4095)
            if slot is not None:
                slot.hits += 1
            if len(heap) > 512:
                heapq.heappop(heap)
        return perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def to_reference(seconds: float, kernels: List[float]) -> float:
    """``seconds`` measured on this host, scaled to the reference host.

    The host flips between a fast and a slow state within seconds, so a
    measured time is a mix of both.  The kernels' harmonic mean (their
    mean speed) weighs the states as time spent in them does; a median
    jumps to whichever state has the most samples.
    """
    return seconds * REFERENCE_S / statistics.harmonic_mean(kernels)


def concurrent_kernel_seconds(count: int, width: int) -> List[float]:
    """Time ``count`` kernels in each of ``width`` processes at once: the
    host's speed with ``width`` cores busy, as under a pool that wide.

    The partners are stdlib-only interpreters started for the call and
    reaped before it returns, so nothing of the program runs meanwhile.
    """
    partners = [
        subprocess.Popen(
            [sys.executable, __file__, str(count)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        for _ in range(width - 1)
    ]
    try:
        for partner in partners:
            partner.stdout.readline()  # ready
        for partner in partners:
            partner.stdin.write("go\n")
            partner.stdin.flush()
        samples = [kernel_seconds() for _ in range(count)]
        for partner in partners:
            out, _ = partner.communicate(timeout=60)
            samples += [float(value) for value in out.split()]
    finally:
        for partner in partners:
            if partner.poll() is None:
                partner.kill()
                partner.wait()
    return samples


def _partner(count: int) -> None:
    print("ready", flush=True)
    sys.stdin.readline()
    print(" ".join(str(kernel_seconds()) for _ in range(count)), flush=True)


if __name__ == "__main__":
    _partner(int(sys.argv[1]))
