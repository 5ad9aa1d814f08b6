"""Host-speed calibration: a fixed pure-Python kernel timed during each run.

On a shared VM the host's speed drifts by tens of percent for minutes at a
time, far longer than one run, and every timing drifts with it.  Each run
therefore also times this kernel, which is the benchmark's own code and
never changes with the program: heap pops and union by set merging over a
few MB, the kind of work ``repro.core`` does.  Every op's wall time is
multiplied by ``REFERENCE_MS`` over a kernel sample taken next to it,
which reports it at the reference host speed.  A program change moves the
op times and not the kernel, so it shows in full; host drift moves both
and mostly cancels (see ``README.md``).  Set-up times are not scaled.
"""

from __future__ import annotations

import functools
import gc
import heapq
import math
import random
import time

REFERENCE_MS = 100.0
"""About the kernel's median time on the host the benchmark was tuned on
(81-106 ms over ten runs on a 2-vCPU Xeon VM under Python 3.11): timings
are reported at that speed."""

INTERVAL_S = 1.0
"""A timed loop samples the kernel before the first op that starts at least
this long after the previous sample, so samples spread over the loop."""

_VERTICES = 16_000


@functools.cache
def _edges() -> list[tuple[float, int, int]]:
    """The kernel's fixed input, built on first use: not during set-up."""
    rng = random.Random(0)
    return [(rng.random(), rng.randrange(_VERTICES), rng.randrange(_VERTICES))
            for _ in range(48_000)]


def sample_ms() -> float:
    """Time the kernel once, in ms, with the collector off.

    The collector would make the kernel's time depend on how many objects
    the program keeps alive, so the scale would move with the program.
    """
    edges = _edges()
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        owner = list(range(_VERTICES))
        members = {v: {v} for v in range(_VERTICES)}
        heap = list(edges)
        heapq.heapify(heap)
        while heap:
            _, u, v = heapq.heappop(heap)
            a, b = owner[u], owner[v]
            if a == b:
                continue
            if len(members[a]) < len(members[b]):
                a, b = b, a
            for x in members[b]:
                owner[x] = a
            members[a] |= members.pop(b)
        return (time.perf_counter() - started) * 1e3
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Kernel samples taken between a loop's ops.

    Each op is scaled by the mean of the samples just before and just after
    it, which follows the host's speed during the op closer than either.
    """

    def __init__(self) -> None:
        self.samples_ms: list[float] = []
        self._last = -math.inf

    def mark(self) -> int:
        """The index of the latest sample, for the op about to run.

        A new sample is taken first when ``INTERVAL_S`` has passed since
        the last one.
        """
        now = time.perf_counter()
        if now - self._last >= INTERVAL_S:
            self.samples_ms.append(sample_ms())
            self._last = now
        return len(self.samples_ms) - 1

    def close(self) -> None:
        """Take the sample after the loop's last ops."""
        self.samples_ms.append(sample_ms())

    def scale(self, mark: int) -> float:
        """``REFERENCE_MS`` over the mean of the samples around ``mark``."""
        around = self.samples_ms[mark] + self.samples_ms[mark + 1]
        return 2 * REFERENCE_MS / around
