"""Host speed probe and CPU pinning.

The benchmark host switches between a fast and a slow speed (about
1.45x apart, see README.md) in regimes that last from one second to
over a minute -- often longer than a run.  No choice of slices inside
one run can recover the fast speed from a run that never saw it, so
every CPU-bound time is rescaled by the host speed measured while it
was taken: each measuring process runs a :class:`SpeedProbe` thread
that times a fixed pure-Python loop every ``PERIOD_S`` in *thread CPU
time* (which excludes waiting for the GIL or for the CPU), and a
measurement over ``[start, end)`` is scaled by :func:`factor`, the
median probe time in that window over ``REFERENCE_S``.

Each process is pinned to one CPU (the SUT to the last allowed CPU,
the generator to the first) so a probe thread samples the CPU its
process's other threads run on.
"""

from __future__ import annotations

import os
import threading
import time

#: Probe time the normalized metrics are scaled to: they read as if
#: the host always ran the probe loop in this many seconds.
REFERENCE_S = 150e-6
PERIOD_S = 0.05


def _loop() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(600):
        key = i & 63
        table[key] = table.get(key, 0) + i
        total += len((i, key))
    return total


def probe_once() -> float:
    """Thread CPU seconds of one run of the fixed probe loop."""
    start = time.thread_time()
    _loop()
    return time.thread_time() - start


class SpeedProbe:
    """Background thread sampling :func:`probe_once` every ``PERIOD_S``."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="rushbench-speed-probe")

    def start(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def stop(self) -> list:
        self._stop.set()
        self._thread.join()
        return self.samples

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self.samples.append((time.monotonic(), probe_once()))


def factor(samples, start: float, end: float) -> float:
    """Median probe time of the ``(time, seconds)`` samples taken in
    ``[start, end)`` -- widened by one period on each side when it
    holds none -- relative to ``REFERENCE_S``: above 1 while the host
    ran slower than the reference."""
    for slack in (0.0, PERIOD_S):
        inside = sorted(s for t, s in samples
                        if start - slack <= t < end + slack)
        if inside:
            return inside[len(inside) // 2] / REFERENCE_S
    raise ValueError(f"no speed probe sample near [{start}, {end})")


def speed(*sample_lists):
    """A ``(start, end)`` function: the mean :func:`factor` over one or
    more processes' samples (a pipeline of processes on different CPUs
    runs at the pace of both)."""
    def slowdown(start: float, end: float) -> float:
        return sum(factor(samples, start, end)
                   for samples in sample_lists) / len(sample_lists)
    return slowdown


def cpu_for(role: str) -> int:
    """The CPU a ``"sut"`` (the last) or ``"gen"`` (the first of the
    CPUs this process may use) process runs on; one CPU hosts both."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[-1] if role == "sut" else cpus[0]


def pin(role: str) -> None:
    """Pin this process to :func:`cpu_for` ``role``."""
    os.sched_setaffinity(0, {cpu_for(role)})
