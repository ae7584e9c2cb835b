"""How fast the CPU ran a job, sampled while the job runs.

The host this benchmark was built on gives each vCPU two speeds about
1.4-1.9x apart, switching every few seconds to every minute or so, and
the two vCPUs switch independently.  A whole run can fall inside a slow
stretch, so no statistic over a run's passes removes it.  Instead each
job times a fixed pure-Python loop (the calibration burst) every
PERIOD_S of wall time, from a SIGALRM handler in the job's own process,
so the burst runs on the job's CPU between the job's own bytecodes.
The burst mixes dict, tuple, list, str and big-int work, as the program
does; on the host above a plain integer loop slows down less than the
program does and tracks it worse.

`reference_seconds` then scales each stretch of the job between two
bursts by REF_BURST_S over the duration of the burst that ends it: the
stretch's time on a CPU that runs a burst in REF_BURST_S.  The bursts'
own time is left out.  A burst never calls into padiczeta, so a faster
program cannot speed up its own yardstick.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.05
ROUNDS = 2000
# The unit of reference seconds: about the fastest a burst ran, timed on
# its own, on the reference host (a KVM guest on an Intel Xeon, Python
# 3.11.7).  Inside a job a burst runs somewhat slower, so on that host a
# job's reference seconds come out below its plain seconds even when
# the vCPU is fast.
REF_BURST_S = 0.001


def burst() -> int:
    table: dict = {}
    total = 0
    for i in range(ROUNDS):
        key = (i & 255, i * 3)
        table[key] = table.get(key, 0) + (i << 40) * 7 % 1000003
        table[i & 511] = [key, i, str(i)]
        total += i * i
    return total


class Sampler:
    """Times a burst every PERIOD_S of wall time until stopped."""

    def __init__(self):
        self.bursts: list[tuple[float, float]] = []  # perf_counter start, end

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        burst()
        self.bursts.append((start, time.perf_counter()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


def reference_seconds(bursts, start: float, end: float) -> float:
    """Time in [start, end] outside the bursts, in reference seconds.

    The clock is time.perf_counter, which on Linux is CLOCK_MONOTONIC and
    so agrees between processes.  A stretch after the last burst is
    scaled by the last burst.
    """
    total = 0.0
    previous_end = start
    scale = 1.0
    for burst_start, burst_end in bursts:
        scale = REF_BURST_S / (burst_end - burst_start)
        low, high = max(previous_end, start), min(burst_start, end)
        if high > low:
            total += (high - low) * scale
        previous_end = max(previous_end, burst_end)
    if end > previous_end:
        total += (end - previous_end) * scale
    return total


def burst_seconds(bursts, start: float, end: float) -> float:
    """Wall time in [start, end] spent inside bursts."""
    return sum(max(0.0, min(e, end) - max(s, start)) for s, e in bursts)
