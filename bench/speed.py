"""Host speed, sampled with a fixed kernel, to put times from different runs on one scale.

The shared two-core VMs this benchmark was built on change speed by up to 1.5
times, within a run and between runs, in stretches of seconds to minutes.
That is more than any bound the benchmark could fix.  A pure-Python kernel
that does a fixed amount of work, timed every tenth of a second while a
workload runs, tracks that speed.  Each pass's measured wall time is reported
at the reference speed, at which the kernel takes REFERENCE_S.  The factor is
the kernel's mean speed over the pass relative to the reference speed.  On
such a VM, over runs with different seeds, the interquartile spread of the
pass time fell from 14% to 6% of the median on family-ladder (5 runs) and
from 24% to 8% on the cli-session cold pass (3 runs).  Every run's report
keeps the measured times and the factors.

Starting an interpreter does not follow the kernel's speed, but it follows the
start of a bare interpreter: set-up time is scaled so that a bare `python3 -c
pass`, started between the timed starts, takes REFERENCE_START_S.  On such a VM
that took the spread of the per-run median set-up time from 25% to 4%.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

KERNEL_LOOPS = 1_500
REFERENCE_S = 0.001
REFERENCE_START_S = 0.05
INTERVAL_S = 0.1
TRIM = 0.1  # share of samples dropped at each end, for samples a descheduling or an interrupt hit


class SpeedProbe:
    def __init__(self):
        self.samples = []  # kernel times, in seconds
        self.spent = 0.0  # time spent in the kernel, to be taken out of timed calls

    def sample(self, *_signal_args):
        """Time the kernel: integer arithmetic and the small-tuple churn that the workloads also do."""
        start = time.perf_counter()
        acc = 0
        for i in range(KERNEL_LOOPS):
            acc += i * i + len(tuple(range(i % 17)))
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    @contextmanager
    def ticking(self):
        """Sample every INTERVAL_S from SIGALRM; the handler runs in this thread, so no thread is added."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, since: int = 0) -> float:
        """Factor that takes a time measured during samples[since:] to the reference speed.

        Samples come at even intervals, so the mean of REFERENCE_S over each
        sample weighs each stretch of the time by the speed during it.
        """
        speeds = sorted(REFERENCE_S / t for t in self.samples[since:])
        cut = int(len(speeds) * TRIM)
        return statistics.fmean(speeds[cut:len(speeds) - cut])
