"""Machine-speed sampler for a pass process.

On a shared host the same work can take 40 % longer for seconds at a time,
and the slow phases differ between the two cores.  So every pass times a
fixed pure-Python task (about 0.1 ms) on a SIGALRM every 20 ms, in the
program's own thread and so on the core the program runs on at that moment;
this costs about 0.5 % of the pass.  A span of wall or CPU time is then
scaled by REFERENCE_S times the mean of 1 / (task time) over the samples in
the span -- each sample standing for 20 ms at its own speed -- which
expresses it in seconds at the speed at which the task takes REFERENCE_S.
The task never calls the program, so a change to the program moves the
scaled times in the same proportion as the raw ones.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
REFERENCE_S = 80e-6     # task time on an idle core of a 2-vCPU Xeon VM


def _task():
    s = 0
    for i in range(1000):
        s += i * i % 7
    return s


class Sampler:
    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _task()
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        """Index of the next sample, to delimit a span."""
        return len(self.samples)

    def scale(self, begin, end=None):
        """Factor that converts a time measured between marks ``begin`` and
        ``end`` to seconds at reference speed."""
        window = self.samples[begin:end]
        if not window:  # span shorter than one interval: time the task now
            self._sample(None, None)
            window = self.samples[-1:]
        return REFERENCE_S * statistics.fmean(1 / t for t in window)
