"""The machine's speed during a run, sampled with a fixed reference loop.

The 2-CPU sandbox this benchmark was built on shares its CPUs with other
tenants, and their load slows every Python loop by a common factor, from 1.1
to 2.5 times, that changes every few seconds and can last minutes; the
kernel reports no steal time for it, and CPU time slows as much as wall time.
Over ten runs of one workload the job times as measured spread by 0.13-0.46
(quartile distance over median).  The reference loop below, timed at the
same moments, follows that factor closely: over 5 s windows, a job's
slowdown divided by the loop's varied by 5-9% while the job's slowdown
alone varied by 12-24%.  So the end-to-end times are reported at a fixed
reference speed: a job's measured latency is divided by the factor by which
the reference loop, timed around that job, ran slower than NOMINAL_S.

The loop does the kind of work the library does, exact ``Fraction``
arithmetic in a dict keyed by exponent tuples, and does not call the
library, so a change to the library cannot move it.

While a probe is active, a timer signal runs the loop every PERIOD_S between
the job's bytecodes, so long jobs are sampled throughout; the time the
samples take is subtracted from the job's latency.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.2
# around an execution, samples this close to it set its factor: at least
# ten samples, over a window shorter than the slowdowns it corrects
WINDOW_S = 1.0
# the reference loop's time on the fastest stretches of the machine the
# benchmark was built on (a 2-CPU sandbox, Python 3.11.7)
NOMINAL_S = 0.0017


def reference() -> Fraction:
    acc = Fraction(0)
    table = {}
    for i in range(1, 300):
        key = (i % 37, i % 11, i % 5)
        table[key] = table.get(key, Fraction(0)) + Fraction(i, i % 7 + 1)
        acc += table[key] / (key[0] + 1)
    return acc


def speed_factor(samples: int = 5) -> float:
    """How much slower than NOMINAL_S the reference loop runs now: the
    median of `samples` runs."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / NOMINAL_S


class SpeedProbe:
    """Samples of the reference loop's time, ``(start, seconds)``, and the
    total time spent taking them."""

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        reference()
        dt = time.perf_counter() - t0
        self.samples.append((t0, dt))
        self.spent_s += dt

    def __enter__(self):
        for _ in range(10):
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(10):
            self._sample()

    def factor(self, t0: float, t1: float) -> float:
        """How much slower than NOMINAL_S the reference loop ran around
        [t0, t1]: the median of the samples within WINDOW_S of it."""
        near = [d for t, d in self.samples if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        return statistics.median(near) / NOMINAL_S
