"""A fixed reference computation that gauges the host's processor speed.

On a shared host the processor's speed changes under the program: in steps
that last seconds, the CPU time of this computation moved between about
20 ms and 40 ms, and a request's CPU time moved with it.  Every run
therefore times this computation between requests, at most every GAP_S, in
the processes it measures or beside them on the same processor, and scales
each measured time by the samples taken just before and just after it.  The
computation uses nothing from sysbound, so a change to the program cannot
move it.  It is exact rational arithmetic on small and big integers in pure
Python, the kind of work the program itself does.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

#: CPU seconds the computation takes at the speed times are scaled to
REFERENCE_S = 0.035
#: least time between two samples that are not forced
GAP_S = 0.25


def kernel(n: int = 100):
    """Bernoulli numbers B_0..B_n (B_1 = +1/2) by the Akiyama-Tanigawa
    recurrence, over Fraction."""
    a = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    return out


class Timeline:
    """Samples of the computation's CPU time, in the order they were taken.

    A time measured after sample k and before sample k + 1 has mark (k,
    k + 2): it is scaled by the mean of those two samples.  A request with n
    samples taken inside it has mark (k, k + n + 2).
    """

    def __init__(self):
        self.samples = []
        self._last = None

    def sample(self, force=False):
        """Time the computation once if GAP_S has passed since the last
        sample, or if ``force``; return its CPU time, or None."""
        if not force and self._last is not None \
                and time.monotonic() - self._last < GAP_S:
            return None
        start = time.thread_time()
        kernel()
        self.add(time.thread_time() - start)
        return self.samples[-1]

    def add(self, dt):
        """A sample taken in the order of the calls, here or elsewhere."""
        self.samples.append(dt)
        self._last = time.monotonic()

    def mark(self, inside=0):
        """The mark of a time measured up to now, with ``inside`` of the
        samples so far taken inside it."""
        last = len(self.samples) - 1
        return (last - inside, last + 2)

    def scaled(self, times, marks):
        """``times`` brought to the speed at which the computation takes
        REFERENCE_S."""
        out = []
        for t, (first, end) in zip(times, marks):
            if first < 0:
                raise ValueError("no sample precedes a measured time")
            ref = statistics.fmean(self.samples[first:end])
            out.append(t * REFERENCE_S / ref)
        return out
