"""Host-speed correction for the benchmark's timings.

On a shared host the speed this process gets drifts by 25% and more
between 30 s windows, for minutes at a time, and within a window from one
second to the next.  Longer runs do not average that away, and best-of-N
does not either: a slow period can last a whole run.  So the run times a
fixed reference loop, which uses nothing of awspec, about every
``EVERY_S`` seconds of measured work, and scales each measured time by
``NOMINAL_S / r``, where ``r`` is the median duration of the reference
loop within ``HALF_WINDOW_S`` of that time.  The result reads in seconds
on a host that runs the reference loop in ``NOMINAL_S``.  A change to the
program moves these figures exactly as it moves wall time; a change to
the host's speed mostly cancels.

The reference loop is scalar complex arithmetic and big-integer
arithmetic, the two kinds of work awspec's kernels and its mpmath
escalation do.  Changing it, or ``NOMINAL_S``, changes every reported
time, so both stay fixed.
"""
import bisect
import statistics
import time

NOMINAL_S = 0.8e-3  # the reference loop's median on the reference host
EVERY_S = 0.025
HALF_WINDOW_S = 0.5
_BIG = 3 ** 200 + 12345


def reference():
    acc = 0j
    for j in range(200):
        z = complex(0.3 + 1e-3 * j, 0.2)
        p, qk = 1 + 0j, 1.0
        for _ in range(12):
            p *= 1 - z * qk
            qk *= 0.7
        acc += p
    x = 1
    for j in range(60):
        x = (x * _BIG) >> 150
        x += j
    return acc, x


class SpeedLog:
    """Reference-loop samples, as (perf_counter at start, duration)."""

    def __init__(self):
        self.t = []
        self.dur = []
        for _ in range(20):  # warm the loop before any sample counts
            reference()

    def sample(self):
        t0 = time.perf_counter()
        reference()
        self.t.append(t0)
        self.dur.append(time.perf_counter() - t0)

    def factor(self, t):
        """NOMINAL_S over the median reference duration near time t."""
        lo = bisect.bisect_left(self.t, t - HALF_WINDOW_S)
        hi = bisect.bisect_right(self.t, t + HALF_WINDOW_S)
        if hi - lo < 3:  # too few samples near t: the nearest few
            mid = bisect.bisect_left(self.t, t)
            lo, hi = max(0, mid - 2), min(len(self.t), mid + 2)
        return NOMINAL_S / statistics.median(self.dur[lo:hi])
