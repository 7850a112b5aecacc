"""Measured times corrected for the machine's changing speed.

The benchmark runs on shared machines whose speed changes by up to half
from second to second and for minutes at a time, as other tenants load the
cores (a fixed pure-Python loop took 23 ms and 36 ms within one minute; CPU
time moved with wall time, so it is not descheduling).  No number of
repetitions inside one run averages out a slow minute.

So each benchmark process times a fixed pure-Python loop, the probe,
twenty times a second from a timer signal.  The probe's time divided by
``REF_PROBE_S`` is the local slowdown.  :meth:`SpeedClock.duration`
integrates the inverse slowdown over an interval of ``time.perf_counter()``
and leaves out the probes' own time, giving the interval's length at the
reference speed: the time the program would have taken had the machine run
the probe in ``REF_PROBE_S``.  A change to the program that makes it do
more work takes longer on this clock too; only the machine's own changes
are divided out.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

#: the probe's time, taken between the program's steps, on the machine the
#: baseline was measured on when little else loaded it (a shared 2-core
#: x86-64 container at 2.0 GHz; the probe took 0.37 to 0.76 ms there)
REF_PROBE_S = 0.5e-3
#: probe spacing; at 0.1 s the latency medians spread twice as much
INTERVAL_S = 0.05
#: probes whose mean gives the slowdown at one probe (smooths the jitter of
#: a single sub-millisecond sample)
SMOOTH = 5


#: the probe looks up keys of a table larger than a core's private caches in
#: a fixed random order: like the compiler, it chases pointers through the
#: heap, so it slows down with the compiler (on x86-oracle, log wall time
#: moved 1.2x as much as log probe time; a plain arithmetic loop, 1.4x)
TABLE_SIZE = 40000
LOOKUPS = 1500


class _Probe:
    def __init__(self):
        keys = list(range(TABLE_SIZE))
        self.table = {k: k for k in keys}
        random.Random(0).shuffle(keys)
        self.order = keys
        self.pos = 0

    def __call__(self) -> int:
        j = self.pos
        self.pos = (j + LOOKUPS) % (TABLE_SIZE - LOOKUPS)
        t = self.table
        s = 0
        for k in self.order[j:j + LOOKUPS]:
            s += t[k]
        return s


class SpeedClock:
    def __init__(self):
        self.probes = []  # (start, end) of every probe, in perf_counter time
        self._probe = _Probe()

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self._probe()
        self.probes.append((t0, time.perf_counter()))

    def start(self):
        self._probe()  # warm the loop before the first sample
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._build()

    def _build(self):
        """The corrected clock is piecewise linear: it stops during a probe,
        and between probes runs at 1 / slowdown, taking each probe's
        (smoothed) slowdown up to the midpoint to the next probe."""
        if not self.probes:
            raise RuntimeError("no speed probe ran; the process was too short")
        dts = [b - a for a, b in self.probes]
        half = SMOOTH // 2
        rates = [REF_PROBE_S / statistics.fmean(dts[max(0, i - half):i + half + 1])
                 for i in range(len(dts))]
        # breakpoints (time, rate from this time on), in time order
        points = [(float("-inf"), rates[0])]
        for i, (a, b) in enumerate(self.probes):
            points.append((a, 0.0))
            points.append((b, rates[i]))
            if i + 1 < len(self.probes):
                mid = (a + b + self.probes[i + 1][0] + self.probes[i + 1][1]) / 4
                points.append((mid, rates[i + 1]))
        self._edges = [t for t, _ in points]
        self._rates = [r for _, r in points]
        acc = [0.0, 0.0]  # corrected time at each edge, from the first probe
        for k in range(1, len(points) - 1):
            acc.append(acc[-1] + (self._edges[k + 1] - self._edges[k]) * self._rates[k])
        self._acc = acc

    def _at(self, t: float) -> float:
        k = bisect.bisect_right(self._edges, t) - 1
        if k == 0:  # before the first probe
            return (t - self._edges[1]) * self._rates[0]
        return self._acc[k] + (t - self._edges[k]) * self._rates[k]

    def duration(self, a: float, b: float) -> float:
        """The corrected length of the interval [a, b] of perf_counter time."""
        return self._at(b) - self._at(a)
