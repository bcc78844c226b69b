"""Machine-speed meter: times at a fixed reference speed.

The benchmark's host runs in two speed states that switch every second
or so (2000 steps of probe_kernel take about 10 ms in one and 17-19 ms
in the other), so raw wall times of the same work spread by
more than the benchmark's bounds.  The meter samples the machine's
speed inside the measured process: a timer signal (SIGALRM, handled in
the main thread between bytecodes; no extra thread) runs a short fixed
probe of the same kernel every PERIOD_S seconds.  An interval of work
is then integrated piece by piece between probes, each piece scaled by
REF_PROBE_S over the probe time around it, and the probes' own time is
left out.  The result reads as seconds at the reference speed: the
work the program did, in units a user of a machine at that speed would
wait.  raw() gives the wall time with the probes left out.
"""

from __future__ import annotations

import bisect
import math
import signal
import time
from array import array
from fractions import Fraction

_clock = time.perf_counter

PERIOD_S = 0.05
PROBE_STEPS = 60
# about the probe's time in the host's slower, more common state; a
# constant, so scaled times of different runs and commits share one unit
REF_PROBE_S = 0.00058
SMOOTH = 2      # probes on each side whose median sets a piece's speed
# room for 13 minutes of probes, allocated once when the meter starts:
# lists grown while the program runs would put small blocks between
# its large arrays on the heap and move the process's peak RSS
CAPACITY = 1 << 14


def probe_kernel(steps: int = PROBE_STEPS) -> Fraction:
    """The calibration kernel: stdlib Fraction arithmetic only."""
    acc = Fraction(0)
    for i in range(1, steps):
        acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(3, i % 11 + 1)
    return acc


class Meter:
    """Samples the machine's speed while it runs (start() to stop())."""

    def __init__(self):
        self._starts = array("d", bytes(8 * CAPACITY))
        self._ends = array("d", bytes(8 * CAPACITY))
        self.n = 0
        self._running = False
        self._cache = None

    def record(self, start: float, end: float) -> None:
        """Store one probe's interval; past CAPACITY probes, drop it."""
        if self.n < CAPACITY:
            self._starts[self.n] = start
            self._ends[self.n] = end
            self.n += 1

    def probe(self, *_signal) -> None:
        t = _clock()
        probe_kernel()
        self.record(t, _clock())

    def start(self) -> "Meter":
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._running = True
        return self

    def stop(self) -> None:
        """Stop the timer, with a last probe; again, a no-op."""
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._running = False
            self.probe()

    # -- reading ------------------------------------------------------------

    def _probes(self) -> list[tuple[float, float]]:
        return list(zip(self._starts[:self.n], self._ends[:self.n]))

    def _gaps(self) -> list[tuple[float, float, float]]:
        """(start, end, scale) of the work between probes: the gap after
        probe k has scale REF_PROBE_S over the median time of the
        probes k-SMOOTH+1 .. k+SMOOTH; time before the first probe takes
        the first gap's scale, time after the last the last gap's."""
        probes = self._probes()
        times = [e - s for s, e in probes]
        gaps = []
        for k, (_, end) in enumerate(probes):
            near = sorted(times[max(0, k - SMOOTH + 1):k + SMOOTH + 1])
            mid = len(near) // 2
            med = near[mid] if len(near) % 2 else \
                (near[mid - 1] + near[mid]) / 2
            nxt = probes[k + 1][0] if k + 1 < len(probes) else math.inf
            gaps.append((end, nxt, REF_PROBE_S / med))
        if gaps:
            gaps.insert(0, (-math.inf, probes[0][0], gaps[0][2]))
        return gaps

    def raw(self, a: float, b: float) -> float:
        """Wall time of [a, b] minus the probes inside it."""
        return b - a - sum(max(0.0, min(e, b) - max(s, a))
                           for s, e in self._probes() if e > a and s < b)

    def scaled(self, a: float, b: float) -> float:
        """Seconds of [a, b] at the reference speed, probes left out."""
        if self._cache is None or self._cache[0] != self.n:
            self._cache = (self.n, self._gaps())
        gaps = self._cache[1]
        if not gaps:
            return b - a
        k = max(0, bisect.bisect_right([g[0] for g in gaps], a) - 1)
        total = 0.0
        while k < len(gaps) and gaps[k][0] < b:
            g0, g1, scale = gaps[k]
            total += max(0.0, min(b, g1) - max(a, g0)) * scale
            k += 1
        return total
