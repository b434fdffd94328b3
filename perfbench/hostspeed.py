"""A host-speed probe that runs inside the timed region.

On a shared host the same code can run 30-60% slower for minutes at a
time, because other tenants load the machine.  That drift is far larger
than the regressions the benchmark has to catch, and no amount of
repetition inside one run removes it: a whole run lands in a slow or a
fast stretch.

`SpeedProbe` samples the host's speed while the workload runs.  An
interval timer (SIGALRM, every INTERVAL_S of wall time) interrupts the
workload and times one fixed chunk of work written only with the standard
library: exact rational arithmetic with `fractions.Fraction`, the kind of
work girycheck does.  Samples are therefore spread evenly over wall time.
The chunk runs with the garbage collector paused.  It leaves no tracked
objects behind, so it neither triggers a collection of the program's
objects nor pays for one.

A time measured while the probe runs is reported twice: as measured
(minus the probe's own time inside it), and scaled to the reference speed,
`raw * REFERENCE_S / median(chunk times)`.  Since the chunk never calls
girycheck, a change to the program moves the scaled time exactly as it
moves the raw one; a change in the host's speed moves both the program's
time and the chunk's, and cancels out.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
# About the chunk's median time on a 2-vCPU Intel Xeon at 2.0 GHz with
# CPython 3.11 (0.44-0.74 ms as the host's load varied), so that scaled
# times read roughly as seconds on that host.
REFERENCE_S = 0.0007
# A round with fewer samples than this is scaled by the whole run's median.
MIN_SAMPLES = 5


def chunk() -> Fraction:
    """The fixed work one probe sample times."""
    total, step = Fraction(0), Fraction(3, 7)
    for i in range(1, 60):
        total += step * Fraction(i, i + 2) - Fraction(1, i)
    return total


class SpeedProbe:
    """Context manager: while open, times `chunk()` every INTERVAL_S.

    `samples` holds every chunk time; `spent` their sum, which callers
    subtract from the wall time of whatever the probe interrupted."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        chunk()
        dt = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        return False

    def mark(self):
        """(sample count, probe time) so far, to bracket one timed piece."""
        return len(self.samples), self.spent

    def scale(self, since: int, until: int | None = None) -> float:
        """The factor REFERENCE_S / median chunk time over samples[since:until],
        or over all samples if that slice is too short."""
        window = self.samples[since:until]
        if len(window) < MIN_SAMPLES:
            window = self.samples
        return REFERENCE_S / statistics.median(window) if window else 1.0
