"""How fast the host runs, sampled inside the run process.

The benchmark's timings come from a shared virtual machine whose speed
drifts: a fixed loop runs a quarter to a half slower for seconds to
minutes at a time while other tenants load the host, and a whole
40-second invocation can fall into such a spell.  A median over the
runs of one invocation cannot remove that, so the reported timings are
scaled to a reference speed instead.

While a run process lives, a ``SIGALRM`` handler times a fixed pure
Python loop every :data:`INTERVAL_S` in thread CPU time (about 0.5% of
the run).  It samples the same CPU at the same moments as the program,
between two of its bytecodes.  A phase's *speed* is
``(REFERENCE_S / median(loop times within it)) ** SLOWDOWN_EXPONENT``,
and its scaled time is ``measured time × speed``: the time the phase
would take on a host where the loop takes :data:`REFERENCE_S`.  The
loop keeps almost no data, so the program's own cache footprint hardly
moves it, and thread CPU time leaves out time the process spends
descheduled.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.025
"""Time between two samples of the loop."""
LOOP_ITERATIONS = 1000
REFERENCE_S = 100e-6
"""Loop time on the reference host; on a quiet 2-vCPU Sapphire Rapids
VM the loop takes 80-130 us."""
SLOWDOWN_EXPONENT = 1.2
"""How much more than the loop the program slows down on a slow host.
Over 181 runs of the three workloads on one such VM, log wall time
against log loop time had slopes 1.18-1.27 for the run and 1.12-1.22
for set-up (correlation 0.88-0.96)."""


def _loop() -> int:
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += (i * 7919) % 1013
    return total


class SpeedProbe:
    """Samples the loop on a timer from :meth:`start` to :meth:`stop`."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        started = time.thread_time()
        _loop()
        self.samples.append(time.thread_time() - started)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        """Index of the next sample, to delimit a phase."""
        return len(self.samples)

    def speed(self, start: int = 0, end: int | None = None) -> float | None:
        """Reference over median loop time in a phase, to the exponent."""
        window = self.samples[start:end]
        if not window:
            return None
        return (REFERENCE_S / statistics.median(window)) ** SLOWDOWN_EXPONENT
