"""CPU-speed probe: rescales measured seconds to a nominal CPU speed.

On a shared host the speed of one CPU drifts by up to half over minutes,
as other tenants load its core.  Run-to-run spreads of raw pass times
then exceed any useful bound.  While a pass runs, a timer signal every
INTERVAL_S times a short fixed integer loop on the same CPU.  Each sample
gives the CPU's speed at that moment relative to nominal, NOMINAL_S / t.
The samples are evenly spaced in time, so their mean is the mean relative
speed over the interval, and

    seconds at nominal speed = measured seconds * mean(NOMINAL_S / t)

is the time the same work takes on a CPU running at nominal speed.  The
probe costs about 0.25% of the CPU and depends on nothing in wdag, so a
faster library still shows as fewer nominal seconds.
"""
from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
# The probe loop's time on a quiet 2-core Xeon container; only ratios matter.
NOMINAL_S = 50e-6


def _loop() -> int:
    acc = 0
    for i in range(400):
        acc += (i * 7) ^ (i >> 2)
    return acc


class Probe:
    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _loop()
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def take(self) -> list[float]:
        """The samples since the last take."""
        samples, self.samples = self.samples, []
        return samples


def nominal(seconds: float, samples: list[float]) -> float:
    """Seconds rescaled to the nominal probe speed."""
    return seconds * statistics.fmean(NOMINAL_S / t for t in samples)
