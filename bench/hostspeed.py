"""Host-speed probe: a fixed loop timed around, and within, every measurement.

On a shared host the same computation runs at two or three speeds, each
lasting seconds to minutes, up to twice as slow as the fastest; which speed a
run gets decides its wall times more than the seed or the code does.  The
probe is benchmark-owned code that no change to ``src/`` can alter, so the
ratio of a measurement to the probe's time over the same stretch cancels the
host's speed.  One probe unit is an interpreted dict loop plus a loop of
small numpy calls: of the fixed loops tried (those two, BLAS products, a
streaming array update) that pair tracked the pipeline's passes best, since
the pipeline is interpreted Python around small numpy calls.

:class:`Clock` probes the host right before and after each call it times
and, with ``sample=True``, every ``INTERVAL_S`` during the call from a timer
signal, subtracting the samples' own time.  A call is reported in reference
seconds: its wall time times ``REFERENCE_S`` over the mean probe unit time.
On the reference host at its fastest the two agree.
"""

from __future__ import annotations

import signal
import time
from typing import Callable, List, Tuple

import numpy as np

#: One probe unit's time on the reference host (a shared 2-CPU VM, Python
#: 3.11, numpy 2.4) at its fastest.  A fixed scale: changing it rescales
#: every reported time.
REFERENCE_S = 1.75e-3
#: Units in the probe before and after each timed call (~16 ms).
UNITS = 8
#: Seconds between samples within a call, when sampling.
INTERVAL_S = 0.1

_SMALL = np.random.default_rng(0).random((64, 8))


def _unit() -> None:
    table: dict = {}
    for i in range(10000):
        key = i % 977
        table[key] = table.get(key, 0) + i
    for i in range(120):
        np.argmin(_SMALL + i, axis=1)
        _SMALL.sum(axis=0)


def probe(units: int = UNITS) -> float:
    """Seconds one probe unit takes now, the mean over ``units`` units."""
    clock = time.perf_counter
    started = clock()
    for _ in range(units):
        _unit()
    return (clock() - started) / units


def scaled(elapsed: float, unit_s: float) -> float:
    """``elapsed`` wall seconds in reference seconds, at a probe unit time."""
    return elapsed * REFERENCE_S / unit_s


class Clock:
    """Times calls in wall and reference seconds.

    The probe after one call is the probe before the next, so calls timed
    back to back pay for one probe each.
    """

    def __init__(self, *, sample: bool) -> None:
        self.sample = sample
        #: The mean probe unit time over each timed call.
        self.unit_times: List[float] = []
        self._last = None
        self._samples: List[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self._samples.append(probe(1))

    def time(self, call: Callable[[], object]) -> Tuple[object, float, float]:
        """``call()``'s result, its wall seconds and its reference seconds."""
        before = self._last if self._last is not None else probe()
        self._samples = []
        previous = None
        if self.sample:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            started = time.perf_counter()
            result = call()
        finally:
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - started
            if self.sample:
                signal.signal(signal.SIGALRM, previous)
        samples = self._samples
        wall = elapsed - sum(samples)
        after = self._last = probe()
        unit_s = (UNITS * (before + after) + sum(samples)) / (2 * UNITS + len(samples))
        self.unit_times.append(unit_s)
        return result, wall, scaled(wall, unit_s)
