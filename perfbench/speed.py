"""Wall times corrected for the speed of a shared host.

On a shared virtual machine the same solve takes from 1x to 1.8x its
best time, in slow spells lasting seconds to minutes, so raw wall times
of identical work spread by 20-40% between runs.  While a timed region
runs, SIGALRM fires every PERIOD seconds and runs a small fixed numpy
kernel, the kind of work the solver does (short inverse FFTs and
reductions), and records how long it took.  A region's time is reported
as its wall time, less the kernel's own time, scaled by
NOMINAL / mean(kernel time): the seconds it would have taken with the
host at the speed where the kernel takes NOMINAL.  The kernel never
calls liporbit, so a change to liporbit moves the corrected time as it
moves the wall time.  Signal handlers run in the main thread between
bytecodes, so no thread is added and no numpy call is interrupted.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD = 0.02
# Kernel seconds at full speed on a 2-vCPU x86-64 VM, Python 3.11, numpy 2.4.
NOMINAL = 1.5e-4


def kernel_seconds() -> float:
    import numpy as np

    spectrum = np.ones((67, 2), dtype=complex)
    t0 = time.perf_counter()
    for _ in range(12):
        z = np.fft.irfft(spectrum, n=132, axis=0)
        float(np.sum(z * z))
    return time.perf_counter() - t0


def speed_factor(samples: list[float]) -> float:
    return NOMINAL / statistics.mean(samples)


class Timed:
    """`with Timed() as t:` gives t.wall (raw seconds), t.seconds (corrected)
    and t.samples (the kernel times taken while the region ran).

    A region that itself imports numpy starts unarmed and calls arm() once
    numpy is loaded; sampling earlier would import numpy in the handler."""

    def __init__(self, armed: bool = True):
        self.armed = armed

    def arm(self) -> None:
        self.armed = True

    def __enter__(self) -> "Timed":
        self.samples: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def _sample(self, *_) -> None:
        if self.armed:
            self.samples.append(kernel_seconds())

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.wall = time.perf_counter() - self._t0 - sum(self.samples)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.samples.append(kernel_seconds())
        self.seconds = self.wall * speed_factor(self.samples)
