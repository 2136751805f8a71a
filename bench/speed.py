"""The machine's current speed, from a fixed reference computation.

On a shared machine the speed of the same code drifts by up to 2x over
seconds to minutes.  The benchmark therefore times this kernel right before
and right after each timed interval and reports the interval at reference
speed: its measured time multiplied by ``NOMINAL_S`` over the kernel's mean
time around it.  The kernel is the
benchmark's own code and never calls the program, so a change to the program
moves the scaled time exactly as it moves the raw time.

Its work resembles the program's: scalar Python called back from QUADPACK
(as in ``limit_theory``), scalar ``math`` calls in a Python loop (as in
``TrawlSpec.a``), random draws and FFTs (as in ``simulate`` and
``estimators``).  Its arrays are small, so that it adds nothing to a
session's peak memory.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import integrate

#: About the kernel's median time on the 2-vCPU machine the benchmark was
#: calibrated on (0.169 s over 14 sessions), so that times at reference
#: speed read close to that machine's raw times.  Changing it rescales every
#: reported time, so it stays fixed.
NOMINAL_S = 0.17

_FFT_LEN = 1 << 16


def _integrand(u, shift):
    return math.exp(-u) * math.exp(-abs(u - shift))


def _work():
    acc = 0.0
    for k in range(1500):
        shift = 0.25 + k / 1500
        acc += integrate.quad(_integrand, 0.0, 12.0, points=[shift], args=(shift,), limit=200)[0]
    for i in range(400000):
        acc += math.exp(-1e-6 * i) * 0.5
    rng = np.random.default_rng(20240601)
    x = rng.standard_normal(_FFT_LEN)
    for _ in range(24):
        x = np.fft.irfft(np.fft.rfft(x) * 0.5, _FFT_LEN) + rng.standard_normal(_FFT_LEN)
    return acc + float(x[0])


def kernel_seconds():
    """Wall seconds of one pass of the reference computation."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
