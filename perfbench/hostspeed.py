"""Host-speed reference for the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts as neighbours load the
machine: on a shared 2-vCPU Xeon VM the same pass over the same ops took
anywhere from 2.7 s to 4.7 s within a few minutes, and the process CPU time
drifted with it, so CPU time does not help.  Every time the benchmark reports
is therefore scaled by a fixed reference kernel timed next to the work: Python
float arithmetic in the style of the double-double helpers plus small numpy
array operations, the instruction mix of fracspec's series, root and
quadrature code.  The kernel is timed before every op (three times after an
op longer than LONG_OP_S), and each op's wall time is multiplied by REF_S
over the median kernel time within WINDOW_S of the op.  The kernel does not
touch fracspec, so at equal host speed a change to the package moves scaled
and raw times by the same factor.  On that VM, over ten seeded runs, the
scaling cut the quartile spread of ops_per_s from about 0.25 to 0.02-0.07.
Raw wall times are reported next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel seconds on a shared 2-vCPU Xeon VM at its fast state, so a scaled
# time reads as the wall time on that machine when its host is lightly loaded.
REF_S = 2.5e-4
WINDOW_S = 0.05
LONG_OP_S = 0.05   # after an op this long, take three samples, not one
_X = np.linspace(0.0, 1.0, 256)


def kernel() -> float:
    s = c = 0.0
    for i in range(900):
        x = i * 1.0000001
        t = s + x
        e = t - s
        c += (s - (t - e)) + (x - e)
        s = t
    for _ in range(25):
        v = _X * _X + 1.0
        s += float(v.sum())
    return s + c


def sample(n: int, out: list) -> None:
    """Time the kernel n times, appending (midpoint, seconds) to out."""
    for _ in range(n):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        out.append((0.5 * (t0 + t1), t1 - t0))


def warm_up() -> None:
    for _ in range(20):
        kernel()


def scale_factors(samples: list, spans: list) -> list:
    """Scale factor for each op span (start, end): REF_S over the median
    kernel time of the samples taken within WINDOW_S of the span, which
    always include the samples taken right before and right after it."""
    factors = []
    for start, end in spans:
        near = [k for t, k in samples if start - WINDOW_S <= t <= end + WINDOW_S]
        factors.append(REF_S / statistics.median(near))
    return factors
