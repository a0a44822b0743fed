"""Machine-speed calibration for the timed metrics.

On the shared two-vCPU host this benchmark was written on (Intel Xeon,
AVX-512), the speed of a core switches between two states about a second
apart: identical interpreter-bound work takes 1x or 2x as long, in CPU
time as well as in wall time. Each run samples a different mix of the
two states, so over five 25 s runs per workload the raw sums of per-case
median walls spread by 13-34 % (interquartile range over median).

A fixed calibration kernel, timed right before and right after each
measured interval, sees the same state. Scaling the interval by the
kernel's reference time over the mean of its two bracketing times
expresses it at a fixed machine speed; on the same runs the scaled sums
spread by 2-6 %. The kernel is not program code, so a change to the
program moves the scaled figure in full. Each workload uses a kernel
bound by the same resource as its cases: interpreter overhead on small
arrays (desk, curves), or that plus streaming einsum over a batched
matrix the size of dim-512 example3's A (oracle_bound, whose dim-64
cases are overhead-bound and dim-512 cases einsum-bound).
"""

from __future__ import annotations

import functools
import time

import numpy as np


def interpreter_kernel():
    t0 = time.perf_counter()
    x = np.ones((10, 10))
    for _ in range(500):
        x = x * 0.999 + 0.001
        float(x[0, 0])
    return time.perf_counter() - t0


@functools.cache
def _batched_matrix():
    return np.full((10, 256, 512), 1e-3)


def einsum_kernel():
    A = _batched_matrix()
    x = np.ones((10, 512))
    t0 = time.perf_counter()
    for _ in range(2):
        y = np.einsum("...ij,...j->...i", A, x)
        x = np.einsum("...ij,...i->...j", A, y) * 1e-3
    return time.perf_counter() - t0


# kernel -> reference seconds, about its time in the fast state of the
# machine above; any fixed value works, since only ratios between runs
# of the same benchmark code are compared
KERNELS = {
    "interpreter": (interpreter_kernel, 1.0e-3),
    "mixed": (lambda: interpreter_kernel() + einsum_kernel(), 3.5e-3),
}


class ScaledClock:
    """Scales measured intervals to the kernel's reference speed."""

    def __init__(self, kind):
        self.kernel, self.reference_s = KERNELS[kind]
        self.kernel()                       # first call allocates
        self.mark()

    def mark(self):
        """Time the kernel now; the next interval starts here."""
        self.last = self.kernel()

    def scale(self):
        """Factor for the interval since the last mark; marks again."""
        before = self.last
        self.mark()
        return 2.0 * self.reference_s / (before + self.last)
