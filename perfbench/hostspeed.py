"""Host-speed calibration kernels.

On a shared VM the speed of a core drifts by tens of percent within a
minute while other tenants load the host, with zero steal time. A fixed
kernel that never touches momentcurve runs, untimed, right next to the work
being timed; dividing the work's time by the kernel's time cancels the
drift. Multiplying by the kernel's REFERENCE_S turns the ratio back into
seconds: seconds at the host speed under which the kernel takes REFERENCE_S.

    adjusted = measured * REFERENCE_S[kernel] / kernel_time

A kernel tracks the drift only when it leans on the same resource as the
work, so there are two:

- `interpreter`: a pure-Python loop and small numpy products, like module
  imports and the geometry samplers;
- `sort`: a numpy sort of 4M int64 keys (32 MB), which streams memory as
  the exact engine's table build and the quadrature contraction do.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel times on the 2-core 2.0 GHz Intel Xeon VM the baseline was
# recorded on (Python 3.11, numpy 2.4).
REFERENCE_S = {"interpreter": 0.0025, "sort": 0.055}

_RNG = np.random.default_rng(0)
_POINTS = _RNG.random((200, 3))
_FRAME = _RNG.random((3, 3))


def _interpreter(data) -> None:
    acc = 0
    for j in range(20000):
        acc += j * j
    for _ in range(100):
        q = _POINTS @ _FRAME
        acc += int(np.count_nonzero((q[:, 0] > 0.5) & (q[:, 1] < 0.7)))


def _sort_input():
    # Made afresh for each run and freed after it, so that the kernel adds
    # nothing to the resident memory the work itself reaches.
    return np.random.default_rng(0).integers(0, 1 << 40, size=4_000_000)


def _sort(keys) -> None:
    keys.sort()


# name -> (untimed input maker, timed kernel)
KERNELS = {"interpreter": (lambda: None, _interpreter), "sort": (_sort_input, _sort)}


def kernel_time(name: str) -> float:
    make, run = KERNELS[name]
    data = make()
    t0 = time.perf_counter()
    run(data)
    return time.perf_counter() - t0


def median_kernel_time(name: str) -> float:
    """Median of three kernel runs after one untimed warm-up run."""
    kernel_time(name)
    return statistics.median(kernel_time(name) for _ in range(3))


def adjust(seconds: float, name: str, kernel_s: float) -> float:
    return seconds * REFERENCE_S[name] / kernel_s
