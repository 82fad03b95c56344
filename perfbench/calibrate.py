"""Machine-speed calibration kernel.

The shared hosts this benchmark runs on change speed by up to 60% from one
minute to the next, for every program at once.  Each worker therefore times
this fixed kernel next to its measurement, and its gated times are scaled by
REFERENCE_S / (median of its kernel times).  The kernel mixes what a
dacsim run does: scalar math in Python closures, small numpy products and
float formatting.  It does not use dacsim, so a change to the package never
moves it.  Changing the kernel or REFERENCE_S rescales every gated time and
is a change to the benchmark.
"""

import math
import time

import numpy as np

# median kernel time on the 2-core machine the benchmark was defined on
REFERENCE_S = 0.0564
ITERATIONS = 8000


def kernel() -> int:
    a = np.arange(36.0).reshape(6, 6) / 36.0
    y = np.ones(6)
    acc = 0.0
    parts = []
    for k in range(ITERATIONS):
        t = k * 1e-3
        acc += math.sin(t) + 0.5 * math.exp(-t)
        y = y + 1e-3 * (a @ y - y)
        parts.append(format(acc + y[k % 6], ".12g"))
    return len(",".join(parts))


def timings(count: int) -> list[float]:
    """Wall times of `count` back-to-back kernel runs."""
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out
