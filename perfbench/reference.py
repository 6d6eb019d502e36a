"""A fixed reference computation that tracks how fast this machine runs now.

The benchmark's host is shared, and its speed drifts by tens of percent over
seconds to minutes.  Runs time this reference next to their ops and scale
each time they report by REFERENCE_S / (median of nearby reference times),
so that a slower machine moves the reference and the ops
together, while a change in symclone moves only the ops.  The reference
does the kinds of work symclone's ops do (exact rational arithmetic, a
large complex allocation, and small scattered numpy updates) and never
calls symclone.  Changing it changes every reported time.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

import numpy as np

# The reference's time on the machine the benchmark was written on, 2 CPUs,
# in its fast windows; times are reported at this speed.
REFERENCE_S = 0.015


def reference() -> float:
    """Seconds taken by the fixed reference work, garbage collection off so
    that the size of the calling process's heap does not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(3000):
            total += Fraction(i % 7 + 1, i % 11 + 2)
        dense = np.zeros((1200, 1200), dtype=np.complex128)
        dense[::5, ::5] += 1.0
        idx = np.arange(0, 900, 30)
        block = np.ones((idx.size, idx.size))
        for _ in range(400):
            dense[np.ix_(idx, idx)] += block
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
