"""Machine speed, measured right next to every timed call.

The reference machine is shared with other tenants. From one second to the
next the same request can take 1.6x as long, and a whole run can be 1.4x
slower than the run before it. The process's CPU time grows just as much as
its wall time, so the cause is contention for the cores and caches, not
waiting for a core, and no clock of the process can hide it.

So the benchmark runs a fixed kernel right before and right after each timed
call, outside the timed window, and reports the call's time at reference
speed::

    scaled = measured * KERNEL_REFERENCE_S / mean(kernel before, kernel after)

The kernel does the same kind of work as the library: a product of two
sparse polynomials stored as dicts of exponent tuples, and a Fraction
Gaussian elimination. It calls none of the library, so no change to the
library can change the scale. A scaled time reads as the call's time at a
speed where one kernel takes ``KERNEL_REFERENCE_S``, which is about the
reference machine's speed when it is quiet.
"""

from __future__ import annotations

import time
from fractions import Fraction

import reference as ref

KERNEL_REFERENCE_S = 0.002

_F = ref.g_terms_mod(7, 7, 1, 2)
_G = ref.g_terms_mod(7, 7, 2, 3)
_ROWS = [[Fraction(7 * i + 3 * j + 1, j + 2) for j in range(5)] for i in range(5)]


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    start = time.perf_counter()
    ref.mul_terms_mod(_F, _G, 7)
    ref.fraction_det(_ROWS)
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two kernels to reference speed."""
    return 2 * KERNEL_REFERENCE_S / (before + after)
