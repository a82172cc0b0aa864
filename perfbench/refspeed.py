"""Reference-speed calibration of the timings.

On a shared machine the speed of a core drifts by 20-40% within seconds, as
other tenants come and go; a back-to-back repeat of the same `local analyze`
command measured 0.79 s and then 1.08 s.  Every run therefore interleaves a
fixed piece of pure-Python work (the probe) with its items, and the timing
metrics are reported at reference speed:

    calibrated time = measured time * NOMINAL_S / mean of the probes either side

The speed moves within a second, so each item or set-up sample is scaled by
the probes run just before and just after it, not by a run-wide figure.

The probe shares nothing with curveinv and runs with the cyclic collector
off, so the program's heap does not change its cost; a change to the
program moves the calibrated times as much as the measured ones.  The
measured times are printed and recorded beside the calibrated ones.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# Median probe time of this machine's fast phase (Python 3.11, 2 cores).
NOMINAL_S = 0.015


def probe() -> float:
    """Seconds taken by the fixed work: Fraction products in a dict keyed by
    exponent tuples, as the program's polynomials are, and small allocations."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        a = {(i, j): Fraction(i + 1, j + 2) for i in range(7) for j in range(7)}
        prod: dict = {}
        for (i, j), c in a.items():
            for (k, l), d in a.items():
                key = (i + k, j + l)
                prod[key] = prod.get(key, 0) + c * d
        rows = [(i, str(i), [i] * 3) for i in range(3000)]
        elapsed = time.perf_counter() - start
        del prod, rows
        return elapsed
    finally:
        if enabled:
            gc.enable()


def speed_factor(before: float, after: float) -> float:
    """Scale from measured to reference-speed time for work between two probes."""
    return NOMINAL_S / ((before + after) / 2)
