"""Machine-speed calibration for the timings.

The benchmark runs on shared cores whose speed changes by up to 2x from
one second to the next and by a fifth or more from one minute to the next,
for this process's own CPU time as much as for its wall time.  Raw times
from two sets of runs therefore differ by more than any useful bound.

So a fixed probe runs between units of measured work: a few milliseconds
of pure-Python work of the kind the library does (float pairs, rounding,
hashing, sorting with a key), which never changes and imports nothing from
the program.  Each unit's time is scaled to the reference speed at which
one probe takes ``REFERENCE_S``, by the mean of the probes just before and
just after it.  The raw times are kept in each run's detail file.
"""

from __future__ import annotations

import functools
import time

REFERENCE_S = 0.010
_PAIRS = [((i * 7919) % 1000 / 1000, (i * 104729) % 1000 / 1000) for i in range(400)]


def probe() -> float:
    """Seconds taken by the fixed work; about REFERENCE_S on a 2-core Intel Xeon machine."""
    start = time.perf_counter()
    for _ in range(18):
        ordered = sorted(
            {(min(a, b), max(a, b)) for a, b in _PAIRS},
            key=lambda iv: (round(iv[0] + iv[1], 12), iv[0], iv[1]),
        )
        {iv: n for n, iv in enumerate(ordered)}
    return time.perf_counter() - start


class Pacer:
    """Probes between units of work and scales each unit to reference speed."""

    def __init__(self):
        self.probes = [probe()]

    def scale(self, elapsed: float) -> float:
        """Probe again, and return ``elapsed`` at the reference speed."""
        before = self.probes[-1]
        self.probes.append(probe())
        return elapsed * REFERENCE_S * 2.0 / (before + self.probes[-1])

    def paced(self, fn, scaled: list):
        """``fn``, with each call's time at reference speed appended to ``scaled``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            scaled.append(self.scale(time.perf_counter() - start))
            return result

        return wrapper

    def speed(self) -> float:
        """Reference probe time over the median probe time: above 1 is faster."""
        ordered = sorted(self.probes)
        return REFERENCE_S / ordered[len(ordered) // 2]
