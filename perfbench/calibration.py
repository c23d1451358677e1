"""Machine-speed calibration for wall-clock timings.

The machine the bounds were set on has 2 shared cores whose speed drifts by
up to 2x for tens of seconds at a time. A fixed kernel timed next to each
operation tracks that drift. Each operation's wall time is rescaled by
REFERENCE_S / (kernel time measured around it). The kernel shares no code
with ringcf, so a change to the program cannot move it. Its mix matches the
interpreter work ringcf does: Fraction elimination, integer list updates,
small numpy vector products and a recursive bounded search.
"""
import math
import statistics
import time
from fractions import Fraction

import numpy as np

# Kernel time, in seconds, that rescaled timings are expressed against. It
# is the kernel's median on the 2-core machine the bounds were set on, so
# rescaled values there read close to quiet-machine wall time.
REFERENCE_S = 2.6e-4

_BASIS = np.array([[(7 * i + 3 * j) % 11 - 5 + (9 if i == j else 0)
                    for j in range(6)] for i in range(6)], dtype=float)


def _kernel():
    rows = [[Fraction((i * 5 + j * 3) % 7 + 1, (i + j) % 3 + 1) for j in range(4)]
            for i in range(4)]
    for c in range(4):
        for r in range(c + 1, 4):
            f = rows[r][c] / rows[c][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    u = [[int(i == j) for j in range(6)] for i in range(6)]
    b = _BASIS.copy()
    for k in range(1, 6):
        for j in range(k):
            mu = round(float(b[:, k] @ b[:, j]) / float(b[:, j] @ b[:, j]))
            if mu:
                b[:, k] -= mu * b[:, j]
                for i in range(6):
                    u[i][k] -= mu * u[i][j]
    count = 0

    def search(level, dist):
        nonlocal count
        half = math.sqrt(max(0.0, 9.0 - dist))
        for x in range(math.ceil(-half), math.floor(half) + 1):
            if level == 0:
                count += 1
            else:
                search(level - 1, dist + x * x)

    search(3, 0.0)
    return count


def measure():
    """Kernel seconds: the faster of two back-to-back runs (the first warms)."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def scale_factors(samples):
    """Per-operation factors REFERENCE_S / local kernel time.

    samples[i] is the kernel time measured just before operation i, plus one
    final sample after the last operation; operation i uses the median of
    samples i-1 .. i+2, the two on each side of it.
    """
    n = len(samples) - 1
    return [REFERENCE_S / statistics.median(samples[max(0, i - 1):i + 3])
            for i in range(n)]
