"""Order statistics the benchmark reports: medians and tails.

A tail is the highest of a fixed ladder of percentiles that still has at
least ten samples beyond it, so a reported tail is never a maximum and never
rests on a handful of samples.  With too few samples there is no tail.
"""

import math
import statistics
from fractions import Fraction

TAIL_LADDER = (90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def rank(p, n):
    """Nearest-rank index (1-based) of percentile p among n samples, in exact
    arithmetic (99.9 / 100 * 10000 is 9990.000000000002 in floating point)."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def tail(samples):
    """Returns (value, percentile, samples_beyond) or None when no rung of
    TAIL_LADDER has MIN_BEYOND samples beyond it."""
    n = len(samples)
    best = None
    for p in TAIL_LADDER:
        beyond = n - rank(p, n)
        if beyond >= MIN_BEYOND:
            best = (p, beyond)
    if best is None:
        return None
    ordered = sorted(samples)
    p, beyond = best
    return ordered[rank(p, n) - 1], p, beyond


def median(samples):
    return statistics.median(samples)
