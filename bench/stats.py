"""Arithmetic of the reported figures, kept apart so it can be tested on fixed
inputs."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
TAIL_MIN_BEYOND = 10


def percentile(values, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def beyond(n, p):
    """How many of n samples lie above the p-th percentile rank."""
    return n - math.ceil(n * p / 100.0)


def tail_level(n):
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples beyond
    it, and that sample count.  Below 20 samples no level qualifies and the
    median is used."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if beyond(n, p) >= TAIL_MIN_BEYOND:
            best = p
    return best, beyond(n, best)


def share(part, whole):
    """part / whole for a count of instances attempted (whole >= 1)."""
    if whole < 1:
        raise ValueError("share of zero instances attempted")
    if not 0 <= part <= whole:
        raise ValueError(f"part {part} outside 0..{whole}")
    return part / whole


def quartile_spread(values):
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf
