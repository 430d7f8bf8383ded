"""Small shared statistics helpers."""

from __future__ import annotations

import numpy as np


def wilson_interval(successes, trials, z=3.2905):
    """Wilson score interval for a binomial proportion.

    Default z covers ~99.9% two-sided.  Behaves sanely at 0 and n.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def affine_fit(x, y):
    """Least-squares slope and intercept of y against x."""
    slope, intercept = np.polyfit(np.asarray(x, float), np.asarray(y, float), 1)
    return float(slope), float(intercept)
