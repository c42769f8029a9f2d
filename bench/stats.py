"""Order statistics used by the benchmark and its spread check."""

from __future__ import annotations

import math
import statistics


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) by linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must lie in [0, 100]")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def relative_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median.

    Quartiles are those of ``statistics.quantiles(values, n=4)``.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
