"""Order statistics with the sample-count rule.

A timing is reported as a median plus a tail percentile, and a tail
percentile is only *supported* when at least :data:`MIN_BEYOND` samples
lie beyond it: with fewer, the "percentile" is one or two outliers, not
a property of the distribution.  Percentiles use the nearest-rank
definition, so every reported value is a sample that was measured.
"""

from __future__ import annotations

import math
from typing import Sequence

#: samples that must lie strictly beyond a percentile for it to count
MIN_BEYOND = 10

#: the tail percentiles tried, highest first
LADDER = (99.9, 99.0, 90.0, 50.0)


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile of ``n`` samples
    (rounded first, so 99.9% of 10,000 is rank 9,990, not 9,991)."""
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), q) - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th."""
    return n - _rank(n, q)


def supported(n: int, q: float) -> bool:
    """True when ``n`` samples support a ``q``-th percentile."""
    return beyond(n, q) >= MIN_BEYOND


def highest_supported(n: int) -> "float | None":
    """The highest :data:`LADDER` percentile ``n`` samples support."""
    for q in LADDER:
        if supported(n, q):
            return q
    return None
