"""Order statistics for benchmark timings.

A failed operation counts as an infinite latency: it misses every limit,
so it can only push percentiles up.  Tail percentiles are reported only
where at least ten samples lie beyond them.
"""

from __future__ import annotations

import math
import statistics

#: percentiles a tail can be reported at, lowest first
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values) -> tuple[float, float]:
    """(Q1, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failures) sort last."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[rank - 1]


def beyond(count: int, p: float) -> int:
    """Samples strictly above the nearest-rank ``p`` percentile of ``count``."""
    return count - math.ceil(p / 100.0 * count)


def min_samples(p: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count with ``min_beyond`` samples beyond ``p``."""
    count = 1
    while beyond(count, p) < min_beyond:
        count += 1
    return count


def tail_percentile(values, min_beyond: int = MIN_BEYOND):
    """The highest of ``TAIL_PERCENTILES`` with ``min_beyond`` samples
    beyond it, as ``(p, value)``; ``None`` when even the median lacks them."""
    ordered = sorted(values)
    chosen = None
    for p in TAIL_PERCENTILES:
        if beyond(len(ordered), p) >= min_beyond:
            chosen = (p, percentile(ordered, p))
    return chosen


def failure_share(failed: int, attempted: int) -> tuple[float, int]:
    """(failed / attempted, attempted): a share is never given without its base."""
    if attempted <= 0:
        raise ValueError("failure share needs at least one attempt")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures out of {attempted} attempts")
    return failed / attempted, attempted
