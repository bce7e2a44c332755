"""Summary statistics shared by the benchmark's workloads and its traced run."""

from __future__ import annotations

import statistics

# A tail percentile is reported only where this many samples lie beyond it.
TAIL_BEYOND = 10


def tail(latencies, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, samples)``. The value is the
    ``(beyond + 1)``-th largest latency, so exactly ``beyond`` samples lie
    beyond it and ``100 * (n - beyond) / n`` percent lie at or below it.
    With ``beyond`` samples or fewer no percentile qualifies; the smallest
    sample is returned with percentile 0.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n == 0:
        raise ValueError("no latencies to summarise")
    k = max(n - beyond, 1)
    percentile = 100.0 * k / n if n > beyond else 0.0
    return ordered[k - 1], percentile, n


def median(values) -> float:
    return float(statistics.median(values))


def mean_or_zero(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
