"""Order statistics for the benchmark's latency report.

Percentiles are nearest-rank on integer percents, so the rank never
depends on float rounding (``0.9 * 100`` is ``90.00000000000001``).
"""

from __future__ import annotations

#: Latencies are reported as p50 and p90; p90 needs this many samples
#: strictly beyond it before it is worth printing.
P90 = 90
MIN_BEYOND = 10


def rank(percent: int, count: int) -> int:
    """1-based nearest rank of the ``percent``-th percentile of ``count``
    samples: ``ceil(percent * count / 100)``, at least 1."""
    if count < 1:
        raise ValueError("percentile of an empty sample")
    return max(1, -(-percent * count // 100))


def percentile(values: list[float], percent: int) -> float:
    ordered = sorted(values)
    return ordered[rank(percent, len(ordered)) - 1]


def beyond(percent: int, count: int) -> int:
    """How many of ``count`` samples lie strictly above the percentile's
    rank."""
    return count - rank(percent, count)


def samples_needed(percent: int = P90, at_least: int = MIN_BEYOND) -> int:
    """Smallest sample count that leaves ``at_least`` samples beyond the
    ``percent``-th percentile (100 for p90 with ten beyond)."""
    count = 1
    while beyond(percent, count) < at_least:
        count += 1
    return count
