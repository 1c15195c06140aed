"""Percentiles that refuse to report what the sample cannot support."""

from __future__ import annotations

import math

#: A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """The nearest-rank *q*-th percentile of *values*.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond the chosen rank: p90 needs 100 samples, p99 needs 1000.
    """
    n = len(values)
    if not 0 < q < 100:
        raise ValueError("q must lie strictly between 0 and 100")
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {max(n - rank, 0)} samples beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return sorted(values)[rank - 1]


def median(values: list[float]) -> float:
    """Plain median (no tail requirement)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0
