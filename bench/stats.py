"""Order statistics for the benchmark's own samples."""

from __future__ import annotations

import statistics
from typing import Sequence


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = p / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def lower_quartile(values: Sequence[float]) -> float:
    """First quartile of a non-empty sample.

    Where the machine can only add time (a boot, a kill's slice), the
    low quarter of the repeats are the undisturbed ones.
    """
    if len(values) < 3:  # ``quantiles`` would extrapolate below the sample
        return min(values)
    return statistics.quantiles(values, n=4)[0]


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (the driver's rule)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``.

    Positive means worse, whichever direction the metric counts as
    better; negative means improved.
    """
    if not base:
        return 0.0 if not new else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change
