"""Sample summaries shared by the runner, the suite and the compare tool.

Quartiles use :func:`statistics.quantiles` with its default (exclusive)
method, so the spreads printed here are the ones a reader gets by feeding
the same samples to Python's standard library.
"""

from __future__ import annotations

import math
import statistics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least *p*
    percent of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def summary(values: list[float]) -> dict:
    """Median, quartiles, count and the raw samples of one metric."""
    q1, median, q3 = quartiles(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": list(values),
    }


def spread(summ: dict) -> float:
    """Interquartile distance as a share of the median (0 for n < 2)."""
    if summ["n"] < 2 or summ["median"] == 0:
        return 0.0
    return (summ["q3"] - summ["q1"]) / abs(summ["median"])


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0
