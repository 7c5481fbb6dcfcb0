"""Statistics helpers for benchmark reporting.

Small, dependency-light implementations of exactly what the harness needs:
summary statistics, percentiles, and an ordinary-least-squares linear fit
(used to verify Figure 4's "predictable linear increase" claim via r²).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["Summary", "summarize", "percentile", "linear_fit", "LinearFit"]


@dataclass(frozen=True)
class Summary:
    """Summary statistics of one sample."""

    count: int
    mean: float
    stdev: float
    minimum: float
    p50: float
    p95: float
    p99: float
    maximum: float


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    fraction = rank - low
    # The a + (b - a) * f form (with clamping) is monotone in f under IEEE
    # rounding, so p95 <= p99 always holds; the algebraically equivalent
    # a*(1-f) + b*f form is not.
    interpolated = ordered[low] + (ordered[high] - ordered[low]) * fraction
    return min(max(interpolated, ordered[low]), ordered[high])


def summarize(values: Sequence[float]) -> Summary:
    """Full summary of a sample (raises on empty input)."""
    if not values:
        raise ValueError("summarize() needs at least one value")
    count = len(values)
    low, high = min(values), max(values)
    # The true mean always lies in [min, max]; float summation can drift a
    # ULP outside, so clamp.
    mean = min(max(sum(values) / count, low), high)
    if count > 1:
        variance = sum((v - mean) ** 2 for v in values) / (count - 1)
        stdev = math.sqrt(variance)
    else:
        stdev = 0.0
    return Summary(
        count=count,
        mean=mean,
        stdev=stdev,
        minimum=low,
        p50=percentile(values, 50),
        p95=percentile(values, 95),
        p99=percentile(values, 99),
        maximum=high,
    )


@dataclass(frozen=True)
class LinearFit:
    """An OLS fit ``y = slope * x + intercept`` with its r²."""

    slope: float
    intercept: float
    r_squared: float


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Ordinary least squares over the paired samples."""
    if len(xs) != len(ys):
        raise ValueError("x and y lengths differ")
    n = len(xs)
    if n < 2:
        raise ValueError("linear fit needs at least two points")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    ss_xx = sum((x - mean_x) ** 2 for x in xs)
    ss_xy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    ss_yy = sum((y - mean_y) ** 2 for y in ys)
    if ss_xx == 0:
        raise ValueError("degenerate fit: all x values are equal")
    slope = ss_xy / ss_xx
    intercept = mean_y - slope * mean_x
    # A flat series has no variance to explain; call the fit perfect.  The
    # tolerance is relative to the magnitude of y so float roundoff in the
    # mean does not turn an exactly-constant series into r² = 0.
    flat_threshold = 1e-20 * max(1.0, mean_y * mean_y) * n
    if ss_yy <= flat_threshold:
        r_squared = 1.0
    else:
        residual = sum(
            (y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys)
        )
        r_squared = 1.0 - residual / ss_yy
    return LinearFit(slope=slope, intercept=intercept, r_squared=r_squared)
