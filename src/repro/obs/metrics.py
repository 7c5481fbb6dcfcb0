"""A lightweight metrics registry: counters and fixed-bucket histograms.

This is the aggregation half of the observability layer: spans measure
*one* request; the registry accumulates *all* of them (plus the message
counters :class:`~repro.simnet.trace.MessageTrace` and the proxy/election
stats feed in) into a form benchmarks can report — "p99 RTT is
bind-phase dominated" instead of a single number.

Histograms use fixed upper-bound buckets (Prometheus-style) so that
recording is O(log buckets) with zero allocation, and quantiles are
estimated by linear interpolation inside the owning bucket.  Neither
grows with the number of samples, so the registry stays bounded however
long a deployment runs.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Histogram", "MetricsRegistry", "DEFAULT_LATENCY_BUCKETS"]

#: Upper bounds (seconds) spanning the paper's observed range: sub-ms
#: failure-free RTTs (§5: "approximately 0.5 milliseconds") up to the
#: multi-second worst cases after a coordinator crash.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Histogram:
    """A fixed-bucket latency histogram (upper-bound buckets + overflow)."""

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name}: bounds must be sorted and non-empty")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        #: One slot per bound plus the overflow (> last bound) slot.
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one sample (seconds)."""
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    # -- statistics ------------------------------------------------------------

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile (0 ≤ q ≤ 1) from the buckets.

        Linear interpolation inside the owning bucket; the overflow bucket
        reports the observed maximum (no upper bound to interpolate to).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return None
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                if index == len(self.bounds):
                    return self.max
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = self.bounds[index]
                fraction = (rank - cumulative) / bucket_count
                estimate = lower + fraction * (upper - lower)
                # The interpolated estimate can overshoot the observed
                # range when samples cluster at a bucket's edge; clamp it.
                return max(self.min, min(self.max, estimate))
            cumulative += bucket_count
        return self.max

    def snapshot(self) -> Dict[str, Any]:
        """Headline statistics for reporting."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "min": self.min,
            "max": self.max,
        }

    def to_dict(self) -> Dict[str, Any]:
        """Full export, including per-bucket counts."""
        data = self.snapshot()
        data["buckets"] = [
            {"le": bound, "count": count}
            for bound, count in zip(self.bounds, self.bucket_counts)
        ]
        data["buckets"].append({"le": None, "count": self.bucket_counts[-1]})
        return data

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count}>"


class MetricsRegistry:
    """Named counters and fixed-bucket histograms."""

    def __init__(self):
        self.counters: Dict[str, Counter] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- recording ----------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name, bounds)
        return histogram

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name``: one lookup, the increment inlined."""
        counter = self.counters.get(name) or self.counter(name)
        if amount < 0:
            raise ValueError(f"counter {name}: negative increment {amount}")
        counter.value += amount

    def observe(
        self,
        name: str,
        value: float,
        bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        """Record one histogram sample."""
        (self.histograms.get(name) or self.histogram(name, bounds)).observe(value)

    # -- export -----------------------------------------------------------------------

    def to_json(self, indent: Optional[int] = None) -> str:
        payload = {
            "counters": {name: c.value for name, c in sorted(self.counters.items())},
            "histograms": {
                name: h.to_dict() for name, h in sorted(self.histograms.items())
            },
        }
        return json.dumps(payload, indent=indent)
