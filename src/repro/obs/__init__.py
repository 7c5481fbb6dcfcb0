"""Request-scoped observability: phase spans, latency histograms, export.

The paper's evaluation (§5, Figure 4) is entirely observational —
message counts, mean RTT, and worst cases attributed to specific request
phases.  This package provides the machinery to make those attributions
first-class: :class:`Span`/:class:`RequestTrace` record one request's
phase timeline on the simulated clock, :class:`MetricsRegistry`
aggregates counters and fixed-bucket latency histograms, and
:class:`Observability` ties both together.  It is always on: every
request is traced, and what it retains is bounded (:data:`MAX_TRACES`
traces, fixed-size histograms).
"""

from .metrics import DEFAULT_LATENCY_BUCKETS, Counter, Histogram, MetricsRegistry
from .observability import MAX_TRACES, Observability
from .span import PHASES, RequestTrace, Span

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Histogram",
    "MAX_TRACES",
    "MetricsRegistry",
    "Observability",
    "PHASES",
    "RequestTrace",
    "Span",
]
