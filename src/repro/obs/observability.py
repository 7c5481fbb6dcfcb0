"""The observability facade: request traces + metrics, always on.

One :class:`Observability` instance lives on the
:class:`~repro.simnet.network.Network` (mirroring how
:class:`~repro.simnet.trace.MessageTrace` is the network-wide message
monitor), so every component — proxies, b-peers, electors — reaches it
via ``node.network.obs`` without extra constructor plumbing.

It keeps the last :data:`MAX_TRACES` :class:`~repro.obs.span.RequestTrace`
trees and folds every phase duration into per-phase latency histograms.
Recording is purely in-process: it sends no message, so the Figure-4
counts do not depend on it.

Recording does one lookup per fact (DESIGN.md §6.18): phase histograms are
handles bound on first use, since a registry is never reset, and a trace
is folded over its child lists in :meth:`~repro.obs.span.Span.walk` order.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from .metrics import Histogram, MetricsRegistry
from .span import PHASES, RequestTrace

__all__ = ["MAX_TRACES", "Observability"]

#: Request traces retained (oldest evicted): the only per-request
#: structure observability keeps.
MAX_TRACES = 512


class Observability:
    """Request tracing and metrics for one simulated deployment."""

    def __init__(self):
        self.metrics = MetricsRegistry()
        #: Recent completed-or-in-flight request traces, oldest evicted.
        self.traces: Deque[RequestTrace] = deque(maxlen=MAX_TRACES)
        #: Phase-histogram handles by phase name, bound on first use.
        self._phase_hists: Dict[str, Histogram] = {}

    # -- request lifecycle ------------------------------------------------------

    def request_trace(
        self, operation: str, request_id: int, now: float
    ) -> RequestTrace:
        """Open a trace for one proxy invocation (or one saga)."""
        trace = RequestTrace(operation, request_id, now)
        self.traces.append(trace)
        return trace

    def finish_request(
        self, trace: RequestTrace, now: float, status: str = "ok"
    ) -> None:
        """Close ``trace`` and fold its phase durations into the metrics."""
        self.metrics.inc("requests.total")
        self.metrics.inc("requests.ok" if status == "ok" else "requests.failed")
        trace.finish(now, status=status)
        self.metrics.observe("request.duration", trace.duration)
        for phase, seconds in trace.phase_durations().items():
            self._phase_histogram(phase).observe(seconds)

    def observe_phase(self, phase: str, seconds: float) -> None:
        """Record a phase duration outside any request trace (e.g. ``elect``)."""
        self._phase_histogram(phase).observe(seconds)

    def _phase_histogram(self, phase: str) -> Histogram:
        """``phase.<phase>``'s histogram, bound on first use."""
        histogram = self._phase_hists.get(phase)
        if histogram is None:
            name = f"phase.{phase}"
            histogram = self._phase_hists[phase] = self.metrics.histogram(name)
        return histogram

    # -- aggregation -------------------------------------------------------------

    def phase_summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-phase latency statistics, always covering every canonical phase.

        Phases with no samples report ``count == 0`` (all other fields
        ``None``) so reports and tests can rely on the keys being present.
        """
        empty = {
            "count": 0, "mean": None, "p50": None, "p95": None,
            "p99": None, "min": None, "max": None,
        }
        summary: Dict[str, Dict[str, Any]] = {}
        for phase in PHASES:
            histogram = self.metrics.histograms.get(f"phase.{phase}")
            summary[phase] = histogram.snapshot() if histogram else dict(empty)
        # Ad-hoc phases recorded beyond the canonical set still show up.
        for name, histogram in sorted(self.metrics.histograms.items()):
            phase = name[len("phase."):]
            if name.startswith("phase.") and phase not in summary:
                summary[phase] = histogram.snapshot()
        return summary

    # -- export -------------------------------------------------------------------

    def recent_traces(self, limit: Optional[int] = None) -> List[RequestTrace]:
        """The ``limit`` most recent traces (all when ``None``), oldest first."""
        traces = list(self.traces)
        if limit is None:
            return traces
        if limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        return traces[-limit:] if limit else []

    def traces_to_json(
        self, limit: Optional[int] = None, indent: Optional[int] = None
    ) -> str:
        payload = [trace.to_dict() for trace in self.recent_traces(limit)]
        return json.dumps(payload, indent=indent)

    def phases_to_csv(self) -> str:
        """Phase breakdown as CSV, consumable by offline plotting."""
        lines = ["phase,count,mean,p50,p95,p99,min,max"]
        for phase, stats in self.phase_summary().items():
            cells = [phase] + [
                "" if stats[key] is None else repr(stats[key])
                for key in ("count", "mean", "p50", "p95", "p99", "min", "max")
            ]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json(self, indent: Optional[int] = None) -> str:
        """Phases + full metrics registry as one JSON document."""
        payload = {
            "phases": self.phase_summary(),
            "metrics": json.loads(self.metrics.to_json()),
        }
        return json.dumps(payload, indent=indent)
