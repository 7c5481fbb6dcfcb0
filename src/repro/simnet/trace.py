"""Global instrumentation: message counters and packet timestamps.

The paper's benchmark (§5) measures two things:

* *the number of messages exchanged* as b-peers are added (Figure 4), and
* *round-trip times*, "the time interval from the moment at which a request
  packet is time-stamped by the monitor to the moment at which a reply
  packet is time-stamped".

:class:`MessageTrace` is the single source of truth for both.  The network
layer notifies it of every send/deliver/drop; higher layers use
:meth:`stamp_request`/:meth:`stamp_reply` to record RTT samples exactly as
the paper's monitor does.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..obs.metrics import MetricsRegistry

__all__ = ["MessageTrace", "TraceRecord", "RttSample"]


@dataclass
class TraceRecord:
    """One message event kept when detailed recording is enabled."""

    time: float
    event: str  # "send", "deliver", or "drop"
    category: str
    src: Tuple[str, int]
    dst: Tuple[str, int]
    size_bytes: int
    msg_id: int


@dataclass
class RttSample:
    """One request/reply round trip observed by the monitor."""

    correlation_id: int
    request_at: float
    reply_at: float

    @property
    def rtt(self) -> float:
        return self.reply_at - self.request_at


@dataclass
class MessageTrace:
    """Counts and (optionally) records every message on the network."""

    record_details: bool = False
    sent_total: int = 0
    delivered_total: int = 0
    dropped_total: int = 0
    bytes_total: int = 0
    sent_by_category: Counter = field(default_factory=Counter)
    records: List[TraceRecord] = field(default_factory=list)
    _pending_rtt: Dict[int, float] = field(default_factory=dict)
    #: The most recent round trips (a ring, like the other audit records).
    rtt_samples: Deque[RttSample] = field(default_factory=lambda: deque(maxlen=8192))
    _metrics: Optional[MetricsRegistry] = field(default=None, repr=False)
    #: The registry's ``net.*`` counters, bound when :attr:`metrics` is set
    #: so the per-message hooks skip the name lookups (all four or none),
    #: and its ``net.rtt`` histogram, bound on the first round trip.
    _net_sent = _net_bytes = _net_delivered = _net_dropped = _net_rtt = None

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        """Optional :class:`~repro.obs.metrics.MetricsRegistry` mirror: when
        set (WhisperSystem wires its own), headline message counters also
        land in the registry so one JSON export covers network traffic
        alongside phase latencies.
        """
        return self._metrics

    @metrics.setter
    def metrics(self, registry: Optional[MetricsRegistry]) -> None:
        self._metrics = registry
        mirrored = registry is not None
        self._net_sent = registry.counter("net.sent") if mirrored else None
        self._net_bytes = registry.counter("net.bytes") if mirrored else None
        self._net_delivered = registry.counter("net.delivered") if mirrored else None
        self._net_dropped = registry.counter("net.dropped") if mirrored else None
        self._net_rtt = None

    # -- network hooks ---------------------------------------------------------

    def on_send(self, time: float, message) -> None:
        self.sent_total += 1
        self.bytes_total += message.size_bytes
        self.sent_by_category[message.category] += 1
        if self._net_sent is not None:
            self._net_sent.value += 1
            self._net_bytes.value += message.size_bytes
        if self.record_details:
            self.records.append(
                TraceRecord(
                    time,
                    "send",
                    message.category,
                    message.src,
                    message.dst,
                    message.size_bytes,
                    message.msg_id,
                )
            )

    def on_deliver(self, time: float, message) -> None:
        self.delivered_total += 1
        if self._net_delivered is not None:
            self._net_delivered.value += 1
        if self.record_details:
            self.records.append(
                TraceRecord(
                    time,
                    "deliver",
                    message.category,
                    message.src,
                    message.dst,
                    message.size_bytes,
                    message.msg_id,
                )
            )

    def on_drop(self, time: float, message, reason: str = "") -> None:
        self.dropped_total += 1
        if self._net_dropped is not None:
            self._net_dropped.value += 1
        if self.record_details:
            self.records.append(
                TraceRecord(
                    time,
                    "drop",
                    message.category,
                    message.src,
                    message.dst,
                    message.size_bytes,
                    message.msg_id,
                )
            )

    # -- RTT monitor (paper §5) --------------------------------------------------

    def stamp_request(self, correlation_id: int, time: float) -> None:
        """Time-stamp an outgoing request packet."""
        self._pending_rtt[correlation_id] = time

    def stamp_reply(self, correlation_id: int, time: float) -> None:
        """Time-stamp the matching reply packet; records an RTT sample."""
        start = self._pending_rtt.pop(correlation_id, None)
        if start is not None:
            self.rtt_samples.append(RttSample(correlation_id, start, time))
            if self._metrics is not None:
                if self._net_rtt is None:
                    self._net_rtt = self._metrics.histogram("net.rtt")
                self._net_rtt.observe(time - start)

    def cancel_request(self, correlation_id: int) -> None:
        """Forget a request stamp whose reply will never come (timeout,
        crash); a no-op when the reply has been stamped."""
        self._pending_rtt.pop(correlation_id, None)

    def rtts(self) -> List[float]:
        """All observed round-trip times, in seconds."""
        return [sample.rtt for sample in self.rtt_samples]

    # -- reporting ----------------------------------------------------------------

    def snapshot(self) -> Dict[str, int]:
        """Cheap copy of the headline counters."""
        return {
            "sent": self.sent_total,
            "delivered": self.delivered_total,
            "dropped": self.dropped_total,
            "bytes": self.bytes_total,
        }

    def category_breakdown(self) -> Dict[str, int]:
        """Messages sent, keyed by protocol category."""
        return dict(self.sent_by_category)

    def records_to_csv(self) -> str:
        """Detailed records as CSV (requires ``record_details=True``)."""
        lines = ["time,event,category,src_host,src_port,dst_host,dst_port,size_bytes,msg_id"]
        for record in self.records:
            lines.append(
                f"{record.time!r},{record.event},{record.category},"
                f"{record.src[0]},{record.src[1]},"
                f"{record.dst[0]},{record.dst[1]},"
                f"{record.size_bytes},{record.msg_id}"
            )
        return "\n".join(lines) + "\n"

    def rtts_to_csv(self) -> str:
        """RTT samples as CSV."""
        lines = ["correlation_id,request_at,reply_at,rtt"]
        for sample in self.rtt_samples:
            lines.append(
                f"{sample.correlation_id},{sample.request_at!r},"
                f"{sample.reply_at!r},{sample.rtt!r}"
            )
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Zero completed counters and samples (e.g. after a warm-up phase).

        Request stamps still awaiting their reply (``_pending_rtt``) are
        deliberately *preserved*: a request in flight across the reset
        boundary completes into a normal RTT sample instead of being
        silently dropped.  Only fully observed data — counters, detail
        records, and completed RTT samples — is cleared.
        """
        self.sent_total = 0
        self.delivered_total = 0
        self.dropped_total = 0
        self.bytes_total = 0
        self.sent_by_category.clear()
        self.records.clear()
        self.rtt_samples.clear()
