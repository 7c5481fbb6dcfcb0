"""Client-side circuit breaker for the SWS-proxy.

The paper's proxy recovers from individual faults by re-binding inside
one invocation; what it cannot do is stop *sending* when a b-peer group
is persistently unhealthy — every call still burns a full timeout/retry
budget before failing.  The breaker closes that gap on the client side:

* **closed** — calls flow; outcomes feed a sliding window of the last
  ``window`` calls.  Once at least ``min_calls`` samples exist and the
  failure rate reaches ``failure_threshold``, the breaker trips open.
* **open** — calls are rejected locally (no network traffic) until
  ``open_duration`` simulated seconds have elapsed, then the breaker
  moves to half-open.
* **half-open** — up to ``half_open_probes`` trial calls are admitted.
  A probe success closes the breaker (window reset); a probe failure
  re-opens it for another ``open_duration``.

Scope is per chosen advertisement (service + shard), so one melted
shard cannot blackhole its siblings.  Every transition and rejection is
journalled so the checker can audit the "never reject a provably
healthy service" invariant offline: an open interval must be justified
by ``min_calls``/``failure_threshold`` evidence, and every rejection
must fall inside a justified open interval.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

__all__ = ["BreakerSpec", "BreakerTransition", "CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerSpec:
    """Tuning knobs, carried by ``ScenarioConfig(circuit_breaker=...)``."""

    window: int = 16
    min_calls: int = 4
    failure_threshold: float = 0.5
    open_duration: float = 4.0
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not 1 <= self.min_calls <= self.window:
            raise ValueError("min_calls must be in [1, window]")
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        if self.open_duration <= 0.0:
            raise ValueError("open_duration must be positive")
        if self.half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")


@dataclass(frozen=True)
class BreakerTransition:
    """One audit-log entry: why the breaker changed state."""

    at: float
    source: str
    target: str
    failures: int
    calls: int


class CircuitBreaker:
    """One breaker instance, scoped to a single (service, shard) binding."""

    def __init__(self, spec: BreakerSpec, scope: str = "", metrics=None):
        self.spec = spec
        self.scope = scope
        self.metrics = metrics
        self.state = CLOSED
        self._window: Deque[bool] = deque(maxlen=spec.window)
        self._opened_at: Optional[float] = None
        self._probes_in_flight = 0
        #: Audit logs (newest last), bounded like ``SemanticResultCache.serves``;
        #: the ``breaker.*`` counters are the running totals.
        self.transitions: Deque[BreakerTransition] = deque(maxlen=8192)
        self.rejections: Deque[float] = deque(maxlen=8192)

    # -- call admission ----------------------------------------------------------------

    def allow(self, now: float) -> bool:
        """May a call proceed right now?  (Moves open→half-open when ripe.)"""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if self._opened_at is not None and now - self._opened_at >= self.spec.open_duration:
                self._transition(now, HALF_OPEN)
                self._probes_in_flight = 1
                return True
            return False
        # half-open: admit at most half_open_probes concurrent trial calls
        if self._probes_in_flight < self.spec.half_open_probes:
            self._probes_in_flight += 1
            return True
        return False

    def reject(self, now: float) -> None:
        """Record that a call was turned away at the breaker."""
        self.rejections.append(now)
        if self.metrics is not None:
            self.metrics.inc("breaker.rejected")

    # -- outcome feedback --------------------------------------------------------------

    def record_success(self, now: float) -> None:
        if self.state == HALF_OPEN:
            self._probes_in_flight = max(0, self._probes_in_flight - 1)
            self._window.clear()
            self._transition(now, CLOSED)
            return
        if self.state == CLOSED:
            self._window.append(True)

    def record_failure(self, now: float) -> None:
        if self.state == HALF_OPEN:
            self._probes_in_flight = max(0, self._probes_in_flight - 1)
            self._trip(now)
            return
        if self.state == CLOSED:
            self._window.append(False)
            if len(self._window) >= self.spec.min_calls and self.failure_rate >= self.spec.failure_threshold:
                self._trip(now)

    # -- introspection -----------------------------------------------------------------

    @property
    def failure_rate(self) -> float:
        if not self._window:
            return 0.0
        return self._window.count(False) / len(self._window)

    @property
    def calls_in_window(self) -> int:
        return len(self._window)

    def open_intervals(self, horizon: float) -> List[tuple]:
        """(start, end) spans during which the breaker was not closed.

        ``horizon`` caps a still-open trailing interval.  Used by the
        checker to validate that every rejection is covered.
        """
        spans = []
        started: Optional[float] = None
        for tr in self.transitions:
            if tr.target == CLOSED:
                if started is not None:
                    spans.append((started, tr.at))
                    started = None
            elif started is None:
                # A bounded log may begin mid-span: not closed since
                # before its first retained record.
                started = tr.at if tr.source == CLOSED else float("-inf")
        if started is not None:
            spans.append((started, horizon))
        return spans

    # -- internals ---------------------------------------------------------------------

    def _trip(self, now: float) -> None:
        self._opened_at = now
        self._transition(now, OPEN)

    def _transition(self, now: float, target: str) -> None:
        source = self.state
        self.state = target
        self.transitions.append(
            BreakerTransition(
                at=now,
                source=source,
                target=target,
                failures=self._window.count(False),
                calls=len(self._window),
            )
        )
        if self.metrics is not None:
            if target == OPEN:
                self.metrics.inc("breaker.open")
            elif target == HALF_OPEN:
                self.metrics.inc("breaker.half_open")
