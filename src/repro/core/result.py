"""Typed invocation results.

The seed's ``SwsProxy.invoke`` returned a bare value, which meant a caller
could not tell *how* the call went — whether recovery ran, how many
attempts it took, what coordinator term served it, or whether overload
shed it along the way.  :class:`InvokeResult` carries the value plus that
operational context; ``result.value`` keeps bare-value access one
attribute away, so migrating callers is mechanical.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

from ..election.epoch import Epoch

__all__ = ["InvokeOutcome", "InvokeResult"]


class InvokeOutcome(enum.Enum):
    """How an invocation reached its value.

    Failures raise (:class:`~repro.soap.fault.SoapFault` and the
    ``WhisperError`` family), so every returned result carries a success
    outcome — the enum records whether the fast path sufficed.
    """

    #: First attempt succeeded, no recovery machinery involved.
    OK = "ok"
    #: The request needed recovery (timeout, redirect, re-bind, stale
    #: epoch) before succeeding — its duration is a failover observation.
    RECOVERED = "recovered"
    #: The request was shed at least once (``server-busy``) and succeeded
    #: on a later, retry-after-honoring attempt.
    RETRIED_AFTER_SHED = "retried-after-shed"
    #: Served from the proxy's semantic result cache — no discovery, no
    #: bind, no network traffic (read-only operations only).
    CACHED = "cached"
    #: Served by a graceful-degradation fallback handler because the
    #: service's circuit breaker was open.
    DEGRADED = "degraded"


@dataclass(frozen=True)
class InvokeResult:
    """One successful invocation: the value plus how it was obtained."""

    #: The translated result value (what callers previously got bare).
    value: Any
    outcome: InvokeOutcome
    #: Coordinator epoch the result was produced under (None pre-epoch).
    epoch: Optional[Epoch]
    #: Send-and-wait attempts the proxy needed (1 = clean first try).
    attempts: int
    #: Client-observed duration in simulated seconds, retries included.
    duration: float
    #: Request id of the invocation's observability trace.
    trace_id: int
    #: Name of the backend implementation that served the request, when
    #: the b-peer reported it (e.g. ``student-lookup/warehouse``).
    served_by: Optional[str] = None
    #: How many ``server-busy`` sheds this invocation absorbed.
    shed_retries: int = 0
    #: True when the value was replayed from the group's dedup journal —
    #: a retried attempt observed the *original* execution's result
    #: (exactly-once delivery) instead of triggering a re-execution.
    deduped: bool = False
    #: Idempotency key the proxy minted for this logical call (``None``
    #: only for legacy callers that bypass the proxy).
    invocation_id: Optional[str] = None
    #: Id of the b-peer group that served the request (``None`` for
    #: cached/degraded results and legacy construction sites).
    group_id: Optional[Any] = None

    @property
    def recovered(self) -> bool:
        """True when failover recovery ran (a busy retry is not recovery)."""
        return self.outcome is InvokeOutcome.RECOVERED
