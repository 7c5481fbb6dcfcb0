"""Dead-letter queue for sagas whose compensation exhausted its budget.

A saga that cannot finish compensating is the one failure the
orchestrator must not swallow: its partial effects are real business
state (a registered loan with no booking, reserved funds never
released), and silently dropping the record would strand them forever.
Such sagas park here — with the failed step, the reason, and a snapshot
of the saga context — for operator inspection and requeue
(``python -m repro dlq``).  Requeued sagas get a fresh compensation
budget via :meth:`~repro.workflow.saga.SagaOrchestrator.requeue`.

The queue is part of the orchestrator's durable state: like the
:class:`~repro.workflow.saga.SagaLog` it models disk, surviving host
crashes by object lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["DeadLetterEntry", "DeadLetterQueue"]


@dataclass
class DeadLetterEntry:
    """One parked saga: what failed, why, and the state it left behind."""

    saga_id: str
    saga: str
    failed_step: str
    reason: str
    parked_at: float
    #: Saga context at parking time (committed step outputs included) —
    #: what an operator needs to finish the rollback by hand.
    context: Dict[str, Any] = field(default_factory=dict)
    #: Step states at parking time, ``name -> state``.
    step_states: Dict[str, str] = field(default_factory=dict)
    #: Times this entry was requeued for another compensation round.
    requeues: int = 0
    requeued_at: Optional[float] = None

    @property
    def pending(self) -> bool:
        """Still awaiting resolution (never requeued, or parked again)."""
        return self.requeued_at is None or self.requeued_at < self.parked_at

    def to_dict(self) -> Dict[str, Any]:
        return {
            "saga_id": self.saga_id,
            "saga": self.saga,
            "failed_step": self.failed_step,
            "reason": self.reason,
            "parked_at": self.parked_at,
            "context": dict(self.context),
            "step_states": dict(self.step_states),
            "requeues": self.requeues,
            "requeued_at": self.requeued_at,
        }

    def describe(self) -> str:
        flag = "pending" if self.pending else f"requeued x{self.requeues}"
        return (
            f"{self.saga_id} [{flag}] step={self.failed_step} "
            f"t={self.parked_at:.2f} — {self.reason}"
        )


class DeadLetterQueue:
    """Durable parking lot for sagas compensation could not finish."""

    def __init__(self):
        self._entries: Dict[str, DeadLetterEntry] = {}
        #: Total sagas ever parked (re-parks after a failed requeue count).
        self.parked = 0

    def push(self, record, failed_step: str, reason: str, now: float) -> DeadLetterEntry:
        """Park ``record`` (a :class:`~repro.workflow.saga.SagaRecord`).

        A saga re-parked after a failed requeue updates its existing
        entry in place, keeping the requeue count.
        """
        entry = self._entries.get(record.saga_id)
        if entry is None:
            entry = DeadLetterEntry(
                saga_id=record.saga_id,
                saga=record.saga,
                failed_step=failed_step,
                reason=reason,
                parked_at=now,
                context=dict(record.context),
                step_states={s.name: s.state for s in record.steps},
            )
            self._entries[record.saga_id] = entry
        else:
            entry.failed_step = failed_step
            entry.reason = reason
            entry.parked_at = now
            entry.context = dict(record.context)
            entry.step_states = {s.name: s.state for s in record.steps}
        self.parked += 1
        return entry

    def mark_requeued(self, saga_id: str, now: float) -> None:
        entry = self._entries.get(saga_id)
        if entry is not None:
            entry.requeues += 1
            entry.requeued_at = now

    def entries(self) -> List[DeadLetterEntry]:
        return list(self._entries.values())

    def pending(self) -> List[DeadLetterEntry]:
        return [entry for entry in self._entries.values() if entry.pending]

    def export(self) -> List[Dict[str, Any]]:
        return [entry.to_dict() for entry in self._entries.values()]
