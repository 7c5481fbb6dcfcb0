"""Saga orchestration: compensating multi-service B2B transactions.

A B2B process spanning several Whisper services cannot use a distributed
lock or two-phase commit — the paper's services are autonomous parties.
The classic answer is the **saga**: a sequence of steps where every
mutating step declares a *compensating* operation, and a failure after
partial progress runs the compensations in reverse commit order, leaving
the business state as if the saga never ran.

Fault tolerance comes from three pieces riding on the existing
machinery:

* **Proxy-backed steps** — every forward and compensating call goes
  through ``service.invoke`` (the SWS-Proxy pipeline): discovery,
  retry-with-deadline, epoch-fenced failover, overload shedding.
* **Write-ahead saga log** — the orchestrator durably records each
  step's intent *before* sending, under a deterministic idempotency key
  (``saga:<id>:<step>:fwd`` / ``:comp``).  A crashed orchestrator host
  restarts, replays the log, and re-issues in-doubt calls under the
  *same* key; the b-peer dedup journal answers retries from the original
  execution instead of re-executing — exactly-once across the crash.
* **Dead-letter queue** — a saga whose *compensation* exhausts its own
  retry budget cannot be silently dropped (that would strand partial
  effects); it parks in the :class:`~repro.workflow.dlq.DeadLetterQueue`
  for operator inspection and requeue (``python -m repro dlq``).

The checker invariant (:func:`repro.check.invariants.saga_atomicity_violations`)
audits the resulting guarantee: for every saga id the backend effect
logs show all steps committed or every applied step compensated — never
a mix.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence

from ..simnet.events import Timeout
from ..simnet.node import Node
from .engine import TASK_ERRORS, format_error
from .model import Context, ServiceTask, WorkflowError, WorkflowNode

__all__ = [
    "CompensableTask",
    "Saga",
    "SagaLog",
    "SagaOrchestrator",
    "SagaRecord",
    "SagaState",
    "StepRecord",
    "StepState",
    "saga_invocation_id",
]


def saga_invocation_id(saga_id: str, step: str, phase: str) -> str:
    """The deterministic idempotency key for one saga step phase.

    ``phase`` is ``"fwd"`` (forward operation) or ``"comp"``
    (compensation).  The key is derived purely from durable log state,
    so a restarted orchestrator re-mints the identical key and the
    b-peer dedup journal collapses the retry.  The structured form also
    lets the checker parse saga membership back out of backend
    ``effect_log`` entries.
    """
    return f"saga:{saga_id}:{step}:{phase}"


class StepState:
    """Lifecycle of one step inside a saga record."""

    PENDING = "pending"
    #: Forward intent durably logged; the call may or may not have
    #: applied (the in-doubt window a crash can leave behind).
    EXECUTING = "executing"
    COMMITTED = "committed"
    #: Forward terminally failed — the effect may still have applied
    #: (e.g. deadline expired after the b-peer committed), so failed
    #: steps are compensated like committed ones.
    FAILED = "failed"
    COMPENSATING = "compensating"
    COMPENSATED = "compensated"


class SagaState:
    """Lifecycle of a whole saga record."""

    RUNNING = "running"
    COMMITTED = "committed"
    COMPENSATING = "compensating"
    COMPENSATED = "compensated"
    #: Compensation disabled (baseline / checker self-test): the saga
    #: failed and its partial effects were deliberately stranded.
    ABANDONED = "abandoned"
    #: Compensation itself exhausted its budget; parked in the DLQ.
    DEAD_LETTERED = "dead-lettered"

    TERMINAL = (COMMITTED, COMPENSATED, ABANDONED, DEAD_LETTERED)


@dataclass
class CompensableTask(WorkflowNode):
    """One saga step: a forward operation plus its compensation.

    ``service`` must be proxy-backed (``invoke`` generator returning an
    :class:`~repro.core.result.InvokeResult`) — sagas only make sense on
    top of the fault-tolerant invocation pipeline.
    ``compensate_operation=None`` marks a read-only step (nothing to
    undo); ``compensate_mapping`` defaults to ``input_mapping``, and
    runs against the saga context *as of compensation time*, which
    includes every committed step's output.
    """

    name: str
    service: Any = None
    operation: str = ""
    input_mapping: Callable[[Context], Dict[str, Any]] = lambda context: {}
    compensate_operation: Optional[str] = None
    compensate_mapping: Optional[Callable[[Context], Dict[str, Any]]] = None
    output_key: Optional[str] = None
    timeout: float = 30.0
    budget: Optional[float] = None
    compensate_timeout: float = 30.0
    compensate_budget: Optional[float] = None

    @property
    def mutating(self) -> bool:
        return self.compensate_operation is not None

    @property
    def compensation_mapping(self) -> Callable[[Context], Dict[str, Any]]:
        return self.compensate_mapping or self.input_mapping

    def forward_task(self) -> ServiceTask:
        """The forward half as a plain :class:`ServiceTask` (QoS view)."""
        return ServiceTask(
            name=self.name,
            service=self.service,
            operation=self.operation,
            input_mapping=self.input_mapping,
            output_key=self.output_key,
            timeout=self.timeout,
            budget=self.budget,
        )

    def tasks(self) -> List[ServiceTask]:
        return [self.forward_task()]

    def validate(self) -> None:
        if not self.name:
            raise WorkflowError("compensable task needs a name")
        if self.service is None or not hasattr(self.service, "invoke"):
            raise WorkflowError(
                f"step {self.name!r}: needs a proxy-backed service "
                "(exposing invoke())"
            )
        if not self.operation:
            raise WorkflowError(f"step {self.name!r}: needs an operation")
        if not callable(self.input_mapping):
            raise WorkflowError(
                f"step {self.name!r}: input_mapping must be callable"
            )
        if self.compensate_mapping is not None and not callable(
            self.compensate_mapping
        ):
            raise WorkflowError(
                f"step {self.name!r}: compensate_mapping must be callable"
            )
        if self.compensate_mapping is not None and self.compensate_operation is None:
            raise WorkflowError(
                f"step {self.name!r}: compensate_mapping without "
                "compensate_operation"
            )


@dataclass
class Saga(WorkflowNode):
    """An ordered sequence of compensable steps, atomic as a whole."""

    name: str
    steps: Sequence[CompensableTask]

    def tasks(self) -> List[ServiceTask]:
        return [step.forward_task() for step in self.steps]

    def validate(self) -> None:
        if not self.name:
            raise WorkflowError("saga needs a name")
        if not self.steps:
            raise WorkflowError(f"saga {self.name!r}: needs at least one step")
        seen: set = set()
        for step in self.steps:
            if not isinstance(step, CompensableTask):
                raise WorkflowError(
                    f"saga {self.name!r}: steps must be CompensableTask, "
                    f"got {type(step).__name__}"
                )
            step.validate()
            if step.name in seen:
                raise WorkflowError(
                    f"saga {self.name!r}: duplicate step name {step.name!r}"
                )
            seen.add(step.name)


@dataclass
class StepRecord:
    """Durable per-step state inside a :class:`SagaRecord`."""

    name: str
    state: str = StepState.PENDING
    #: Whether the step declared a compensation (read-only steps don't);
    #: the atomicity audit needs this to know the full-commit step set.
    mutating: bool = True
    invocation_id: Optional[str] = None
    compensation_id: Optional[str] = None
    compensation_attempts: int = 0
    error: Optional[str] = None
    #: True when the forward value came back from a dedup-journal replay
    #: (a resumed in-doubt step observing its original execution).
    deduped: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "state": self.state,
            "mutating": self.mutating,
            "invocation_id": self.invocation_id,
            "compensation_id": self.compensation_id,
            "compensation_attempts": self.compensation_attempts,
            "error": self.error,
            "deduped": self.deduped,
        }


@dataclass
class SagaRecord:
    """One saga instance's durable state (and the run's result object)."""

    saga_id: str
    saga: str
    state: str = SagaState.RUNNING
    context: Context = field(default_factory=dict)
    steps: List[StepRecord] = field(default_factory=list)
    error: Optional[str] = None
    started_at: float = 0.0
    finished_at: Optional[float] = None

    @property
    def terminal(self) -> bool:
        return self.state in SagaState.TERMINAL

    @property
    def succeeded(self) -> bool:
        return self.state == SagaState.COMMITTED

    @property
    def elapsed(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def step(self, name: str) -> StepRecord:
        for record in self.steps:
            if record.name == name:
                return record
        raise KeyError(name)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "saga_id": self.saga_id,
            "saga": self.saga,
            "state": self.state,
            "error": self.error,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "steps": [s.to_dict() for s in self.steps],
        }


class SagaLog:
    """The orchestrator's write-ahead log, modeling its durable disk.

    Every state transition is written *before* the action it announces
    (intent before send, outcome after receive), mirroring the b-peer
    :class:`~repro.core.journal.DedupJournal`'s EXECUTING/DONE split.
    Durability is modeled by object lifetime: crashing the orchestrator
    host kills its processes (simnet ``Interrupt``) but the log object —
    held by the deployment, like a disk — keeps everything written
    before the crash, and a fresh orchestrator on the restarted host
    resumes from it via :meth:`SagaOrchestrator.recover`.
    """

    def __init__(self):
        self._records: "OrderedDict[str, SagaRecord]" = OrderedDict()
        #: Sagas ever opened (monotonic; records are never evicted).
        self.opened = 0

    def open(
        self,
        saga_id: str,
        saga_name: str,
        context: Context,
        steps: Sequence[Any],
        now: float,
    ) -> SagaRecord:
        """Open (or re-open, idempotently) the record for ``saga_id``.

        ``steps`` items are step names or ``(name, mutating)`` pairs.
        """
        existing = self._records.get(saga_id)
        if existing is not None:
            if existing.saga != saga_name:
                raise WorkflowError(
                    f"saga id {saga_id!r} already logged for {existing.saga!r}"
                )
            return existing
        step_records = []
        for spec in steps:
            if isinstance(spec, str):
                step_records.append(StepRecord(name=spec))
            else:
                name, mutating = spec
                step_records.append(StepRecord(name=name, mutating=mutating))
        record = SagaRecord(
            saga_id=saga_id,
            saga=saga_name,
            context=dict(context),
            steps=step_records,
            started_at=now,
        )
        self._records[saga_id] = record
        self.opened += 1
        return record

    def get(self, saga_id: str) -> Optional[SagaRecord]:
        return self._records.get(saga_id)

    def records(self) -> List[SagaRecord]:
        return list(self._records.values())

    def incomplete(self) -> List[SagaRecord]:
        """Records a restarted orchestrator must resume or compensate."""
        return [r for r in self._records.values() if not r.terminal]

    def export(self) -> List[Dict[str, Any]]:
        return [record.to_dict() for record in self._records.values()]

    def __len__(self) -> int:
        return len(self._records)


class SagaOrchestrator:
    """Drives sagas from one (crashable) host against live services.

    Forward path: write step intent to the log, invoke through the
    proxy under the logged idempotency key, commit the output into the
    durable context.  On a terminal step failure, unwind: compensate
    every possibly-applied step in reverse order, each compensation
    exactly-once under its own logged key with an orchestrator-level
    attempt budget on top of the proxy's retries.  A compensation that
    exhausts ``max_compensation_attempts`` dead-letters the saga into
    ``dlq``.

    ``compensation_enabled=False`` is the measurement baseline (and the
    checker self-test's seeded defect): failed sagas are abandoned with
    their partial effects stranded — exactly what the atomicity
    invariant exists to catch.
    """

    def __init__(
        self,
        node: Node,
        log: Optional[SagaLog] = None,
        dlq=None,
        compensation_enabled: bool = True,
        max_compensation_attempts: int = 3,
        compensation_backoff: float = 0.5,
    ):
        self.node = node
        self.env = node.env
        self.obs = node.network.obs
        self.log = log if log is not None else SagaLog()
        self.dlq = dlq
        self.compensation_enabled = compensation_enabled
        self.max_compensation_attempts = max_compensation_attempts
        self.compensation_backoff = compensation_backoff
        self._definitions: Dict[str, Saga] = {}
        self._saga_seq = itertools.count(1)
        self._trace_ids = itertools.count(1)

    # -- definitions -------------------------------------------------------------------

    def register(self, saga: Saga) -> None:
        """Validate and remember ``saga`` so :meth:`recover` can find it."""
        saga.validate()
        self._definitions[saga.name] = saga

    # -- public API --------------------------------------------------------------------

    def run(
        self,
        saga: Saga,
        context: Optional[Context] = None,
        saga_id: Optional[str] = None,
    ) -> SagaRecord:
        """Execute ``saga`` to completion (advances the simulation)."""
        generator = self.execute(saga, context, saga_id=saga_id)
        process = self.node.spawn(generator, name=f"saga-{saga.name}")
        self.env.run(until=process)
        return process.value

    def execute(
        self,
        saga: Saga,
        context: Optional[Context] = None,
        saga_id: Optional[str] = None,
    ) -> Generator[Any, Any, SagaRecord]:
        """Generator form, for embedding in an existing process."""
        self.register(saga)
        if saga_id is None:
            saga_id = f"{saga.name}-{self.node.name}-{next(self._saga_seq)}"
        record = self.log.open(
            saga_id,
            saga.name,
            dict(context or {}),
            [(step.name, step.mutating) for step in saga.steps],
            self.env.now,
        )
        result = yield from self._drive(saga, record)
        return result

    def recover(
        self, saga_ids: Optional[Sequence[str]] = None
    ) -> Generator[Any, Any, List[SagaRecord]]:
        """Resume every incomplete saga in the log (post-restart).

        ``RUNNING`` records resume forward — an in-doubt step re-issues
        under its original logged key, so the b-peer journal collapses
        the duplicate; ``COMPENSATING`` records continue unwinding.
        Definitions must have been :meth:`register`-ed on this (new)
        orchestrator instance.  ``saga_ids`` restricts recovery to those
        sagas (a supervisor that knows which processes died uses it to
        leave actively-driven sagas alone).
        """
        resumed: List[SagaRecord] = []
        for record in self.log.incomplete():
            if saga_ids is not None and record.saga_id not in saga_ids:
                continue
            saga = self._definitions.get(record.saga)
            if saga is None:
                raise WorkflowError(
                    f"cannot recover saga {record.saga_id!r}: no registered "
                    f"definition named {record.saga!r}"
                )
            if record.state == SagaState.COMPENSATING:
                rtrace = self._recovery_trace()
                yield from self._unwind(saga, record, rtrace)
                self.obs.finish_request(rtrace, self.env.now, status=record.state)
            else:
                yield from self._drive(saga, record)
            resumed.append(record)
        return resumed

    def requeue(self, saga_id: str) -> Generator[Any, Any, SagaRecord]:
        """Re-run compensation for a dead-lettered saga with fresh budget."""
        record = self.log.get(saga_id)
        if record is None:
            raise WorkflowError(f"unknown saga {saga_id!r}")
        if record.state != SagaState.DEAD_LETTERED:
            raise WorkflowError(
                f"saga {saga_id!r} is {record.state}, not dead-lettered"
            )
        saga = self._definitions.get(record.saga)
        if saga is None:
            raise WorkflowError(
                f"cannot requeue {saga_id!r}: no registered definition "
                f"named {record.saga!r}"
            )
        for step in record.steps:
            if step.state == StepState.COMPENSATING:
                step.compensation_attempts = 0
        record.state = SagaState.COMPENSATING
        record.finished_at = None
        if self.dlq is not None:
            self.dlq.mark_requeued(saga_id, self.env.now)
        rtrace = self._recovery_trace()
        yield from self._unwind(saga, record, rtrace)
        self.obs.finish_request(rtrace, self.env.now, status=record.state)
        return record

    # -- forward path ------------------------------------------------------------------

    def _drive(self, saga: Saga, record: SagaRecord) -> Generator:
        steps = {step.name: step for step in saga.steps}
        rtrace = self.obs.request_trace(
            f"saga.{saga.name}", next(self._trace_ids), self.env.now
        )
        try:
            for step_record in record.steps:
                if step_record.state == StepState.COMMITTED:
                    continue  # resumed: already durably done
                ok = yield from self._forward(
                    steps[step_record.name], record, step_record, rtrace
                )
                if not ok:
                    yield from self._unwind(saga, record, rtrace)
                    self.obs.finish_request(
                        rtrace, self.env.now, status=record.state
                    )
                    return record
            record.state = SagaState.COMMITTED
            record.finished_at = self.env.now
        except BaseException:
            # Interrupt (host crash) and friends: the log keeps whatever
            # was written; recovery picks the saga back up.
            self.obs.finish_request(rtrace, self.env.now, status="interrupted")
            raise
        self.obs.finish_request(rtrace, self.env.now, status="ok")
        return record

    def _forward(
        self,
        step: CompensableTask,
        record: SagaRecord,
        step_record: StepRecord,
        rtrace,
    ) -> Generator:
        step_record.invocation_id = saga_invocation_id(
            record.saga_id, step.name, "fwd"
        )
        # Write-ahead: intent is durable before the first byte leaves.
        step_record.state = StepState.EXECUTING
        span = rtrace.begin(f"step:{step.name}", self.env.now)
        try:
            arguments = step.input_mapping(record.context)
            invoked = yield from step.service.invoke(
                step.operation,
                arguments,
                timeout=step.timeout,
                budget=step.budget,
                invocation_id=step_record.invocation_id,
            )
        except TASK_ERRORS as error:
            step_record.state = StepState.FAILED
            step_record.error = format_error(error)
            record.error = f"step {step.name}: {step_record.error}"
            span.finish(self.env.now, status="failed")
            return False
        step_record.deduped = invoked.deduped
        if step.output_key is not None:
            record.context[step.output_key] = invoked.value
        step_record.state = StepState.COMMITTED
        span.finish(self.env.now, status="committed")
        return True

    # -- compensation ------------------------------------------------------------------

    def _unwind(self, saga: Saga, record: SagaRecord, rtrace) -> Generator:
        if not self.compensation_enabled:
            record.state = SagaState.ABANDONED
            record.finished_at = self.env.now
            return
        record.state = SagaState.COMPENSATING
        steps = {step.name: step for step in saga.steps}
        # Reverse commit order; every possibly-applied step (committed,
        # in-doubt, terminally failed, or mid-compensation at a crash)
        # is compensated — compensation handlers tolerate an absent
        # forward effect, and an untouched backend writes no effect
        # entry, so over-compensating in doubt is safe.
        for step_record in reversed(record.steps):
            if step_record.state in (StepState.PENDING, StepState.COMPENSATED):
                continue
            step = steps[step_record.name]
            if not step.mutating:
                step_record.state = StepState.COMPENSATED
                continue
            ok = yield from self._compensate(step, record, step_record, rtrace)
            if not ok:
                self._dead_letter(record, step_record)
                return
        record.state = SagaState.COMPENSATED
        record.finished_at = self.env.now

    def _compensate(
        self,
        step: CompensableTask,
        record: SagaRecord,
        step_record: StepRecord,
        rtrace,
    ) -> Generator:
        step_record.compensation_id = saga_invocation_id(
            record.saga_id, step.name, "comp"
        )
        while step_record.compensation_attempts < self.max_compensation_attempts:
            # The attempt count is durable *before* the send, so a crash
            # between send and ack still burns the attempt on resume —
            # the budget bounds real work, not just observed work.
            step_record.compensation_attempts += 1
            step_record.state = StepState.COMPENSATING
            span = rtrace.begin(f"comp:{step.name}", self.env.now)
            try:
                arguments = step.compensation_mapping(record.context)
                yield from step.service.invoke(
                    step.compensate_operation,
                    arguments,
                    timeout=step.compensate_timeout,
                    budget=step.compensate_budget,
                    invocation_id=step_record.compensation_id,
                )
            except TASK_ERRORS as error:
                step_record.error = format_error(error)
                span.finish(self.env.now, status="failed")
                if step_record.compensation_attempts < self.max_compensation_attempts:
                    yield Timeout(
                        self.env,
                        self.compensation_backoff
                        * step_record.compensation_attempts,
                    )
                continue
            step_record.state = StepState.COMPENSATED
            span.finish(self.env.now, status="compensated")
            return True
        return False

    def _dead_letter(self, record: SagaRecord, step_record: StepRecord) -> None:
        record.state = SagaState.DEAD_LETTERED
        record.finished_at = self.env.now
        reason = (
            f"compensation of step {step_record.name!r} exhausted "
            f"{self.max_compensation_attempts} attempts"
            + (f": {step_record.error}" if step_record.error else "")
        )
        record.error = record.error or reason
        if self.dlq is not None:
            self.dlq.push(
                record, failed_step=step_record.name, reason=reason,
                now=self.env.now,
            )

    def _recovery_trace(self):
        return self.obs.request_trace(
            "saga.recover", next(self._trace_ids), self.env.now
        )
