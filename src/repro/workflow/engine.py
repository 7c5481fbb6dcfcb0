"""The workflow engine: executes composition trees against live services.

Runs on a client host of the simulated LAN.  Sequences execute inline;
parallel branches run as concurrent simulated processes with isolated
context copies merged at the join; choices evaluate predicates against the
context.  Per-task latencies and the
end-to-end outcome land in a :class:`WorkflowResult` for comparison with
the §2.4 QoS prediction.

Tasks invoke in one of two modes (see
:class:`~repro.workflow.model.ServiceTask`): proxy-backed tasks go
through ``service.invoke`` and inherit the whole SWS-Proxy pipeline —
discovery, retry under a deadline budget, epoch-fenced failover,
overload shedding, idempotency keys — with the
:class:`~repro.core.result.InvokeResult` metadata (attempts, outcome,
dedup, invocation id) landing on the :class:`TaskRecord`; legacy
address/path tasks keep the seed's raw ``SoapClient`` call.

Every terminal invocation outcome is surfaced as a structured
``WorkflowResult.error`` instead of escaping the runner: wire faults
(``SoapFault``, including ``Server.Busy`` after shed-retry exhaustion),
client timeouts, and the proxy's ``WhisperError`` family (deadline
exceeded, no matching group, invocation failed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional

from ..core.errors import WhisperError
from ..simnet.events import AllOf
from ..simnet.node import Node
from ..soap.client import SoapClient
from ..soap.fault import SoapFault
from ..soap.http import RequestTimeout
from .model import (
    Context,
    ExclusiveChoice,
    ParallelFlow,
    SequenceFlow,
    ServiceTask,
    WorkflowError,
    WorkflowNode,
)

__all__ = [
    "WorkflowEngine",
    "WorkflowResult",
    "TaskRecord",
    "TASK_ERRORS",
    "format_error",
]

#: Exceptions a workflow run converts into a structured result error
#: rather than letting escape: wire-level faults and timeouts, the
#: proxy's terminal ``WhisperError`` family (deadline exhausted, no
#: matching group, invocation failed), and structural workflow errors.
TASK_ERRORS = (SoapFault, RequestTimeout, WorkflowError, WhisperError)


def format_error(error: BaseException) -> str:
    """One-line structured rendering of a task/workflow failure.

    SOAP faults keep their fault code (so ``Server.Busy`` sheds are
    distinguishable from plain ``Server`` faults in ``result.error``);
    everything else renders as ``TypeName: message``.
    """
    if isinstance(error, SoapFault):
        return f"SoapFault[{error.faultcode}]: {error.faultstring}"
    return f"{type(error).__name__}: {error}"


@dataclass
class TaskRecord:
    """One task execution: timing, outcome, and invocation metadata."""

    task: str
    started_at: float
    finished_at: float
    succeeded: bool
    error: Optional[str] = None
    #: 1-based occurrence index among records of the same task name —
    #: distinguishes re-executed steps.
    attempt: int = 1
    #: Proxy send-and-wait attempts (1 for legacy SoapClient tasks).
    attempts: int = 1
    #: ``InvokeOutcome.value`` for proxy-backed tasks (``None`` legacy).
    outcome: Optional[str] = None
    #: Proxy-minted idempotency key, when the step went through one.
    invocation_id: Optional[str] = None
    #: True when the value was replayed from a b-peer dedup journal.
    deduped: bool = False

    @property
    def elapsed(self) -> float:
        return self.finished_at - self.started_at


@dataclass
class WorkflowResult:
    """The outcome of one workflow run."""

    context: Context
    records: List[TaskRecord] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0
    error: Optional[str] = None

    @property
    def succeeded(self) -> bool:
        return self.error is None

    @property
    def elapsed(self) -> float:
        return self.finished_at - self.started_at

    def record_for(self, task_name: str) -> Optional[TaskRecord]:
        """The *first* record for ``task_name`` (see :meth:`records_for`)."""
        for record in self.records:
            if record.task == task_name:
                return record
        return None

    def records_for(self, task_name: str) -> List[TaskRecord]:
        """Every record for ``task_name``, in execution order.

        A task can run more than once (a name reused, re-executed steps);
        each record's ``attempt`` gives its 1-based occurrence index.
        """
        return [record for record in self.records if record.task == task_name]

    def add_record(self, record: TaskRecord) -> TaskRecord:
        """Append ``record``, stamping its per-name occurrence index."""
        record.attempt = 1 + sum(
            1 for existing in self.records if existing.task == record.task
        )
        self.records.append(record)
        return record


class WorkflowEngine:
    """Executes workflows from one client host."""

    def __init__(self, node: Node):
        self.node = node
        self.env = node.env
        self.client = SoapClient(node, default_timeout=30.0)

    # -- public API -----------------------------------------------------------------

    def run(
        self, workflow: WorkflowNode, context: Optional[Context] = None
    ) -> WorkflowResult:
        """Validate and execute ``workflow`` to completion (advances sim)."""
        workflow.validate()
        result = WorkflowResult(context=dict(context or {}))
        result.started_at = self.env.now

        def runner():
            try:
                yield from self._execute(workflow, result.context, result)
            except TASK_ERRORS as error:
                result.error = format_error(error)

        process = self.node.spawn(runner(), name="workflow")
        self.env.run(until=process)
        result.finished_at = self.env.now
        return result

    # -- node dispatch ------------------------------------------------------------------

    def _execute(
        self, node: WorkflowNode, context: Context, result: WorkflowResult
    ) -> Generator:
        if isinstance(node, ServiceTask):
            yield from self._run_task(node, context, result)
        elif isinstance(node, SequenceFlow):
            for child in node.nodes:
                yield from self._execute(child, context, result)
        elif isinstance(node, ParallelFlow):
            yield from self._run_parallel(node, context, result)
        elif isinstance(node, ExclusiveChoice):
            yield from self._run_choice(node, context, result)
        else:
            raise WorkflowError(f"unknown workflow node {type(node).__name__}")

    def _run_task(
        self, task: ServiceTask, context: Context, result: WorkflowResult
    ) -> Generator:
        arguments = task.input_mapping(context)
        started = self.env.now
        record = TaskRecord(
            task=task.name,
            started_at=started,
            finished_at=started,
            succeeded=False,
        )
        try:
            if task.service is not None:
                invoked = yield from task.service.invoke(
                    task.operation, arguments,
                    timeout=task.timeout, budget=task.budget,
                )
                value = invoked.value
                record.attempts = invoked.attempts
                record.outcome = invoked.outcome.value
                record.invocation_id = invoked.invocation_id
                record.deduped = invoked.deduped
            else:
                value = yield from self.client.call(
                    task.address, task.path, task.operation, arguments,
                    timeout=task.timeout,
                )
        except TASK_ERRORS as error:
            record.finished_at = self.env.now
            record.error = format_error(error)
            result.add_record(record)
            raise
        record.finished_at = self.env.now
        record.succeeded = True
        result.add_record(record)
        if task.output_key is not None:
            context[task.output_key] = value

    def _run_parallel(
        self, node: ParallelFlow, context: Context, result: WorkflowResult
    ) -> Generator:
        branch_contexts: List[Context] = []
        branch_errors: List[Optional[str]] = [None] * len(node.branches)
        processes = []
        for index, branch in enumerate(node.branches):
            child_context = dict(context)
            branch_contexts.append(child_context)

            def branch_runner(branch=branch, child=child_context, index=index):
                try:
                    yield from self._execute(branch, child, result)
                except TASK_ERRORS as error:
                    branch_errors[index] = format_error(error)

            processes.append(
                self.node.spawn(branch_runner(), name=f"workflow-branch-{index}")
            )
        yield AllOf(self.env, processes)
        failures = [message for message in branch_errors if message is not None]
        if failures:
            raise WorkflowError(f"parallel branch failed: {failures[0]}")
        # Deterministic join: merge branch writes in branch order.  Two
        # branches writing *different* values to the same key is a real
        # data race the static key check cannot always see (same-named
        # tasks in different branches pass it) — refuse to pick a winner.
        writers: dict = {}
        for index, child_context in enumerate(branch_contexts):
            for key, value in child_context.items():
                if key in context and context[key] is value:
                    continue  # unchanged inherited binding
                if key in writers and writers[key][1] is not value:
                    raise WorkflowError(
                        f"parallel branches {writers[key][0]} and {index} "
                        f"both wrote conflicting values for {key!r}"
                    )
                writers.setdefault(key, (index, value))
        for key, (_index, value) in writers.items():
            context[key] = value

    def _run_choice(
        self, node: ExclusiveChoice, context: Context, result: WorkflowResult
    ) -> Generator:
        for predicate, _probability, branch in node.branches:
            if predicate(context):
                yield from self._execute(branch, context, result)
                return
        if node.otherwise is not None:
            yield from self._execute(node.otherwise, context, result)
