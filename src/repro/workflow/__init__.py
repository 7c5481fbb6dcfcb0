"""Workflow composition over Whisper services.

The B2B processes of §1 — claim processing, loan management, healthcare —
composed from Whisper service invocations, with the §2.4 QoS model
predicting end-to-end time/cost/reliability before a single call is made.

* :mod:`~repro.workflow.model` — tasks, sequence/parallel/choice;
* :mod:`~repro.workflow.engine` — execution on the simulated LAN;
* :mod:`~repro.workflow.saga` — compensating multi-service transactions
  over the proxy pipeline, with a durable write-ahead saga log;
* :mod:`~repro.workflow.dlq` — dead-letter queue for sagas whose
  compensation exhausted its budget;
* :mod:`~repro.workflow.prediction` — structural QoS reduction.
"""

from .dlq import DeadLetterEntry, DeadLetterQueue
from .engine import (
    TASK_ERRORS,
    TaskRecord,
    WorkflowEngine,
    WorkflowResult,
    format_error,
)
from .model import (
    ExclusiveChoice,
    ParallelFlow,
    SequenceFlow,
    ServiceTask,
    WorkflowError,
    WorkflowNode,
)
from .prediction import predict_qos
from .saga import (
    CompensableTask,
    Saga,
    SagaLog,
    SagaOrchestrator,
    SagaRecord,
    SagaState,
    StepRecord,
    StepState,
    saga_invocation_id,
)

__all__ = [
    "CompensableTask",
    "DeadLetterEntry",
    "DeadLetterQueue",
    "ExclusiveChoice",
    "ParallelFlow",
    "Saga",
    "SagaLog",
    "SagaOrchestrator",
    "SagaRecord",
    "SagaState",
    "SequenceFlow",
    "ServiceTask",
    "StepRecord",
    "StepState",
    "TASK_ERRORS",
    "TaskRecord",
    "WorkflowEngine",
    "WorkflowError",
    "WorkflowNode",
    "WorkflowResult",
    "format_error",
    "predict_qos",
    "saga_invocation_id",
]
