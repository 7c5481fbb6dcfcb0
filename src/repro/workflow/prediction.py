"""QoS prediction for workflows (§2.4 / reference [11]).

Reduces a workflow tree to one :class:`~repro.qos.metrics.QosMetrics`
using the structural aggregation rules, from per-task metrics supplied by
the caller (typically proxies' learned profiles).
"""

from __future__ import annotations

from typing import Dict

from ..qos import aggregation
from ..qos.metrics import QosMetrics
from .model import (
    ExclusiveChoice,
    ParallelFlow,
    SequenceFlow,
    ServiceTask,
    WorkflowError,
    WorkflowNode,
)

__all__ = ["predict_qos"]


def predict_qos(
    node: WorkflowNode, task_metrics: Dict[str, QosMetrics]
) -> QosMetrics:
    """Predicted QoS of ``node`` given metrics for each named task.

    Raises :class:`WorkflowError` when a task's metrics are missing.
    """
    if isinstance(node, ServiceTask):
        metrics = task_metrics.get(node.name)
        if metrics is None:
            raise WorkflowError(f"no QoS metrics for task {node.name!r}")
        return metrics
    if isinstance(node, SequenceFlow):
        return aggregation.sequence(
            [predict_qos(child, task_metrics) for child in node.nodes]
        )
    if isinstance(node, ParallelFlow):
        return aggregation.parallel(
            [predict_qos(branch, task_metrics) for branch in node.branches]
        )
    if isinstance(node, ExclusiveChoice):
        weighted = [
            (probability, predict_qos(branch, task_metrics))
            for _predicate, probability, branch in node.branches
        ]
        leftover = node.otherwise_probability
        if node.otherwise is not None and leftover > 0:
            weighted.append((leftover, predict_qos(node.otherwise, task_metrics)))
        elif leftover > 1e-9:
            raise WorkflowError(
                "choice probabilities do not cover 1 and no 'otherwise' exists"
            )
        return aggregation.conditional(weighted)
    raise WorkflowError(f"unknown workflow node {type(node).__name__}")
