"""Property-based tests: QoS prediction over random workflow trees."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qos import QosMetrics
from repro.workflow import (
    ExclusiveChoice,
    ParallelFlow,
    SequenceFlow,
    ServiceTask,
    predict_qos,
)

metrics = st.builds(
    QosMetrics,
    time=st.floats(min_value=0.001, max_value=10),
    cost=st.floats(min_value=0, max_value=10),
    reliability=st.floats(min_value=0.0, max_value=1.0),
)


def _task(name):
    return ServiceTask(
        name=name, address=("h", 80), path="/s", operation="Op",
        input_mapping=lambda ctx: {},
    )


@st.composite
def workflows(draw, depth=0):
    """Random trees of tasks and composition nodes with fresh task names."""
    counter = draw(st.integers(min_value=0, max_value=10**6))
    name = f"t{depth}-{counter}"
    if depth >= 3:
        return _task(name)
    kind = draw(st.sampled_from(["task", "seq", "par", "choice"]))
    if kind == "task":
        return _task(name)
    if kind in ("seq", "par"):
        children = [
            draw(workflows(depth=depth + 1))
            for _ in range(draw(st.integers(min_value=1, max_value=3)))
        ]
        return SequenceFlow(children) if kind == "seq" else ParallelFlow(children)
    count = draw(st.integers(min_value=1, max_value=3))
    weights = [draw(st.floats(min_value=0.05, max_value=1.0)) for _ in range(count)]
    total = sum(weights)
    branches = [
        (lambda ctx: True, weight / total, draw(workflows(depth=depth + 1)))
        for weight in weights
    ]
    return ExclusiveChoice(branches=branches)


def _metrics_for(workflow, draw_value):
    return {task.name: draw_value for task in workflow.tasks()}


@given(workflow=workflows(), task_metric=metrics)
@settings(max_examples=80, deadline=None)
def test_prediction_invariants(workflow, task_metric):
    table = {task.name: task_metric for task in workflow.tasks()}
    predicted = predict_qos(workflow, table)
    assert predicted.time >= 0
    assert predicted.cost >= 0
    assert 0.0 <= predicted.reliability <= 1.0
    # Composition never *improves* on the reliability of a single task.
    assert predicted.reliability <= task_metric.reliability + 1e-9
    # Composition is at least as slow as one task, except pure choices
    # cannot dilute a uniform table either.
    assert predicted.time >= task_metric.time - 1e-9


@given(workflow=workflows())
@settings(max_examples=60, deadline=None)
def test_perfect_tasks_compose_perfectly(workflow):
    perfect = QosMetrics(time=0.0, cost=0.0, reliability=1.0)
    table = {task.name: perfect for task in workflow.tasks()}
    predicted = predict_qos(workflow, table)
    assert predicted.time == 0.0
    assert predicted.reliability > 1.0 - 1e-9


@given(workflow=workflows(), task_metric=metrics)
@settings(max_examples=60, deadline=None)
def test_prediction_deterministic(workflow, task_metric):
    table = {task.name: task_metric for task in workflow.tasks()}
    first = predict_qos(workflow, table)
    second = predict_qos(workflow, table)
    assert first == second
