"""The workflow model: composable B2B process structures.

The paper's introduction frames Whisper's purpose as keeping *business
processes* running — insurance claim processing, bank loan management,
healthcare processes (§1) — and its QoS reference ([11], Cardoso & Sheth)
is about workflow composition.  This module provides the composition
algebra: service tasks combined by sequence, parallel split/join and
exclusive choice, matching the structures
:mod:`repro.qos.aggregation` can predict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "WorkflowNode",
    "ServiceTask",
    "SequenceFlow",
    "ParallelFlow",
    "ExclusiveChoice",
    "WorkflowError",
]

#: A workflow context: named intermediate results flowing between tasks.
Context = Dict[str, Any]


class WorkflowError(Exception):
    """Raised for structurally invalid workflows or failed executions."""


class WorkflowNode:
    """Base class of every composition node."""

    def tasks(self) -> List["ServiceTask"]:
        """Every service task in this subtree (for prediction/reporting)."""
        raise NotImplementedError

    def validate(self) -> None:
        """Raise :class:`WorkflowError` on structural problems."""
        raise NotImplementedError


@dataclass
class ServiceTask(WorkflowNode):
    """One invocation of a (Whisper) Web service operation.

    Two invocation modes, chosen by which locator is supplied:

    * ``service`` — anything exposing
      ``invoke(operation, arguments, timeout=..., budget=...)`` as a
      simulation generator returning an
      :class:`~repro.core.result.InvokeResult` (a
      :class:`~repro.core.system.DeployedService` or an
      :class:`~repro.core.proxy.SwsProxy`).  The step then inherits the
      whole SWS-Proxy pipeline: semantic discovery, retry under a
      deadline budget, epoch-fenced failover, overload shedding, and a
      proxy-minted idempotency key.
    * ``address``/``path`` — the legacy static SOAP endpoint, called
      through :class:`~repro.soap.client.SoapClient` with no recovery
      beyond what the remote web service provides.

    ``operation`` names the WSDL operation; ``input_mapping`` builds the
    call arguments from the context; ``output_key`` stores the result
    value back into the context; ``budget`` (proxy mode only) caps the
    step's whole retry deadline in simulated seconds.
    """

    name: str
    address: Optional[Tuple[str, int]] = None
    path: Optional[str] = None
    operation: str = ""
    input_mapping: Callable[[Context], Dict[str, Any]] = lambda context: {}
    output_key: Optional[str] = None
    timeout: float = 30.0
    service: Any = None
    budget: Optional[float] = None

    def tasks(self) -> List["ServiceTask"]:
        return [self]

    def validate(self) -> None:
        if not self.name:
            raise WorkflowError("service task needs a name")
        if not self.operation:
            raise WorkflowError(f"task {self.name!r}: needs an operation")
        if not callable(self.input_mapping):
            raise WorkflowError(f"task {self.name!r}: input_mapping must be callable")
        if self.service is None:
            if self.address is None or self.path is None:
                raise WorkflowError(
                    f"task {self.name!r}: needs either a service or "
                    "an address and path"
                )
        elif not hasattr(self.service, "invoke"):
            raise WorkflowError(
                f"task {self.name!r}: service must expose invoke()"
            )


@dataclass
class SequenceFlow(WorkflowNode):
    """Nodes executed one after another."""

    nodes: Sequence[WorkflowNode]

    def tasks(self) -> List[ServiceTask]:
        return [task for node in self.nodes for task in node.tasks()]

    def validate(self) -> None:
        if not self.nodes:
            raise WorkflowError("sequence needs at least one node")
        for node in self.nodes:
            node.validate()


@dataclass
class ParallelFlow(WorkflowNode):
    """An AND-split / AND-join: all branches run concurrently."""

    branches: Sequence[WorkflowNode]

    def tasks(self) -> List[ServiceTask]:
        return [task for branch in self.branches for task in branch.tasks()]

    def validate(self) -> None:
        if not self.branches:
            raise WorkflowError("parallel flow needs at least one branch")
        for branch in self.branches:
            branch.validate()
        keys: Dict[str, str] = {}
        for branch in self.branches:
            for task in branch.tasks():
                if task.output_key is None:
                    continue
                owner = keys.get(task.output_key)
                if owner is not None and owner != task.name:
                    raise WorkflowError(
                        f"parallel branches both write {task.output_key!r} "
                        f"({owner!r} and {task.name!r})"
                    )
                keys[task.output_key] = task.name


@dataclass
class ExclusiveChoice(WorkflowNode):
    """An XOR-split: the first branch whose predicate holds runs.

    ``probability`` per branch feeds QoS prediction (it plays no role in
    execution).  An optional ``otherwise`` branch runs when no predicate
    matches.
    """

    branches: Sequence[Tuple[Callable[[Context], bool], float, WorkflowNode]]
    otherwise: Optional[WorkflowNode] = None

    def tasks(self) -> List[ServiceTask]:
        collected = [
            task
            for _predicate, _probability, node in self.branches
            for task in node.tasks()
        ]
        if self.otherwise is not None:
            collected.extend(self.otherwise.tasks())
        return collected

    def validate(self) -> None:
        if not self.branches:
            raise WorkflowError("choice needs at least one branch")
        total = sum(probability for _p, probability, _n in self.branches)
        remainder = 1.0 - total
        if self.otherwise is None:
            if abs(remainder) > 1e-9:
                raise WorkflowError(
                    f"branch probabilities sum to {total}, not 1 "
                    "(add an 'otherwise' branch or fix the probabilities)"
                )
        elif remainder < -1e-9:
            raise WorkflowError(f"branch probabilities exceed 1 ({total})")
        for _predicate, _probability, node in self.branches:
            node.validate()
        if self.otherwise is not None:
            self.otherwise.validate()

    @property
    def otherwise_probability(self) -> float:
        return max(0.0, 1.0 - sum(p for _c, p, _n in self.branches))
