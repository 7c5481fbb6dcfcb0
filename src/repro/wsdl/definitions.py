"""The WSDL model: definitions, interfaces, operations, messages.

Mirrors the WSDL-S example in §3.1 of the paper: a ``definitions`` document
with a named ``interface`` containing ``operation`` elements whose inputs,
outputs, and action carry semantic annotations (held in
:class:`SemanticAnnotation`, defined in :mod:`repro.wsdl.annotations`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .annotations import SemanticAnnotation
from .schema import Schema

__all__ = [
    "MessagePart",
    "Operation",
    "Interface",
    "Definitions",
    "WsdlError",
]


class WsdlError(Exception):
    """Raised for structurally invalid WSDL documents."""


@dataclass
class MessagePart:
    """One input or output message of an operation.

    ``message_label`` is the WSDL-S ``messageLabel`` attribute; ``element``
    names the schema element carrying the payload; ``model_reference`` is
    the ontology concept annotating the part (WSDL-S ``modelReference``).
    """

    message_label: str
    element: str
    model_reference: Optional[str] = None


@dataclass
class Operation:
    """One operation of an interface (e.g. ``StudentInformation``)."""

    name: str
    inputs: List[MessagePart] = field(default_factory=list)
    outputs: List[MessagePart] = field(default_factory=list)
    #: WSDL-S functional annotation: the ontology concept for the action.
    action: Optional[str] = None
    faults: List[str] = field(default_factory=list)

    def annotation(self) -> SemanticAnnotation:
        """The (action, inputs, outputs) concept triple for matching."""
        if self.action is None:
            raise WsdlError(f"operation {self.name!r} has no action annotation")
        missing = [
            part.message_label
            for part in self.inputs + self.outputs
            if part.model_reference is None
        ]
        if missing:
            raise WsdlError(
                f"operation {self.name!r} has unannotated parts: {missing}"
            )
        return SemanticAnnotation(
            action=self.action,
            inputs=tuple(part.model_reference for part in self.inputs),
            outputs=tuple(part.model_reference for part in self.outputs),
        )

    @property
    def is_annotated(self) -> bool:
        """True if every part and the action carry model references."""
        if self.action is None:
            return False
        return all(
            part.model_reference is not None
            for part in self.inputs + self.outputs
        )


@dataclass
class Interface:
    """A named set of operations (WSDL 2.0 ``interface``)."""

    name: str
    operations: Dict[str, Operation] = field(default_factory=dict)

    def add_operation(self, operation: Operation) -> Operation:
        if operation.name in self.operations:
            raise WsdlError(f"duplicate operation {operation.name!r}")
        self.operations[operation.name] = operation
        return operation

    def operation(self, name: str) -> Operation:
        try:
            return self.operations[name]
        except KeyError:
            raise WsdlError(
                f"interface {self.name!r} has no operation {name!r}"
            ) from None


@dataclass
class Definitions:
    """A WSDL ``definitions`` document."""

    name: str
    target_namespace: str
    interfaces: Dict[str, Interface] = field(default_factory=dict)
    schema: Schema = field(default_factory=Schema)
    #: prefix -> namespace URI bindings on the document element.
    namespaces: Dict[str, str] = field(default_factory=dict)

    def add_interface(self, interface: Interface) -> Interface:
        if interface.name in self.interfaces:
            raise WsdlError(f"duplicate interface {interface.name!r}")
        self.interfaces[interface.name] = interface
        return interface

    def single_interface(self) -> Interface:
        """The only interface (common case for Whisper services)."""
        if len(self.interfaces) != 1:
            raise WsdlError(
                f"{self.name!r} has {len(self.interfaces)} interfaces; expected 1"
            )
        return next(iter(self.interfaces.values()))

    def operations(self) -> List[Operation]:
        """Every operation across every interface."""
        result: List[Operation] = []
        for interface in self.interfaces.values():
            result.extend(interface.operations.values())
        return result
