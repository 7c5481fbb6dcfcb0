"""Semantic Web services.

"Whisper supports the notion of semantic Web services ... the result of
the evolution of the syntactic definition of Web services and the semantic
Web" (§3.1).  A :class:`SemanticWebService` pairs a WSDL-S document with
the ontology its annotations point into, and exposes the accessors the
paper's SWS-proxy listing uses (``get_sem_action``, ``get_sem_input``,
``get_sem_output``).

Every accessor reads the service table (``name -> (Operation,
SemanticAnnotation)``) that the constructor's validation pass builds: a
snapshot of the validated description (DESIGN.md §6.18).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..ontology.ontology import Ontology
from ..wsdl.annotations import SemanticAnnotation
from ..wsdl.definitions import Definitions, Operation
from .errors import AnnotationError

__all__ = ["SemanticWebService"]


class SemanticWebService:
    """A WSDL-S-described service grounded in an ontology."""

    def __init__(self, definitions: Definitions, ontology: Ontology):
        self.definitions = definitions
        self.ontology = ontology
        self._table = self._check_annotations()

    @property
    def name(self) -> str:
        return self.definitions.name

    def operations(self) -> List[str]:
        return list(self._table)

    def __contains__(self, operation_name: str) -> bool:
        return operation_name in self._table

    def _entry(self, name: str) -> Tuple[Operation, SemanticAnnotation]:
        entry = self._table.get(name)
        if entry is None:
            raise AnnotationError(f"service {self.name!r} has no operation {name!r}")
        return entry

    def operation(self, name: str) -> Operation:
        return self._entry(name)[0]

    def annotation(self, operation_name: str) -> SemanticAnnotation:
        return self._entry(operation_name)[1]

    # -- the paper's accessor names (§3.2 listing) ------------------------------------

    def get_sem_action(self, operation_name: str) -> str:
        return self.annotation(operation_name).action

    def get_sem_input(self, operation_name: str) -> Tuple[str, ...]:
        return self.annotation(operation_name).inputs

    def get_sem_output(self, operation_name: str) -> Tuple[str, ...]:
        return self.annotation(operation_name).outputs

    # -- validation ---------------------------------------------------------------------

    def _check_annotations(self) -> Dict[str, Tuple[Operation, SemanticAnnotation]]:
        """Validate every operation; return the service table."""
        operations = self.definitions.operations()
        if not operations:
            raise AnnotationError(f"service {self.name!r} declares no operations")
        table: Dict[str, Tuple[Operation, SemanticAnnotation]] = {}
        for operation in operations:
            if operation.name in table:
                raise AnnotationError(
                    f"operation {operation.name!r} of {self.name!r} is declared twice"
                )
            if not operation.is_annotated:
                raise AnnotationError(
                    f"operation {operation.name!r} of {self.name!r} is not fully "
                    "annotated (WSDL alone gives only syntactic information)"
                )
            annotation = operation.annotation()
            unresolved = annotation.unresolved_in(self.ontology)
            if unresolved:
                raise AnnotationError(
                    f"operation {operation.name!r} references concepts missing "
                    f"from the ontology: {unresolved}"
                )
            table[operation.name] = (operation, annotation)
        return table

    def __repr__(self) -> str:
        return f"<SemanticWebService {self.name} ops={self.operations()}>"
