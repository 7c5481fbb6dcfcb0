"""A fluent builder for ontologies.

Used by the sample domain ontologies and by tests; concept names may be
given as CURIEs (``sm:Student``) against namespaces bound on the builder.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .model import PropertyKind
from .ontology import Ontology

__all__ = ["OntologyBuilder"]


class OntologyBuilder:
    """Build an ontology with prefix-aware, chainable calls.

    Example::

        builder = OntologyBuilder("http://example.org/uni", label="University")
        builder.namespace("uni", "http://example.org/uni#")
        builder.concept("uni:Person")
        builder.concept("uni:Student", parents=["uni:Person"])
        ontology = builder.build()
    """

    def __init__(self, uri: str, label: Optional[str] = None):
        self._ontology = Ontology(uri, label=label)

    def namespace(self, prefix: str, uri: str) -> "OntologyBuilder":
        self._ontology.namespaces.bind(prefix, uri)
        return self

    def _resolve(self, name: str) -> str:
        return self._ontology.namespaces.resolve(name)

    def concept(
        self,
        name: str,
        parents: Iterable[str] = (),
        label: Optional[str] = None,
        comment: Optional[str] = None,
    ) -> "OntologyBuilder":
        self._ontology.add_concept(
            self._resolve(name),
            parents=[self._resolve(p) for p in parents],
            label=label,
            comment=comment,
        )
        return self

    def equivalent(self, name_a: str, name_b: str) -> "OntologyBuilder":
        self._ontology.add_equivalence(self._resolve(name_a), self._resolve(name_b))
        return self

    def object_property(
        self, name: str, domain: Optional[str] = None, range: Optional[str] = None
    ) -> "OntologyBuilder":
        self._ontology.add_property(
            self._resolve(name),
            kind=PropertyKind.OBJECT,
            domain=self._resolve(domain) if domain else None,
            range=self._resolve(range) if range else None,
        )
        return self

    def datatype_property(
        self, name: str, domain: Optional[str] = None, range: Optional[str] = None
    ) -> "OntologyBuilder":
        self._ontology.add_property(
            self._resolve(name),
            kind=PropertyKind.DATATYPE,
            domain=self._resolve(domain) if domain else None,
            range=range,
        )
        return self

    def build(self) -> Ontology:
        """Return the ontology, failing on structural problems."""
        problems = self._ontology.validate()
        if problems:
            raise ValueError("invalid ontology:\n  " + "\n  ".join(problems))
        return self._ontology
