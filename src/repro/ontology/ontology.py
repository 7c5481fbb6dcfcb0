"""The ontology container.

An :class:`Ontology` holds concepts and properties, provides
the mutation API used by the builder and the OWL-XML parser, and performs
structural validation (undefined references, subsumption cycles outside
equivalence classes).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .model import Concept, Property, PropertyKind
from .namespaces import NamespaceRegistry

__all__ = ["Ontology", "OntologyError"]


class OntologyError(Exception):
    """Raised for structural problems in an ontology."""


class Ontology:
    """A named collection of concepts and properties."""

    def __init__(self, uri: str, label: Optional[str] = None):
        self.uri = uri
        self.label = label or uri
        self.namespaces = NamespaceRegistry()
        self.concepts: Dict[str, Concept] = {}
        self.properties: Dict[str, Property] = {}
        #: Bumped by every mutator (the concept ones all go through
        #: ``add_concept``).  The reasoner's caches and the matcher's
        #: signature memo remember the version they were filled at and
        #: start over when it differs.
        self.version = 0

    # -- mutation -----------------------------------------------------------------

    def add_concept(
        self,
        uri: str,
        parents: Iterable[str] = (),
        label: Optional[str] = None,
        comment: Optional[str] = None,
    ) -> Concept:
        """Add (or extend) a concept; parent URIs may be declared later."""
        self.version += 1
        concept = self.concepts.get(uri)
        if concept is None:
            concept = Concept(uri=uri, label=label, comment=comment)
            self.concepts[uri] = concept
        else:
            if label is not None:
                concept.label = label
            if comment is not None:
                concept.comment = comment
        concept.parents.update(parents)
        return concept

    def add_subclass(self, child_uri: str, parent_uri: str) -> None:
        """Declare ``child rdfs:subClassOf parent``."""
        self.add_concept(child_uri).parents.add(parent_uri)
        self.add_concept(parent_uri)

    def add_equivalence(self, uri_a: str, uri_b: str) -> None:
        """Declare ``a owl:equivalentClass b`` (symmetric)."""
        self.add_concept(uri_a).equivalents.add(uri_b)
        self.add_concept(uri_b).equivalents.add(uri_a)

    def add_property(
        self,
        uri: str,
        kind: str = PropertyKind.OBJECT,
        domain: Optional[str] = None,
        range: Optional[str] = None,
        label: Optional[str] = None,
    ) -> Property:
        self.version += 1
        prop = self.properties.get(uri)
        if prop is None:
            prop = Property(uri=uri, kind=kind, domain=domain, range=range, label=label)
            self.properties[uri] = prop
        else:
            if domain is not None:
                prop.domain = domain
            if range is not None:
                prop.range = range
        return prop

    def merge(self, other: "Ontology") -> None:
        """Import every axiom of ``other`` into this ontology."""
        for concept in other.concepts.values():
            merged = self.add_concept(
                concept.uri, concept.parents, concept.label, concept.comment
            )
            merged.equivalents.update(concept.equivalents)
        for prop in other.properties.values():
            self.add_property(prop.uri, prop.kind, prop.domain, prop.range, prop.label)
        for prefix, uri in other.namespaces.prefixes().items():
            if self.namespaces.resolve(f"{prefix}:x") == f"{prefix}:x":
                self.namespaces.bind(prefix, uri)

    # -- queries --------------------------------------------------------------------

    def concept(self, uri: str) -> Concept:
        try:
            return self.concepts[uri]
        except KeyError:
            raise OntologyError(f"unknown concept {uri!r}") from None

    def has_concept(self, uri: str) -> bool:
        return uri in self.concepts

    # -- validation ------------------------------------------------------------------

    def validate(self) -> List[str]:
        """Return a list of structural problems (empty = valid).

        Checks: parent/equivalent/domain/range references must resolve
        to declared concepts, and the subsumption graph must be acyclic once
        equivalence classes are collapsed.
        """
        problems: List[str] = []
        for concept in self.concepts.values():
            for parent in concept.parents:
                if parent not in self.concepts:
                    problems.append(
                        f"concept {concept.uri} has undefined parent {parent}"
                    )
            for equivalent in concept.equivalents:
                if equivalent not in self.concepts:
                    problems.append(
                        f"concept {concept.uri} equivalent to undefined {equivalent}"
                    )
        for prop in self.properties.values():
            if prop.domain is not None and prop.domain not in self.concepts:
                problems.append(f"property {prop.uri} has undefined domain {prop.domain}")
            if (
                prop.kind == PropertyKind.OBJECT
                and prop.range is not None
                and prop.range not in self.concepts
            ):
                problems.append(f"property {prop.uri} has undefined range {prop.range}")
        problems.extend(self._find_cycles())
        return problems

    def _find_cycles(self) -> List[str]:
        """Detect subsumption cycles not explained by equivalence."""
        from .reasoner import Reasoner  # local import to avoid a cycle

        reasoner = Reasoner(self)
        problems = []
        for uri in self.concepts:
            for other in reasoner.ancestors(uri):
                if other == uri:
                    continue
                if uri in reasoner.ancestors(other) and not reasoner.equivalent(
                    uri, other
                ):
                    problems.append(
                        f"subsumption cycle between {uri} and {other} "
                        "without declared equivalence"
                    )
        return sorted(set(problems))

    def __len__(self) -> int:
        return len(self.concepts)

    def __repr__(self) -> str:
        return (
            f"<Ontology {self.uri} concepts={len(self.concepts)} "
            f"properties={len(self.properties)}>"
        )
