"""The ontology object model: concepts and properties.

This is an OWL-lite-sized model — exactly the slice Whisper's semantic
matching needs: named classes with subsumption and equivalence, and object
and datatype properties with domain/range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set

__all__ = ["Concept", "Property", "PropertyKind"]


class PropertyKind:
    """Property kinds (OWL object vs. datatype properties)."""

    OBJECT = "object"
    DATATYPE = "datatype"


@dataclass
class Concept:
    """A named class (``owl:Class``).

    ``parents`` holds the URIs of direct superclasses, ``equivalents`` the
    URIs of classes declared equivalent (``owl:equivalentClass``).
    """

    uri: str
    label: Optional[str] = None
    comment: Optional[str] = None
    parents: Set[str] = field(default_factory=set)
    equivalents: Set[str] = field(default_factory=set)

    def __repr__(self) -> str:
        return f"<Concept {self.uri}>"


@dataclass
class Property:
    """An object or datatype property with optional domain/range."""

    uri: str
    kind: str = PropertyKind.OBJECT
    domain: Optional[str] = None
    range: Optional[str] = None
    label: Optional[str] = None
    parents: Set[str] = field(default_factory=set)

    def __repr__(self) -> str:
        return f"<Property {self.uri} ({self.kind})>"

