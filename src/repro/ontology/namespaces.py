"""URI namespaces and qualified names for ontology terms.

Whisper annotates WSDL operations and JXTA advertisements with ontology
concepts identified by URIs (the paper's example uses
``sm:StudentInformation`` etc. with ``xmlns:sm`` bound to a university
ontology).  This module provides the tiny URI machinery both sides share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["Namespace", "NamespaceRegistry", "split_uri"]


def split_uri(uri: str) -> Tuple[str, str]:
    """Split a concept URI into ``(namespace, local_name)``.

    The split point is the last ``#`` or, failing that, the last ``/``.
    """
    for separator in ("#", "/"):
        index = uri.rfind(separator)
        if index > 0:
            return uri[: index + 1], uri[index + 1 :]
    return "", uri


@dataclass(frozen=True)
class Namespace:
    """A URI prefix that can be joined with local names via ``ns['Name']``."""

    uri: str

    def __getitem__(self, local_name: str) -> str:
        return self.uri + local_name

    def __str__(self) -> str:
        return self.uri


class NamespaceRegistry:
    """Prefix -> namespace-URI map (like XML ``xmlns``)."""

    def __init__(self):
        self._by_prefix: Dict[str, str] = {}

    def bind(self, prefix: str, uri: str) -> Namespace:
        """Associate ``prefix`` with ``uri`` (re-binding is allowed)."""
        self._by_prefix[prefix] = uri
        return Namespace(uri)

    def resolve(self, curie: str) -> str:
        """Expand ``prefix:Local`` to a full URI (full URIs pass through)."""
        if "://" in curie or curie.startswith("urn:"):
            return curie
        if ":" in curie:
            prefix, local = curie.split(":", 1)
            if prefix in self._by_prefix:
                return self._by_prefix[prefix] + local
        return curie

    def prefixes(self) -> Dict[str, str]:
        return dict(self._by_prefix)


#: Well-known namespaces used across the system.
OWL = Namespace("http://www.w3.org/2002/07/owl#")
RDF = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
RDFS = Namespace("http://www.w3.org/2000/01/rdf-schema#")
XSD = Namespace("http://www.w3.org/2001/XMLSchema#")
