"""OWL-lite ontologies, subsumption reasoning, and semantic matching.

Whisper resolves the *semantic heterogeneity* between Web services and the
P2P infrastructure (§2.1) by annotating both against shared OWL ontologies.
This package provides the ontology model, an RDF/XML reader/writer, a
subsumption/equivalence reasoner, the four-level degree-of-match used by
SWS-proxies, and the sample domain ontologies from the paper.
"""

from .builder import OntologyBuilder
from .domains import (
    B2B,
    LEGACY,
    SM,
    b2b_ontology,
    enterprise_ontology,
    university_ontology,
)
from .match import ConceptMatch, ConceptMatcher, DegreeOfMatch, SignatureMatch
from .model import Concept, Individual, Property, PropertyKind
from .namespaces import Namespace, NamespaceRegistry, QName, split_uri
from .ontology import Ontology, OntologyError
from .owlxml import OwlParseError, ontology_from_xml, ontology_to_xml
from .reasoner import Reasoner

__all__ = [
    "B2B",
    "Concept",
    "ConceptMatch",
    "ConceptMatcher",
    "DegreeOfMatch",
    "Individual",
    "LEGACY",
    "Namespace",
    "NamespaceRegistry",
    "Ontology",
    "OntologyBuilder",
    "OntologyError",
    "OwlParseError",
    "Property",
    "PropertyKind",
    "QName",
    "Reasoner",
    "SM",
    "SignatureMatch",
    "b2b_ontology",
    "enterprise_ontology",
    "ontology_from_xml",
    "ontology_to_xml",
    "split_uri",
    "university_ontology",
]
