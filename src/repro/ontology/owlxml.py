"""OWL RDF/XML-style serialisation.

The paper states Whisper's ontologies "are expressed ... using OWL" (§3.1).
This module writes and reads the OWL-lite subset our model covers in the
familiar RDF/XML surface syntax, so advertisements, WSDL-S documents, and
ontologies are all plain XML documents — like in the original system.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Optional

from .model import PropertyKind
from .namespaces import OWL, RDF, RDFS
from .ontology import Ontology

__all__ = ["ontology_to_xml", "ontology_from_xml", "OwlParseError"]

_RDF_ABOUT = f"{{{RDF.uri}}}about"
_RDF_RESOURCE = f"{{{RDF.uri}}}resource"
_RDF_RDF = f"{{{RDF.uri}}}RDF"
_OWL_ONTOLOGY = f"{{{OWL.uri}}}Ontology"
_OWL_CLASS = f"{{{OWL.uri}}}Class"
_OWL_EQUIVALENT = f"{{{OWL.uri}}}equivalentClass"
_OWL_OBJECT_PROPERTY = f"{{{OWL.uri}}}ObjectProperty"
_OWL_DATATYPE_PROPERTY = f"{{{OWL.uri}}}DatatypeProperty"
_RDFS_SUBCLASS = f"{{{RDFS.uri}}}subClassOf"
_RDFS_LABEL = f"{{{RDFS.uri}}}label"
_RDFS_COMMENT = f"{{{RDFS.uri}}}comment"
_RDFS_DOMAIN = f"{{{RDFS.uri}}}domain"
_RDFS_RANGE = f"{{{RDFS.uri}}}range"


class OwlParseError(Exception):
    """Raised when an OWL document cannot be interpreted."""


def ontology_to_xml(ontology: Ontology) -> str:
    """Serialise an ontology to an RDF/XML string."""
    ET.register_namespace("rdf", RDF.uri)
    ET.register_namespace("rdfs", RDFS.uri)
    ET.register_namespace("owl", OWL.uri)
    root = ET.Element(_RDF_RDF)

    header = ET.SubElement(root, _OWL_ONTOLOGY, {_RDF_ABOUT: ontology.uri})
    if ontology.label:
        ET.SubElement(header, _RDFS_LABEL).text = ontology.label

    for uri in sorted(ontology.concepts):
        concept = ontology.concepts[uri]
        element = ET.SubElement(root, _OWL_CLASS, {_RDF_ABOUT: uri})
        if concept.label:
            ET.SubElement(element, _RDFS_LABEL).text = concept.label
        if concept.comment:
            ET.SubElement(element, _RDFS_COMMENT).text = concept.comment
        for parent in sorted(concept.parents):
            ET.SubElement(element, _RDFS_SUBCLASS, {_RDF_RESOURCE: parent})
        for equivalent in sorted(concept.equivalents):
            ET.SubElement(element, _OWL_EQUIVALENT, {_RDF_RESOURCE: equivalent})

    for uri in sorted(ontology.properties):
        prop = ontology.properties[uri]
        tag = (
            _OWL_OBJECT_PROPERTY
            if prop.kind == PropertyKind.OBJECT
            else _OWL_DATATYPE_PROPERTY
        )
        element = ET.SubElement(root, tag, {_RDF_ABOUT: uri})
        if prop.label:
            ET.SubElement(element, _RDFS_LABEL).text = prop.label
        if prop.domain:
            ET.SubElement(element, _RDFS_DOMAIN, {_RDF_RESOURCE: prop.domain})
        if prop.range:
            ET.SubElement(element, _RDFS_RANGE, {_RDF_RESOURCE: prop.range})

    ET.indent(root)
    return ET.tostring(root, encoding="unicode", xml_declaration=True)


def ontology_from_xml(document: str) -> Ontology:
    """Parse an RDF/XML string produced by :func:`ontology_to_xml`."""
    try:
        root = ET.fromstring(document)
    except ET.ParseError as error:
        raise OwlParseError(f"malformed XML: {error}") from error
    if root.tag != _RDF_RDF:
        raise OwlParseError(f"expected rdf:RDF root, found {root.tag}")

    header = root.find(_OWL_ONTOLOGY)
    if header is None:
        raise OwlParseError("missing owl:Ontology header")
    uri = header.get(_RDF_ABOUT)
    if not uri:
        raise OwlParseError("owl:Ontology header lacks rdf:about")
    label_element = header.find(_RDFS_LABEL)
    ontology = Ontology(
        uri, label=label_element.text if label_element is not None else None
    )

    for element in root.findall(_OWL_CLASS):
        about = _require_about(element)
        label = _optional_text(element, _RDFS_LABEL)
        comment = _optional_text(element, _RDFS_COMMENT)
        concept = ontology.add_concept(about, label=label, comment=comment)
        for sub in element.findall(_RDFS_SUBCLASS):
            concept.parents.add(_require_resource(sub))
        for equivalent in element.findall(_OWL_EQUIVALENT):
            ontology.add_equivalence(about, _require_resource(equivalent))

    for tag, kind in (
        (_OWL_OBJECT_PROPERTY, PropertyKind.OBJECT),
        (_OWL_DATATYPE_PROPERTY, PropertyKind.DATATYPE),
    ):
        for element in root.findall(tag):
            about = _require_about(element)
            domain_element = element.find(_RDFS_DOMAIN)
            range_element = element.find(_RDFS_RANGE)
            ontology.add_property(
                about,
                kind=kind,
                domain=(
                    _require_resource(domain_element)
                    if domain_element is not None
                    else None
                ),
                range=(
                    _require_resource(range_element)
                    if range_element is not None
                    else None
                ),
                label=_optional_text(element, _RDFS_LABEL),
            )

    return ontology


def _require_about(element: ET.Element) -> str:
    about = element.get(_RDF_ABOUT)
    if not about:
        raise OwlParseError(f"{element.tag} lacks rdf:about")
    return about


def _require_resource(element: ET.Element) -> str:
    resource = element.get(_RDF_RESOURCE)
    if not resource:
        raise OwlParseError(f"{element.tag} lacks rdf:resource")
    return resource


def _optional_text(element: ET.Element, tag: str) -> Optional[str]:
    child = element.find(tag)
    return child.text if child is not None else None
