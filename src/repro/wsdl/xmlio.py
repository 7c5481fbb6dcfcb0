"""Reading and writing WSDL-S documents as XML.

The writer emits documents shaped like the paper's §3.1 listing::

    <definitions name="StudentManagement" ... xmlns:sm="http://uma.pt/...#">
      <interface name="StudentManagementUMA">
        <operation name="StudentInformation">
          <wssem:action modelReference="sm:StudentInformation"/>
          <input messageLabel="ID" element="tns:StudentID"
                 wssem:modelReference="sm:StudentID"/>
          <output messageLabel="student" element="tns:StudentInfo"
                  wssem:modelReference="sm:StudentInfo"/>
        </operation>
      </interface>
    </definitions>

The parser additionally accepts the paper's shorthand, where the ``element``
attribute itself names the ontology concept (``element="sm:StudentID"``):
if no ``modelReference`` is present, the ``element`` CURIE is resolved
through the document's namespace bindings and used as the concept.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Dict, Optional

from .definitions import (
    Definitions,
    Interface,
    MessagePart,
    Operation,
    WsdlError,
)
from .schema import ComplexType, ElementDecl, Schema

__all__ = ["definitions_to_xml", "definitions_from_xml", "WSDL_NS", "WSSEM_NS"]

WSDL_NS = "http://www.w3.org/2006/01/wsdl"
WSSEM_NS = "http://www.ibm.com/xmlns/WebServices/WSDL-S"
XSD_NS = "http://www.w3.org/2001/XMLSchema"

_MODEL_REF = f"{{{WSSEM_NS}}}modelReference"


def definitions_to_xml(definitions: Definitions) -> str:
    """Serialise a :class:`Definitions` document to XML."""
    ET.register_namespace("", WSDL_NS)
    ET.register_namespace("wssem", WSSEM_NS)
    ET.register_namespace("xsd", XSD_NS)
    for prefix, uri in definitions.namespaces.items():
        ET.register_namespace(prefix, uri)

    root = ET.Element(
        f"{{{WSDL_NS}}}definitions",
        {
            "name": definitions.name,
            "targetNamespace": definitions.target_namespace,
        },
    )
    for prefix, uri in sorted(definitions.namespaces.items()):
        root.set(f"xmlns:{prefix}" if prefix else "xmlns", uri)

    if definitions.schema.elements or definitions.schema.complex_types:
        types = ET.SubElement(root, f"{{{WSDL_NS}}}types")
        schema_el = ET.SubElement(
            types,
            f"{{{XSD_NS}}}schema",
            {"targetNamespace": definitions.schema.target_namespace},
        )
        for name in sorted(definitions.schema.complex_types):
            complex_type = definitions.schema.complex_types[name]
            ct_el = ET.SubElement(
                schema_el, f"{{{XSD_NS}}}complexType", {"name": name}
            )
            sequence = ET.SubElement(ct_el, f"{{{XSD_NS}}}sequence")
            for element in complex_type.elements:
                attrs = {"name": element.name, "type": element.type_name}
                if element.min_occurs != 1:
                    attrs["minOccurs"] = str(element.min_occurs)
                if element.max_occurs != 1:
                    attrs["maxOccurs"] = (
                        "unbounded" if element.max_occurs == -1 else str(element.max_occurs)
                    )
                ET.SubElement(sequence, f"{{{XSD_NS}}}element", attrs)
        for name in sorted(definitions.schema.elements):
            element = definitions.schema.elements[name]
            ET.SubElement(
                schema_el,
                f"{{{XSD_NS}}}element",
                {"name": element.name, "type": element.type_name},
            )

    for interface in definitions.interfaces.values():
        interface_el = ET.SubElement(
            root, f"{{{WSDL_NS}}}interface", {"name": interface.name}
        )
        for operation in interface.operations.values():
            op_el = ET.SubElement(
                interface_el, f"{{{WSDL_NS}}}operation", {"name": operation.name}
            )
            if operation.action:
                ET.SubElement(
                    op_el,
                    f"{{{WSSEM_NS}}}action",
                    {"modelReference": operation.action},
                )
            for part in operation.inputs:
                _write_part(op_el, f"{{{WSDL_NS}}}input", part)
            for part in operation.outputs:
                _write_part(op_el, f"{{{WSDL_NS}}}output", part)
            for fault in operation.faults:
                ET.SubElement(op_el, f"{{{WSDL_NS}}}outfault", {"ref": fault})

    ET.indent(root)
    return ET.tostring(root, encoding="unicode", xml_declaration=True)


def _write_part(parent: ET.Element, tag: str, part: MessagePart) -> None:
    attrs = {"messageLabel": part.message_label, "element": part.element}
    if part.model_reference:
        attrs[_MODEL_REF] = part.model_reference
    ET.SubElement(parent, tag, attrs)


def definitions_from_xml(document: str) -> Definitions:
    """Parse a WSDL-S document (our output format or the paper's shorthand)."""
    root, namespaces = _parse_with_namespaces(document)
    if root.tag not in (f"{{{WSDL_NS}}}definitions", "definitions"):
        raise WsdlError(f"expected wsdl:definitions root, found {root.tag}")

    name = root.get("name")
    if not name:
        raise WsdlError("definitions element lacks a name")
    definitions = Definitions(
        name=name,
        target_namespace=root.get("targetNamespace", ""),
        namespaces=namespaces,
    )

    schema_el = root.find(f"{{{WSDL_NS}}}types/{{{XSD_NS}}}schema")
    if schema_el is None:
        schema_el = root.find(f"types/{{{XSD_NS}}}schema")
    if schema_el is not None:
        definitions.schema = _parse_schema(schema_el)

    for interface_el in _findall_either(root, "interface"):
        interface = Interface(name=interface_el.get("name", ""))
        for op_el in _findall_either(interface_el, "operation"):
            operation = Operation(name=op_el.get("name", ""))
            action_el = op_el.find(f"{{{WSSEM_NS}}}action")
            if action_el is None:
                action_el = op_el.find("action")
            if action_el is not None:
                reference = action_el.get("modelReference") or action_el.get("element")
                if reference:
                    operation.action = _resolve_curie(reference, namespaces)
            for input_el in _findall_either(op_el, "input"):
                operation.inputs.append(_parse_part(input_el, namespaces))
            for output_el in _findall_either(op_el, "output"):
                operation.outputs.append(_parse_part(output_el, namespaces))
            interface.add_operation(operation)
        definitions.add_interface(interface)

    return definitions


def _parse_with_namespaces(document: str):
    """Parse XML keeping prefix -> URI declarations (ET normally drops them)."""
    parser = ET.XMLPullParser(events=("start-ns", "start", "end"))
    bindings: Dict[str, str] = {}
    root: Optional[ET.Element] = None
    try:
        parser.feed(document)
        for event, payload in parser.read_events():
            if event == "start-ns":
                prefix, uri = payload
                if prefix:
                    bindings[prefix] = uri
            elif event == "start" and root is None:
                root = payload
        parser.close()
    except ET.ParseError as error:
        raise WsdlError(f"malformed WSDL XML: {error}") from error
    if root is None:
        raise WsdlError("empty WSDL document")
    return root, bindings


def _parse_schema(schema_el: ET.Element) -> Schema:
    schema = Schema(target_namespace=schema_el.get("targetNamespace", ""))
    for ct_el in schema_el.findall(f"{{{XSD_NS}}}complexType"):
        complex_type = ComplexType(name=ct_el.get("name", ""))
        sequence = ct_el.find(f"{{{XSD_NS}}}sequence")
        if sequence is not None:
            for element_el in sequence.findall(f"{{{XSD_NS}}}element"):
                max_occurs = element_el.get("maxOccurs", "1")
                complex_type.elements.append(
                    ElementDecl(
                        name=element_el.get("name", ""),
                        type_name=element_el.get("type", "xsd:string"),
                        min_occurs=int(element_el.get("minOccurs", "1")),
                        max_occurs=-1 if max_occurs == "unbounded" else int(max_occurs),
                    )
                )
        schema.add_complex_type(complex_type)
    for element_el in schema_el.findall(f"{{{XSD_NS}}}element"):
        schema.add_element(
            ElementDecl(
                name=element_el.get("name", ""),
                type_name=element_el.get("type", "xsd:string"),
            )
        )
    return schema


def _parse_part(element: ET.Element, namespaces: Dict[str, str]) -> MessagePart:
    model_reference = element.get(_MODEL_REF) or element.get("modelReference")
    schema_element = element.get("element", "")
    if model_reference is None and schema_element:
        # Paper shorthand: element="sm:StudentID" names the concept directly.
        resolved = _resolve_curie(schema_element, namespaces)
        if resolved != schema_element:
            model_reference = resolved
    elif model_reference is not None:
        model_reference = _resolve_curie(model_reference, namespaces)
    return MessagePart(
        message_label=element.get("messageLabel", ""),
        element=schema_element,
        model_reference=model_reference,
    )


def _resolve_curie(value: str, namespaces: Dict[str, str]) -> str:
    if "://" in value:
        return value
    if ":" in value:
        prefix, local = value.split(":", 1)
        base = namespaces.get(prefix)
        if base:
            return base + local
    return value


def _findall_either(parent: ET.Element, local_name: str):
    """Find children whether or not they carry the WSDL namespace."""
    found = parent.findall(f"{{{WSDL_NS}}}{local_name}")
    if found:
        return found
    return parent.findall(local_name)
