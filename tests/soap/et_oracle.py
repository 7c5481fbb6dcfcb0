"""The ElementTree encoder the SOAP string writer replaced, kept as the oracle.

Until PR 12 ``Envelope.to_xml`` built an ElementTree and serialised it with
``ET.tostring``; ``repro.soap`` now writes the same document directly.
These are the old functions, unchanged, so the byte-identity tests compare
the writer against the serialiser it must keep matching.
"""

import xml.etree.ElementTree as ET

from repro.soap import SOAP_ENV_NS, EncodingError, EnvelopeError
from repro.soap.encoding import _check_xml_text
from repro.soap.envelope import _BODY, _ENVELOPE, _FAULT, _HEADER

#: What ``ET.tostring(..., encoding="unicode", xml_declaration=True)`` puts
#: first on Python >= 3.11.  Older interpreters may name the locale's
#: encoding there instead (``UTF-8``), so the oracle pins this form rather
#: than asking ElementTree for the declaration.
PROLOG = "<?xml version='1.0' encoding='utf-8'?>\n"


def value_to_element(tag, value):
    """Encode ``value`` into an element named ``tag``."""
    element = ET.Element(tag)
    if value is None:
        element.set("type", "null")
    elif isinstance(value, bool):
        element.set("type", "bool")
        element.text = "true" if value else "false"
    elif isinstance(value, int):
        element.set("type", "int")
        element.text = str(value)
    elif isinstance(value, float):
        element.set("type", "float")
        element.text = repr(value)
    elif isinstance(value, str):
        element.set("type", "string")
        element.text = _check_xml_text(value, "string value")
    elif isinstance(value, (list, tuple)):
        element.set("type", "list")
        for entry in value:
            element.append(value_to_element("item", entry))
    elif isinstance(value, dict):
        element.set("type", "struct")
        for key in value:
            if not isinstance(key, str):
                raise EncodingError(f"struct keys must be strings, got {key!r}")
            member = value_to_element("member", value[key])
            member.set("name", _check_xml_text(key, "struct key"))
            element.append(member)
    else:
        raise EncodingError(f"cannot encode value of type {type(value).__name__}")
    return element


def value_to_xml(tag, value, name=None):
    element = value_to_element(tag, value)
    if name is not None:
        element.set("name", name)
    return ET.tostring(element, encoding="unicode")


def envelope_to_xml(envelope):
    """``Envelope.to_xml`` as it was: build the tree, let ElementTree write it."""
    ET.register_namespace("soapenv", SOAP_ENV_NS)
    root = ET.Element(_ENVELOPE)
    if envelope.headers:
        header_el = ET.SubElement(root, _HEADER)
        for name, value in sorted(envelope.headers.items()):
            entry = ET.SubElement(header_el, "header", {"name": name})
            entry.text = str(value)
    body = ET.SubElement(root, _BODY)

    if envelope.kind == "call":
        call_el = ET.SubElement(body, "call", {"operation": envelope.operation or ""})
        for name, value in envelope.arguments.items():
            argument = value_to_element("argument", value)
            argument.set("name", name)
            call_el.append(argument)
    elif envelope.kind == "result":
        result_el = ET.SubElement(
            body, "result", {"operation": envelope.operation or ""}
        )
        result_el.append(value_to_element("return", envelope.value))
    elif envelope.kind == "fault":
        fault = envelope.fault
        fault_el = ET.SubElement(body, _FAULT)
        ET.SubElement(fault_el, "faultcode").text = fault.faultcode
        ET.SubElement(fault_el, "faultstring").text = fault.faultstring
        if fault.faultactor:
            ET.SubElement(fault_el, "faultactor").text = fault.faultactor
        if fault.detail is not None:
            detail_el = ET.SubElement(fault_el, "detail")
            detail_el.append(value_to_element("value", fault.detail))
    else:
        raise EnvelopeError(f"unknown envelope kind {envelope.kind!r}")
    return PROLOG + ET.tostring(root, encoding="unicode")
