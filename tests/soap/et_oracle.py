"""The ElementTree codec the SOAP string codec replaced, kept as the oracle.

Until PR 12 ``Envelope.to_xml`` built an ElementTree and serialised it with
``ET.tostring``, and until PR 17 ``Envelope.from_xml`` parsed with
``ET.fromstring`` and walked the tree; ``repro.soap`` now writes and reads
the same document directly, with no XML parser.  These are the old
functions, unchanged but for the Header block no envelope carries any more
(a document with one is now outside the grammar), so the byte-identity
tests compare the writer against
the serialiser it must keep matching, and the reader tests compare the
scanner against the parser it must agree with on everything the writer can
produce.  (Unlike the scanner, the old reader lets ``EncodingError`` and
``RecursionError`` escape — the bugs PR 17 fixed stay visible here.)
"""

import xml.etree.ElementTree as ET

from repro.soap import SOAP_ENV_NS, EncodingError, Envelope, EnvelopeError, SoapFault
from repro.soap.encoding import _XML_INVALID


def _check_xml_text(text, what):
    """The old writer's per-string check: string values and struct keys
    only (the writer now checks its whole document once)."""
    match = _XML_INVALID.search(text)
    if match is not None:
        raise EncodingError(
            f"{what} contains an XML-invalid character {match.group()!r} "
            f"at index {match.start()}"
        )
    return text

_ENVELOPE = f"{{{SOAP_ENV_NS}}}Envelope"
_BODY = f"{{{SOAP_ENV_NS}}}Body"
_FAULT = f"{{{SOAP_ENV_NS}}}Fault"

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


def element_to_value(element):
    """Decode a (parsed) element produced by ``encode_value``."""
    kind = element.get("type", "string")
    if kind == "null":
        return None
    if kind == "bool":
        return element.text == "true"
    if kind == "int":
        try:
            return int(element.text or "0")
        except ValueError as error:
            raise EncodingError(f"bad int payload {element.text!r}") from error
    if kind == "float":
        try:
            return float(element.text or "0")
        except ValueError as error:
            raise EncodingError(f"bad float payload {element.text!r}") from error
    if kind == "string":
        return element.text or ""
    if kind == "list":
        return [element_to_value(child) for child in element]
    if kind == "struct":
        result = {}
        for child in element:
            name = child.get("name")
            if name is None:
                raise EncodingError("struct member lacks a name")
            result[name] = element_to_value(child)
        return result
    raise EncodingError(f"unknown encoded type {kind!r}")


def envelope_from_xml(document):
    """``Envelope.from_xml`` as it was: parse to a tree, then walk it."""
    try:
        root = ET.fromstring(document)
    except ET.ParseError as error:
        raise EnvelopeError(f"malformed SOAP XML: {error}") from error
    if root.tag != _ENVELOPE:
        raise EnvelopeError(f"expected soap Envelope, found {root.tag}")

    body = root.find(_BODY)
    if body is None:
        raise EnvelopeError("envelope has no Body")

    fault_el = body.find(_FAULT)
    if fault_el is not None:
        detail_value = None
        detail_el = fault_el.find("detail")
        if detail_el is not None and len(detail_el):
            detail_value = element_to_value(detail_el[0])
        actor_el = fault_el.find("faultactor")
        fault = SoapFault(
            faultcode=fault_el.findtext("faultcode", "Server"),
            faultstring=fault_el.findtext("faultstring", ""),
            detail=detail_value,
            faultactor=actor_el.text if actor_el is not None else None,
        )
        return Envelope(kind="fault", fault=fault)

    call_el = body.find("call")
    if call_el is not None:
        arguments = {}
        for argument in call_el.findall("argument"):
            name = argument.get("name")
            if name is None:
                raise EnvelopeError("call argument lacks a name")
            arguments[name] = element_to_value(argument)
        return Envelope(
            kind="call",
            operation=call_el.get("operation", ""),
            arguments=arguments,
        )

    result_el = body.find("result")
    if result_el is not None:
        return_el = result_el.find("return")
        value = element_to_value(return_el) if return_el is not None else None
        return Envelope(
            kind="result",
            operation=result_el.get("operation", ""),
            value=value,
        )

    raise EnvelopeError("envelope body holds neither call, result, nor fault")


def envelope_shape(envelope):
    """Everything an envelope holds as one string, so that two readers'
    results compare even where ``nan != nan`` and ``0.0 == -0.0 == False``."""
    fault = envelope.fault and vars(envelope.fault)
    return repr(
        (envelope.kind, envelope.operation, envelope.arguments, envelope.value, fault)
    )  # fmt: skip
