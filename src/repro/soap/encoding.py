"""Encoding Python values as XML elements and back.

SOAP bodies carry structured values.  We use a small self-describing
encoding: every element gets a ``type`` attribute (string, int, float,
bool, null, struct, list) so round-tripping is loss-free without needing a
schema at the decoding side.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from typing import Any, Optional

__all__ = ["encode_value", "element_to_value", "EncodingError"]


class EncodingError(Exception):
    """Raised when a value cannot be encoded or decoded."""


#: Characters XML 1.0 cannot carry (anywhere — text or attributes).
_XML_INVALID = re.compile(
    "[^\x09\x0a\x0d\x20-퟿-�\U00010000-\U0010ffff]"
)


def _check_xml_text(text: str, what: str) -> str:
    """Reject strings XML 1.0 cannot transport (e.g. control characters).

    SOAP is an XML protocol: such strings cannot appear on the wire, so we
    fail loudly at encode time instead of producing an unparseable message.
    """
    match = _XML_INVALID.search(text)
    if match is not None:
        raise EncodingError(
            f"{what} contains an XML-invalid character {match.group()!r} "
            f"at index {match.start()}"
        )
    return text


def escape_text(text: str) -> str:
    """Escape character data exactly as ElementTree's serialiser does."""
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    return text


def escape_attr(text: str) -> str:
    """Escape an attribute value exactly as ElementTree's serialiser does."""
    text = escape_text(text)
    if '"' in text:
        text = text.replace('"', "&quot;")
    if "\r" in text:
        text = text.replace("\r", "&#13;")
    if "\n" in text:
        text = text.replace("\n", "&#10;")
    if "\t" in text:
        text = text.replace("\t", "&#09;")
    return text


def xml_element(tag: str, attrs: str, body: str) -> str:
    """One serialised element; an empty ``body`` takes the ``<tag />`` form."""
    return f"<{tag}{attrs}>{body}</{tag}>" if body else f"<{tag}{attrs} />"


def encode_value(tag: str, value: Any, name: Optional[str] = None) -> str:
    """Encode ``value`` as the XML of an element named ``tag`` (``name``: its
    ``name`` attribute), byte for byte as ElementTree would serialise it."""
    if value is None:
        kind, body = "null", ""
    elif isinstance(value, bool):
        kind, body = "bool", "true" if value else "false"
    elif isinstance(value, int):
        kind, body = "int", str(value)
    elif isinstance(value, float):
        kind, body = "float", repr(value)
    elif isinstance(value, str):
        kind, body = "string", escape_text(_check_xml_text(value, "string value"))
    elif isinstance(value, (list, tuple)):
        kind, body = "list", "".join([encode_value("item", entry) for entry in value])
    elif isinstance(value, dict):
        members = []
        for key in value:
            if not isinstance(key, str):
                raise EncodingError(f"struct keys must be strings, got {key!r}")
            _check_xml_text(key, "struct key")
            members.append(encode_value("member", value[key], key))
        kind, body = "struct", "".join(members)
    else:
        raise EncodingError(f"cannot encode value of type {type(value).__name__}")
    attrs = f' type="{kind}"'
    if name is not None:
        attrs += f' name="{escape_attr(name)}"'
    return xml_element(tag, attrs, body)


def element_to_value(element: ET.Element) -> Any:
    """Decode a (parsed) element produced by :func:`encode_value`."""
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
