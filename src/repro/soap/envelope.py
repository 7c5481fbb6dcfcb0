"""SOAP 1.1-style envelopes.

An envelope carries either an operation *call*, an operation *result*, or a
*fault*.  Envelopes serialise to XML; their byte length is used as the
simulated message size, so bigger payloads genuinely cost more simulated
transmission time.

:meth:`Envelope.to_xml` writes the document the standard library's tree
serialiser would, and :meth:`Envelope.from_xml` reads that language, and only
that language, back in one pass over the string: no XML parser, no tree
(DESIGN.md §6.10; ``tests/soap/et_oracle.py`` keeps the tree forms of both).
Every envelope in the system comes from ``to_xml``, so anything else — another
prefix, single quotes, a comment, CDATA, a DOCTYPE, whitespace between
elements — is an :class:`EnvelopeError`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from .encoding import encode_value, escape_attr, escape_text, xml_element  # to_xml's half
from .encoding import ATTR, TEXT, EncodingError, decode_values, unescape_attr, unescape_text
from .fault import SoapFault

__all__ = ["Envelope", "EnvelopeError", "SOAP_ENV_NS"]

SOAP_ENV_NS = "http://schemas.xmlsoap.org/soap/envelope/"

#: Prolog and root start tag, as the stdlib tree serialiser writes them.
_OPEN = (
    "<?xml version='1.0' encoding='utf-8'?>\n"
    f'<soapenv:Envelope xmlns:soapenv="{SOAP_ENV_NS}">'
)
_CLOSE = "</soapenv:Body></soapenv:Envelope>"
_CALL_CLOSE = "</call>" + _CLOSE
_RESULT_CLOSE = "</result>" + _CLOSE
_FAULT_CLOSE = "</soapenv:Fault>" + _CLOSE
_DETAIL_CLOSE = "</detail>" + _FAULT_CLOSE

_HEADER = re.compile(f'<header name="({ATTR})"(?: />|>(?!<)({TEXT})</header>)')
#: Everything before the first encoded value: prolog, root tag, the optional
#: Header block (group 1; 2-3 are its last entry), then the start tag of a call
#: or result (4-6) or a Fault's own children (7-10).
_OPENING = re.compile(
    re.escape(_OPEN)
    + f"(?:<soapenv:Header>((?:{_HEADER.pattern})+)</soapenv:Header>)?"
    + f'<soapenv:Body><(?:(call|result) operation="({ATTR})"( />|>)'
    + f"|soapenv:Fault><faultcode(?: />|>(?!<)({TEXT})</faultcode>)"
    + f"<faultstring(?: />|>(?!<)({TEXT})</faultstring>)"
    + f"(?:<faultactor>(?!<)({TEXT})</faultactor>)?(<detail>)?)"
)


class EnvelopeError(Exception):
    """Raised when an envelope cannot be parsed."""


def _one_value(document: str, pos: int, tag: str, closing: str) -> Any:
    """The one ``tag`` element at ``pos``; ``closing`` must end the document."""
    values = []
    if decode_values(document, pos, values, tag) != closing or len(values) != 1:
        raise EnvelopeError(f"expected one <{tag}> element and the closing tags")
    return values[0]


@dataclass
class Envelope:
    """One SOAP message.

    Exactly one of the following holds:

    * ``kind == "call"``   — ``operation`` and ``arguments`` are set;
    * ``kind == "result"`` — ``operation`` and ``value`` are set;
    * ``kind == "fault"``  — ``fault`` is set.
    """

    kind: str
    operation: Optional[str] = None
    arguments: Dict[str, Any] = field(default_factory=dict)
    value: Any = None
    fault: Optional[SoapFault] = None
    headers: Dict[str, str] = field(default_factory=dict)

    # -- constructors ------------------------------------------------------------

    @classmethod
    def call(
        cls,
        operation: str,
        arguments: Optional[Dict[str, Any]] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> "Envelope":
        return cls(
            kind="call",
            operation=operation,
            arguments=dict(arguments or {}),
            headers=dict(headers or {}),
        )

    @classmethod
    def result(cls, operation: str, value: Any) -> "Envelope":
        return cls(kind="result", operation=operation, value=value)

    @classmethod
    def from_fault(cls, fault: SoapFault) -> "Envelope":
        return cls(kind="fault", fault=fault)

    @property
    def is_fault(self) -> bool:
        return self.kind == "fault"

    def raise_if_fault(self) -> None:
        """Re-raise the carried fault, if any."""
        if self.fault is not None:
            raise self.fault

    # -- XML ------------------------------------------------------------------------

    def to_xml(self) -> str:
        parts = [_OPEN]
        add = parts.append
        if self.headers:
            add("<soapenv:Header>")
            for name, value in sorted(self.headers.items()):
                attrs = f' name="{escape_attr(name)}"'
                add(xml_element("header", attrs, escape_text(str(value))))
            add("</soapenv:Header>")
        add("<soapenv:Body>")

        if self.kind == "call":
            arguments = [
                encode_value("argument", value, name)
                for name, value in self.arguments.items()
            ]
            attrs = f' operation="{escape_attr(self.operation or "")}"'
            add(xml_element("call", attrs, "".join(arguments)))
        elif self.kind == "result":
            attrs = f' operation="{escape_attr(self.operation or "")}"'
            add(xml_element("result", attrs, encode_value("return", self.value)))
        elif self.kind == "fault":
            fault = self.fault
            add("<soapenv:Fault>")
            add(xml_element("faultcode", "", escape_text(fault.faultcode)))
            add(xml_element("faultstring", "", escape_text(fault.faultstring)))
            if fault.faultactor:
                add(xml_element("faultactor", "", escape_text(fault.faultactor)))
            if fault.detail is not None:
                add(xml_element("detail", "", encode_value("value", fault.detail)))
            add("</soapenv:Fault>")
        else:
            raise EnvelopeError(f"unknown envelope kind {self.kind!r}")
        add(_CLOSE)
        return "".join(parts)

    @classmethod
    def from_xml(cls, document: str) -> "Envelope":
        """Read what :meth:`to_xml` wrote.  Anything else raises
        :class:`EnvelopeError`, and nothing raises another type."""
        head = _OPENING.match(document) if isinstance(document, str) else None
        if head is None:
            raise EnvelopeError("not the start of an envelope as to_xml writes it")
        block, _, _, kind, operation, form, code, string, actor, has_detail = head.groups()
        pos = head.end()
        try:
            envelope = cls(kind or "fault", operation and unescape_attr(operation))
            for name, text in _HEADER.findall(block) if block else ():
                envelope.headers[unescape_attr(name)] = unescape_text(text)
            envelope.headers.pop("", None)  # a header without a name is not kept
            if kind == "call":
                if form == ">":  # the long form: at least one argument
                    rest = decode_values(document, pos, envelope.arguments, "argument")
                    if rest != _CALL_CLOSE or not envelope.arguments:
                        raise EnvelopeError("malformed call element")
                elif document[pos:] != _CLOSE:
                    raise EnvelopeError("malformed call element")
            elif kind == "result":
                if form != ">":
                    raise EnvelopeError("result element without a return element")
                envelope.value = _one_value(document, pos, "return", _RESULT_CLOSE)
            else:
                detail = None
                if has_detail:
                    detail = _one_value(document, pos, "value", _DETAIL_CLOSE)
                elif document[pos:] != _FAULT_CLOSE:
                    raise EnvelopeError("malformed Fault element")
                envelope.fault = SoapFault(
                    faultcode=unescape_text(code or ""),
                    faultstring=unescape_text(string or ""),
                    detail=detail,
                    faultactor=None if actor is None else unescape_text(actor),
                )
        except EncodingError as error:
            raise EnvelopeError(f"malformed SOAP payload: {error}") from error
        return envelope

    def size_bytes(self) -> int:
        """Encoded size, used as the simulated wire size."""
        return len(self.to_xml().encode())
