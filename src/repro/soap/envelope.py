"""SOAP 1.1-style envelopes.

An envelope carries either an operation *call*, an operation *result*, or a
*fault*.  Envelopes serialise to XML; their byte length is used as the
simulated message size, so bigger payloads genuinely cost more simulated
transmission time.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from .encoding import (
    element_to_value,
    encode_value,
    escape_attr,
    escape_text,
    xml_element,
)
from .fault import SoapFault

__all__ = ["Envelope", "EnvelopeError", "SOAP_ENV_NS"]

SOAP_ENV_NS = "http://schemas.xmlsoap.org/soap/envelope/"

_ENVELOPE = f"{{{SOAP_ENV_NS}}}Envelope"
_HEADER = f"{{{SOAP_ENV_NS}}}Header"
_BODY = f"{{{SOAP_ENV_NS}}}Body"
_FAULT = f"{{{SOAP_ENV_NS}}}Fault"

#: Prolog and root start tag, as ElementTree's serialiser writes them.
_OPEN = (
    "<?xml version='1.0' encoding='utf-8'?>\n"
    f'<soapenv:Envelope xmlns:soapenv="{SOAP_ENV_NS}">'
)


class EnvelopeError(Exception):
    """Raised when an envelope cannot be parsed."""


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
        add("</soapenv:Body></soapenv:Envelope>")
        return "".join(parts)

    @classmethod
    def from_xml(cls, document: str) -> "Envelope":
        try:
            root = ET.fromstring(document)
        except ET.ParseError as error:
            raise EnvelopeError(f"malformed SOAP XML: {error}") from error
        if root.tag != _ENVELOPE:
            raise EnvelopeError(f"expected soap Envelope, found {root.tag}")

        headers: Dict[str, str] = {}
        header_el = root.find(_HEADER)
        if header_el is not None:
            for entry in header_el.findall("header"):
                name = entry.get("name")
                if name:
                    headers[name] = entry.text or ""

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
            return cls(kind="fault", fault=fault, headers=headers)

        call_el = body.find("call")
        if call_el is not None:
            arguments = {}
            for argument in call_el.findall("argument"):
                name = argument.get("name")
                if name is None:
                    raise EnvelopeError("call argument lacks a name")
                arguments[name] = element_to_value(argument)
            return cls(
                kind="call",
                operation=call_el.get("operation", ""),
                arguments=arguments,
                headers=headers,
            )

        result_el = body.find("result")
        if result_el is not None:
            return_el = result_el.find("return")
            value = element_to_value(return_el) if return_el is not None else None
            return cls(
                kind="result",
                operation=result_el.get("operation", ""),
                value=value,
                headers=headers,
            )

        raise EnvelopeError("envelope body holds neither call, result, nor fault")

    def size_bytes(self) -> int:
        """Encoded size, used as the simulated wire size."""
        return len(self.to_xml().encode())
