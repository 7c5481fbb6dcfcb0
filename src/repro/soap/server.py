"""SOAP endpoints on the server side.

A :class:`SoapServer` mounts *dispatchers* on HTTP paths.  A dispatcher
receives ``(operation, arguments, headers)`` and returns the result value —
either directly or as a generator that performs simulated work first (the
Whisper web service's dispatcher forwards to the SWS-proxy and the P2P
network before returning).  Exceptions become ``<soap:fault>`` responses;
:class:`~repro.soap.fault.SoapFault` passes through with its code intact.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Callable, Dict, Generator

from ..simnet.node import Node
from .envelope import Envelope, EnvelopeError
from .fault import SoapFault
from .http import HttpRequest, HttpResponse, HttpServer

__all__ = ["SoapServer", "Dispatcher"]

#: (operation, arguments, headers) -> value | generator-returning-value
Dispatcher = Callable[[str, Dict[str, Any], Dict[str, str]], Any]


class SoapServer:
    """SOAP-over-HTTP endpoints for one node."""

    def __init__(self, node: Node):
        self.node = node
        self.http = HttpServer(node)
        self._dispatchers: Dict[str, Dispatcher] = {}
        self.calls_handled = 0
        self.faults_returned = 0

    @property
    def port(self) -> int:
        return self.http.port

    def mount(self, path: str, dispatcher: Dispatcher) -> None:
        """Expose ``dispatcher`` at ``path``."""
        self._dispatchers[path] = dispatcher
        self.http.route(path, self._make_handler(dispatcher))

    def _make_handler(self, dispatcher: Dispatcher):
        def handle(request: HttpRequest) -> Generator:
            try:
                envelope = Envelope.from_xml(request.body)
            except EnvelopeError as error:
                fault = SoapFault.client(f"unparseable envelope: {error}")
                return self._fault_response(fault)
            if envelope.kind != "call":
                fault = SoapFault.client(f"expected a call, got {envelope.kind}")
                return self._fault_response(fault)
            return self._invoke(dispatcher, envelope)

        return handle

    def _invoke(self, dispatcher: Dispatcher, envelope: Envelope) -> Generator:
        try:
            outcome = dispatcher(
                envelope.operation, envelope.arguments, envelope.headers
            )
            if isinstance(outcome, GeneratorType):
                outcome = yield from outcome
        except SoapFault as fault:
            return self._fault_response(fault)
        except Exception as error:  # application bug -> Server fault
            return self._fault_response(
                SoapFault.server(f"{type(error).__name__}: {error}")
            )
        self.calls_handled += 1
        reply = Envelope.result(envelope.operation, outcome)
        return HttpResponse(status=200, body=reply.to_xml())

    def _fault_response(self, fault: SoapFault) -> HttpResponse:
        self.faults_returned += 1
        envelope = Envelope.from_fault(fault)
        return HttpResponse(status=500, body=envelope.to_xml())
