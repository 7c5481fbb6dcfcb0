"""Simulated HTTP over the datagram transport.

Enough of HTTP for SOAP-over-HTTP: a request with method/path/body, a
response with status/body, request/response correlation, per-request
server-side handler processes, and client-side timeouts.

A *timeout* here is semantically important: when a host crashes, SOAP
produces no ``<soap:fault>`` — the client just never hears back.  That is
the "system failure" class of §1 that WSDL/SOAP cannot express and that
Whisper masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import GeneratorType
from typing import Any, Callable, Dict, Generator

from ..simnet.events import EXPIRED, Interrupt, Wait
from ..simnet.message import Address
from ..simnet.node import Node

__all__ = ["HttpRequest", "HttpResponse", "HttpServer", "RequestTimeout", "http_request"]


class RequestTimeout(Exception):
    """No response arrived in time — the silent system-failure mode of §1."""

    def __init__(self, address: Address, path: str, timeout: float):
        super().__init__(f"no response from {address[0]}:{address[1]}{path} "
                         f"within {timeout}s")
        self.address = address
        self.path = path
        self.timeout = timeout


def _wire_size(headers: Dict[str, Any], body: str) -> int:
    """Bytes on the wire: fixed overhead + header text + UTF-8 body."""
    overhead = 128 + sum(len(k) + len(str(v)) for k, v in headers.items())
    # An ASCII body is as long encoded as it is in characters; only other
    # bodies need the encoded copy to be built and measured.
    return overhead + (len(body) if body.isascii() else len(body.encode()))


@dataclass
class HttpRequest:
    method: str
    path: str
    body: str = ""
    headers: Dict[str, str] = field(default_factory=dict)

    def size_bytes(self) -> int:
        return _wire_size(self.headers, self.body)


@dataclass
class HttpResponse:
    status: int = 200
    body: str = ""
    headers: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def size_bytes(self) -> int:
        return _wire_size(self.headers, self.body)


#: A handler takes the request and returns a response — directly or as a
#: generator that yields simulation events before returning the response.
Handler = Callable[[HttpRequest], Any]


class HttpServer:
    """An HTTP listener on one node, dispatching by request path."""

    def __init__(self, node: Node):
        self.node = node
        #: Every service on the LAN listens on HTTP's one well-known port.
        self.port = 80
        self._handlers: Dict[str, Handler] = {}
        self._socket = None
        self.requests_served = 0
        self._serve_name = f"http-req:{node.name}"
        self.start()
        node.on_crash(lambda _node: self._teardown())
        node.on_restart(lambda _node: self.start())

    def route(self, path: str, handler: Handler) -> None:
        """Register ``handler`` for requests to ``path``."""
        self._handlers[path] = handler

    def start(self) -> None:
        """(Re)bind the port and start the accept loop."""
        if self._socket is not None and not self._socket.closed:
            return
        self._socket = self.node.transport.bind(self.port, self._accept)
        self.node.spawn(self._accept_loop(), name=f"http:{self.node.name}:{self.port}")

    def _teardown(self) -> None:
        """Release the port immediately on crash (the accept loop's
        interrupt is delivered asynchronously, too late for a synchronous
        crash+restart sequence)."""
        if self._socket is not None:
            self._socket.close()
            self._socket = None

    def _accept_loop(self) -> Generator:
        socket = self._socket
        accept = socket.receiver
        try:
            while True:
                accept((yield socket.recv()))
        except Interrupt:
            socket.close()
            if self._socket is socket:
                self._socket = None

    def _accept(self, message) -> None:
        """The accept loop's body, also run in the arrival event itself
        (:attr:`~repro.simnet.transport.Socket.receiver`)."""
        request = message.payload
        if isinstance(request, HttpRequest):
            self.node.spawn(self._serve(message, request), name=self._serve_name)

    def _serve(self, message, request: HttpRequest) -> Generator:
        handler = self._handlers.get(request.path)
        if handler is None:
            response = HttpResponse(status=404, body=f"no handler for {request.path}")
        else:
            try:
                outcome = handler(request)
                if isinstance(outcome, GeneratorType):
                    outcome = yield from outcome
                response = outcome
            except Interrupt:
                return  # host crashed mid-request: silence, not a fault
            except Exception as error:  # handler bug -> 500
                response = HttpResponse(status=500, body=f"{type(error).__name__}: {error}")
        if not isinstance(response, HttpResponse):
            response = HttpResponse(status=500, body="handler returned a non-response")
        self.requests_served += 1
        if self._socket is not None and not self._socket.closed:
            self._socket.send(
                message.src,
                payload=response,
                category="soap",
                size_bytes=response.size_bytes(),
                correlation_id=message.correlation_id or message.msg_id,
            )


def http_request(
    node: Node,
    address: Address,
    request: HttpRequest,
    timeout: float = 5.0,
) -> Generator:
    """Issue a request and wait for the response (or time out).

    A generator meant for ``yield from`` inside a simulated process.  Binds
    an ephemeral port so concurrent calls from the same node never mix up
    responses.
    """
    env = node.env
    socket = node.transport.bind()
    try:
        socket.send(
            address,
            payload=request,
            category="soap",
            size_bytes=request.size_bytes(),
        )
        message = yield Wait(env, socket.recv(), timeout)
        if message is EXPIRED or not isinstance(message.payload, HttpResponse):
            raise RequestTimeout(address, request.path, timeout)
        return message.payload
    finally:
        socket.close()
