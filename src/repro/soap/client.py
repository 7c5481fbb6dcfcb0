"""The SOAP client used by B2B applications.

``call`` is a generator for use inside simulated processes: it serialises
the call envelope, performs the HTTP exchange, and either returns the
result value, raises the server's :class:`SoapFault`, or raises
:class:`RequestTimeout` when the service silently fails (§1's system
failures).  Round trips are time-stamped on the network trace exactly like
the paper's RTT monitor (§5).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Generator, Optional

from ..simnet.message import Address
from ..simnet.node import Node
from .envelope import Envelope, EnvelopeError
from .fault import SoapFault
from .http import HttpRequest, RequestTimeout, http_request

__all__ = ["SoapClient"]

_CALL_IDS = itertools.count(1)


class SoapClient:
    """Issues SOAP calls from one node."""

    def __init__(self, node: Node, default_timeout: float = 5.0):
        self.node = node
        self.default_timeout = default_timeout
        self.calls_sent = 0
        self.faults_received = 0
        self.timeouts = 0

    def call(
        self,
        address: Address,
        path: str,
        operation: str,
        arguments: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Generator:
        """Invoke ``operation`` at ``address``/``path`` (use with ``yield from``).

        One request, waited for ``timeout`` (the client's default unless
        given): a lost request or reply raises :class:`RequestTimeout`.
        """
        env = self.node.env
        trace = self.node.network.trace
        effective_timeout = timeout if timeout is not None else self.default_timeout

        envelope = Envelope.call(operation, arguments)
        request = HttpRequest(
            method="POST",
            path=path,
            body=envelope.to_xml(),
            headers={"SOAPAction": operation},
        )

        # The process-wide counter itself: unique, and free of the str-hash seed.
        correlation = next(_CALL_IDS)
        trace.stamp_request(correlation, env.now)
        self.calls_sent += 1
        try:
            response = yield from http_request(
                self.node, address, request, timeout=effective_timeout
            )
        except BaseException as error:  # timed out, or the caller's host crashed
            if isinstance(error, RequestTimeout):
                self.timeouts += 1
            trace.cancel_request(correlation)
            raise
        trace.stamp_reply(correlation, env.now)

        try:
            reply = Envelope.from_xml(response.body)
        except EnvelopeError as error:
            raise SoapFault.server(f"unparseable response: {error}") from error
        if reply.is_fault:
            self.faults_received += 1
            reply.raise_if_fault()
        return reply.value
