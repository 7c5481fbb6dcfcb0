"""The client-facing Web service (Figure 2's left half).

Clients speak plain SOAP to an ordinary Web service hosted on a web
server; "the actual implementation of this service is not associated with
the Web service itself, but it is supplied by a JXTA network of b-peers"
(§3.1).  The dispatcher here forwards every call to the SWS-proxy and maps
Whisper-level failures to SOAP faults — except that when even Whisper
cannot find anyone to serve, the client sees exactly what the paper's §1
describes: an error, or silence.
"""

from __future__ import annotations

from typing import Any, Dict, Generator

from ..simnet.node import Node
from ..soap.fault import SoapFault
from ..soap.server import SoapServer
from .errors import InvocationFailedError, NoMatchingGroupError, WhisperError
from .proxy import SwsProxy
from .sws import SemanticWebService

__all__ = ["WhisperWebService", "PlainWebService"]


class WhisperWebService:
    """A semantic Web service whose back-end is a b-peer group."""

    def __init__(
        self,
        node: Node,
        sws: SemanticWebService,
        proxy: SwsProxy,
    ):
        self.node = node
        self.sws = sws
        self.proxy = proxy
        self.soap = SoapServer(node)
        self.path = f"/{sws.name}"
        self.soap.mount(self.path, self._dispatch)

    @property
    def address(self):
        return (self.node.name, self.soap.port)

    def _dispatch(
        self, operation: str, arguments: Dict[str, Any], headers: Dict[str, str]
    ) -> Generator:
        if operation not in self.sws:
            raise SoapFault.client(
                f"service {self.sws.name!r} has no operation {operation!r}"
            )
        try:
            result = yield from self.proxy.invoke(operation, arguments)
        except SoapFault:
            # Application faults — and overload sheds (``Server.Busy``,
            # with the retry-after hint in the fault detail) — pass
            # through with their code intact.
            raise
        except NoMatchingGroupError as error:
            raise SoapFault.server(f"no back-end available: {error}") from error
        except InvocationFailedError as error:
            raise SoapFault.server(f"back-end unreachable: {error}") from error
        except WhisperError as error:
            raise SoapFault.server(str(error)) from error
        # The wire carries the bare value; the typed InvokeResult is a
        # proxy-level (in-process) affordance.
        return result.value


class PlainWebService:
    """The no-Whisper baseline: the implementation runs on the web server.

    This is the world the paper starts from — "Current Web service
    specifications do not provide support to handle service failures and
    prevent service downtime" (§1).  When this host (or its backend) is
    down, clients get faults or silence; there is no redundancy to hide
    behind.  Used as the 1-replica baseline of Ablation B.
    """

    def __init__(self, node: Node, service_name: str, implementation):
        self.node = node
        self.service_name = service_name
        self.implementation = implementation
        self.soap = SoapServer(node)
        self.path = f"/{service_name}"
        self.soap.mount(self.path, self._dispatch)

    @property
    def address(self):
        return (self.node.name, self.soap.port)

    def _dispatch(
        self, operation: str, arguments: Dict[str, Any], headers: Dict[str, str]
    ) -> Generator:
        yield self.node.env.timeout(self.implementation.service_time)
        try:
            return self.implementation.invoke(arguments)
        except Exception as error:
            raise SoapFault.server(f"{type(error).__name__}: {error}") from error
