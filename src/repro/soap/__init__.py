"""SOAP messaging over simulated HTTP.

Implements the client-facing half of Whisper's stack: SOAP 1.1-style
envelopes with ``<soap:fault>`` error reporting (§1), a self-describing
value encoding, an HTTP request/response layer over the simulated LAN, and
client/server endpoints.  Crucially, *system* failures (crashed hosts)
surface as :class:`~repro.soap.http.RequestTimeout`, not faults — the gap
in the Web-service stack that motivates Whisper.
"""

from .client import SoapClient
from .encoding import EncodingError, encode_value
from .envelope import SOAP_ENV_NS, Envelope, EnvelopeError
from .fault import FaultCode, SoapFault
from .http import HttpRequest, HttpResponse, HttpServer, RequestTimeout, http_request
from .server import SoapServer

__all__ = [
    "EncodingError",
    "Envelope",
    "EnvelopeError",
    "FaultCode",
    "HttpRequest",
    "HttpResponse",
    "HttpServer",
    "RequestTimeout",
    "SOAP_ENV_NS",
    "SoapClient",
    "SoapFault",
    "SoapServer",
    "encode_value",
    "http_request",
]
