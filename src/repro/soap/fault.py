"""SOAP faults.

The paper's point of departure (§1): "At the SOAP messaging layer, the
``<soap:fault>`` tag is provided to inform a client about errors
encountered while processing an invocation message" — but *system*
failures (a crashed host) produce no fault at all, just silence.  Our
:class:`SoapFault` models the former; the latter shows up as client-side
timeouts, which is exactly the failure mode Whisper exists to mask.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["SoapFault", "FaultCode"]


class FaultCode:
    """Standard SOAP 1.1 fault codes."""

    VERSION_MISMATCH = "VersionMismatch"
    MUST_UNDERSTAND = "MustUnderstand"
    CLIENT = "Client"
    SERVER = "Server"
    #: Dotted subcode (SOAP 1.1 idiom): the server is up but shedding
    #: load; the fault detail carries a retry-after hint in seconds.
    SERVER_BUSY = "Server.Busy"


class SoapFault(Exception):
    """An application-level error carried in a ``<soap:fault>`` element."""

    def __init__(
        self,
        faultcode: str,
        faultstring: str,
        detail: Any = None,
        faultactor: Optional[str] = None,
    ):
        super().__init__(f"{faultcode}: {faultstring}")
        self.faultcode = faultcode
        self.faultstring = faultstring
        self.detail = detail
        self.faultactor = faultactor

    @classmethod
    def client(cls, message: str) -> "SoapFault":
        return cls(FaultCode.CLIENT, message)

    @classmethod
    def server(cls, message: str) -> "SoapFault":
        return cls(FaultCode.SERVER, message)

    @classmethod
    def server_busy(
        cls, message: str, retry_after: Optional[float] = None
    ) -> "SoapFault":
        """An overload shed: retryable, with an optional ETA hint."""
        detail = {"retry_after": retry_after} if retry_after is not None else None
        return cls(FaultCode.SERVER_BUSY, message, detail)

    @property
    def is_busy(self) -> bool:
        """True for overload sheds (``Server.Busy`` and subcodes of it)."""
        return self.faultcode == FaultCode.SERVER_BUSY or self.faultcode.startswith(
            FaultCode.SERVER_BUSY + "."
        )

    @property
    def retry_after(self) -> Optional[float]:
        """The shed's retry-after hint in seconds, when present."""
        if isinstance(self.detail, dict):
            hint = self.detail.get("retry_after")
            if isinstance(hint, (int, float)):
                return float(hint)
        return None

    def __repr__(self) -> str:
        return f"SoapFault({self.faultcode!r}, {self.faultstring!r})"
