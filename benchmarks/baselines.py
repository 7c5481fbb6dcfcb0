"""Non-Whisper fault-tolerance baselines for comparison.

The paper positions Whisper against prior Web-service fault-tolerance work
([2] Dialani et al., [3] WS-FTM) whose common shape is *replicated
endpoints with client-side failover*: the client (or a client-side stub)
knows every replica's address and retries the next one when a call fails.
It works, but it is not *transparent* — every client must be configured
with, and kept up to date about, the replica set — and the replicas do
not coordinate, so there is no single consistent executor.

:class:`ReplicatedPlainService` deploys N independent plain Web services;
:class:`FailoverSoapClient` is the retrying client stub.  The ablation
benchmark (``test_baseline_comparison.py``, Ablation E) compares this
baseline's availability and failover latency with Whisper's server-side
approach; it is prior art to measure against, not part of ``repro``.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.backend.services import ServiceImplementation
from repro.core.system import WhisperSystem
from repro.core.webservice import PlainWebService
from repro.simnet.node import Node
from repro.soap.client import SoapClient
from repro.soap.fault import SoapFault
from repro.soap.http import RequestTimeout

__all__ = ["ReplicatedPlainService", "FailoverSoapClient"]


class ReplicatedPlainService:
    """N independent plain Web services hosting the same functionality.

    There is no group, no election, no shared advertisement — just N
    endpoints a client must know about.
    """

    def __init__(
        self,
        system: WhisperSystem,
        service_name: str,
        implementations: List[ServiceImplementation],
        host_prefix: Optional[str] = None,
    ):
        if not implementations:
            raise ValueError("need at least one implementation")
        self.service_name = service_name
        prefix = host_prefix or f"plain-{service_name}-"
        self.services: List[PlainWebService] = []
        for index, implementation in enumerate(implementations):
            node = system.network.add_host(f"{prefix}{index}")
            self.services.append(
                PlainWebService(node, service_name, implementation)
            )

    @property
    def endpoints(self) -> List[Tuple[str, int]]:
        """The replica addresses every client must be configured with."""
        return [service.address for service in self.services]

    @property
    def path(self) -> str:
        return self.services[0].path

    def hosts(self) -> List[Node]:
        return [service.node for service in self.services]


class FailoverSoapClient:
    """A client-side stub that retries across known replica endpoints.

    On :class:`RequestTimeout` it moves to the next endpoint (round-robin
    from the last known-good one).  Application faults
    (:class:`~repro.soap.fault.SoapFault`) are *not* retried — the replicas
    share fate on data errors.
    """

    def __init__(
        self,
        node: Node,
        endpoints: List[Tuple[str, int]],
        path: str,
        per_endpoint_timeout: float = 2.0,
    ):
        if not endpoints:
            raise ValueError("need at least one endpoint")
        self.soap = SoapClient(node, default_timeout=per_endpoint_timeout)
        self.endpoints = list(endpoints)
        self.path = path
        self.per_endpoint_timeout = per_endpoint_timeout
        self._preferred = 0
        self.failovers = 0

    def call(
        self,
        operation: str,
        arguments: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Generator:
        """Invoke ``operation``, failing over across endpoints.

        Raises the last :class:`RequestTimeout` if every endpoint is dead.
        """
        last_error: Optional[RequestTimeout] = None
        attempts = len(self.endpoints)
        for offset in range(attempts):
            index = (self._preferred + offset) % len(self.endpoints)
            address = self.endpoints[index]
            try:
                value = yield from self.soap.call(
                    address,
                    self.path,
                    operation,
                    arguments,
                    timeout=timeout if timeout is not None else self.per_endpoint_timeout,
                )
            except RequestTimeout as error:
                last_error = error
                self.failovers += 1
                continue
            except SoapFault:
                raise
            else:
                self._preferred = index  # stick with the working replica
                return value
        raise last_error if last_error is not None else RequestTimeout(
            self.endpoints[0], self.path, self.per_endpoint_timeout
        )
