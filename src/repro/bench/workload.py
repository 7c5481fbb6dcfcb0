"""Workload generators for the benchmark harness.

Three client models drive the Whisper front-end:

* **closed loop** — a fixed population of clients, each issuing the next
  request after the previous completes plus a think time (the usual B2B
  integration pattern: one in-flight request per partner);
* **open loop (Poisson)** — requests arrive at a target rate regardless of
  completions, which exposes saturation in the throughput/latency sweep;
* **open loop (fixed period)** — one probe per period regardless of
  completions, which samples availability in *time*.

All record per-request latency and outcome into a :class:`WorkloadResult`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.errors import WhisperError
from ..core.system import WhisperSystem
from ..simnet.events import Interrupt
from ..simnet.node import Node
from ..soap.client import SoapClient
from ..soap.fault import SoapFault
from ..soap.http import RequestTimeout
from .stats import Summary, summarize

__all__ = [
    "WorkloadResult",
    "ClosedLoopWorkload",
    "PoissonWorkload",
    "ProbeWorkload",
    "student_arguments",
]

#: Process-wide counter for workload host names: ``id(self)``-derived
#: names collide when a freed workload's address is reused, which breaks
#: multi-phase benches that run one workload after another.
_workload_ids = itertools.count()


@dataclass
class WorkloadResult:
    """Outcome of one workload run."""

    latencies: List[float] = field(default_factory=list)
    successes: int = 0
    faults: int = 0
    timeouts: int = 0
    #: Requests refused end-to-end by admission control (terminal
    #: ``Server.Busy`` faults) — counted separately from ``faults`` so
    #: overload sheds are distinguishable from application errors.
    shed: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def requests(self) -> int:
        return self.successes + self.faults + self.timeouts + self.shed

    @property
    def availability(self) -> float:
        """Fraction of requests answered successfully."""
        if self.requests == 0:
            return 1.0
        return self.successes / self.requests

    @property
    def accepted(self) -> int:
        """Requests the system admitted (everything it did not shed)."""
        return self.requests - self.shed

    @property
    def accepted_availability(self) -> float:
        """Fraction of *admitted* requests answered successfully.

        Under overload control this is the headline number: shedding is a
        deliberate refusal, so it should not drag down the success rate of
        the work the system agreed to do.
        """
        if self.accepted == 0:
            return 1.0
        return self.successes / self.accepted

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    @property
    def throughput(self) -> float:
        """Successful requests per second of simulated time."""
        if self.duration <= 0:
            return 0.0
        return self.successes / self.duration

    def latency_summary(self) -> Summary:
        return summarize(self.latencies)


#: Builds the argument dict for request number ``i``.
ArgumentFactory = Callable[[int], Dict[str, Any]]


def student_arguments(index: int) -> Dict[str, Any]:
    """The default request: look up one of the 200 seeded students."""
    return {"ID": f"S{(index % 200) + 1:05d}"}


class ClosedLoopWorkload:
    """A fixed population of think-time clients."""

    def __init__(
        self,
        system: WhisperSystem,
        address: Tuple[str, int],
        path: str,
        operation: str,
        clients: int = 1,
        think_time: float = 0.05,
        requests_per_client: int = 50,
        call_timeout: float = 30.0,
        arguments: Optional[ArgumentFactory] = None,
    ):
        self.system = system
        self.address = address
        self.path = path
        self.operation = operation
        self.clients = clients
        self.think_time = think_time
        self.requests_per_client = requests_per_client
        self.call_timeout = call_timeout
        self.arguments = arguments or student_arguments
        self.result = WorkloadResult()
        self._workload_id = next(_workload_ids)

    def run(self) -> WorkloadResult:
        """Execute the workload to completion (advances the simulation)."""
        env = self.system.env
        self.result.started_at = env.now
        processes = []
        for client_index in range(self.clients):
            node = self.system.network.add_host(
                f"client-{client_index}-{self._workload_id}"
            )
            soap = SoapClient(node, default_timeout=self.call_timeout)
            processes.append(
                node.spawn(
                    self._client_loop(soap, client_index),
                    name=f"workload-client-{client_index}",
                )
            )
        for process in processes:
            env.run(until=process)
        self.result.finished_at = env.now
        return self.result

    def _client_loop(self, soap: SoapClient, client_index: int):
        env = self.system.env
        for request_index in range(self.requests_per_client):
            sequence = client_index * self.requests_per_client + request_index
            call = soap.call(
                self.address,
                self.path,
                self.operation,
                self.arguments(sequence),
                timeout=self.call_timeout,
            )
            if not (yield from _file_outcome(env, self.result, call)):
                return
            if self.think_time > 0:
                yield env.timeout(self.think_time)


def _file_outcome(env, result: WorkloadResult, call):
    """Run one call to its end and file the outcome in ``result``.

    What a call can raise is an outcome — a SOAP fault, a timeout, a typed
    Whisper error from a direct proxy invocation; anything else is a bug
    in the stack and propagates.  Returns False when the client's host
    crashed under the call (nothing is filed).
    """
    started = env.now
    try:
        yield from call
    except SoapFault as fault:
        if fault.is_busy:
            result.shed += 1
        else:
            result.faults += 1
    except RequestTimeout:
        result.timeouts += 1
    except WhisperError:
        result.faults += 1
    except Interrupt:
        return False
    else:
        result.successes += 1
        result.latencies.append(env.now - started)
    return True


class PoissonWorkload:
    """Open-loop arrivals at a fixed rate from one injector host."""

    def __init__(
        self,
        system: WhisperSystem,
        address: Tuple[str, int],
        path: str,
        operation: str,
        rate: float = 50.0,
        duration: float = 10.0,
        call_timeout: float = 30.0,
        arguments: Optional[ArgumentFactory] = None,
        rng_stream: str = "poisson-workload",
    ):
        if rate <= 0:
            raise ValueError("arrival rate must be positive")
        self.system = system
        self.address = address
        self.path = path
        self.operation = operation
        self.rate = rate
        self.duration = duration
        self.call_timeout = call_timeout
        self.arguments = arguments or student_arguments
        self.rng = system.network.rng.stream(rng_stream)
        self.result = WorkloadResult()
        self._workload_id = next(_workload_ids)

    def run(self) -> WorkloadResult:
        env = self.system.env
        node = self.system.network.add_host(f"injector-{self._workload_id}")
        calls = _InFlight(node, self.result)
        self.result.started_at = env.now
        arrivals = node.spawn(self._arrival_loop(node, calls), name="poisson-arrivals")
        env.run(until=arrivals)
        calls.drain()
        self.result.finished_at = env.now
        return self.result

    def _arrival_loop(self, node: Node, calls: "_InFlight"):
        env = self.system.env
        soap = SoapClient(node, default_timeout=self.call_timeout)

        def call(sequence: int):
            return soap.call(
                self.address,
                self.path,
                self.operation,
                self.arguments(sequence),
                timeout=self.call_timeout,
            )

        deadline = env.now + self.duration
        sequence = 0
        while env.now < deadline:
            gap = self.rng.expovariate(self.rate)
            yield env.timeout(gap)
            if env.now >= deadline:
                break
            calls.spawn(call, sequence)
            sequence += 1


#: One open-loop call, by sequence number: returns the generator to run.
Call = Callable[[int], Any]


class ProbeWorkload:
    """Open-loop probes at a fixed period from one client host.

    Availability is sampled in *time*: a probe leaves every ``period``
    whether or not the previous ones were answered, so slow failures
    cannot mask downtime.  ``call`` makes the probe — a SOAP call, a
    client-side failover stub, a direct proxy invocation.
    """

    def __init__(
        self,
        system: WhisperSystem,
        node: Node,
        call: Call,
        period: float = 0.5,
        duration: float = 60.0,
    ):
        if period <= 0:
            raise ValueError("probe period must be positive")
        self.system = system
        self.node = node
        self.call = call
        self.period = period
        self.duration = duration
        self.result = WorkloadResult()

    def run(self) -> WorkloadResult:
        env = self.system.env
        calls = _InFlight(self.node, self.result)
        self.result.started_at = env.now
        env.run(until=self.node.spawn(self._injector(calls), name="probe-injector"))
        calls.drain()
        self.result.finished_at = env.now
        return self.result

    def _injector(self, calls: "_InFlight"):
        clock = 0.0
        sequence = 0
        while clock < self.duration:
            calls.spawn(self.call, sequence)
            sequence += 1
            yield self.system.env.timeout(self.period)
            clock += self.period


class _InFlight:
    """The calls an open-loop generator has spawned and not yet seen answered."""

    def __init__(self, node: Node, result: WorkloadResult):
        self.node = node
        self.result = result
        self._outstanding = 0
        self._drained = None

    def spawn(self, call: Call, sequence: int) -> None:
        """Start ``call(sequence)`` as its own process on the client host."""
        self._outstanding += 1
        self.node.spawn(self._run(call, sequence), name=f"open-loop-call-{sequence}")

    def drain(self) -> None:
        """Run the simulation until every spawned call has finished."""
        env = self.node.env
        # Re-arm the event in case it fired early.
        while self._outstanding > 0:
            self._drained = env.event()
            env.run(until=self._drained)

    def _run(self, call: Call, sequence: int):
        try:
            yield from _file_outcome(self.node.env, self.result, call(sequence))
        finally:
            self._outstanding -= 1
            if self._outstanding == 0 and self._drained is not None:
                if not self._drained.triggered:
                    self._drained.succeed()
