"""Saturation harness: drive the deployment past its knee, on purpose.

The overload-control work (bounded per-member queues + load-aware
dispatch) needs a reproducible way to ask "what happens at 2x capacity?".
This module builds a deliberately *heterogeneous* deployment — half the
replicas are several times slower than the rest, so blind round-robin
visibly underperforms load-aware dispatch — and runs an open-loop Poisson
workload at a chosen multiple of the aggregate service capacity.

The knee is where offered load meets capacity: for replicas with service
times ``t_i`` the aggregate capacity is ``sum(1 / t_i)`` requests per
second.  Below the knee everything is latency; above it, an unbounded
deployment grows queues without limit (p99 explodes) while a bounded one
sheds the excess with ``Server.Busy`` + a retry-after hint and keeps the
latency of the work it accepts flat.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..backend.datasets import student_database
from ..backend.services import ServiceImplementation, student_lookup_operational
from ..core.config import ScenarioConfig
from ..core.system import DeployedService, WhisperSystem
from ..wsdl.samples import student_management_wsdl
from .stats import Summary, summarize
from .workload import PoissonWorkload

__all__ = [
    "OverloadPoint",
    "aggregate_capacity",
    "build_overload_system",
    "heterogeneous_implementations",
    "run_overload_point",
]

#: Default replica service times: fast operational lookups next to
#: replicas four times slower (an overloaded database, say).
FAST_SERVICE_TIME = 0.010
SLOW_SERVICE_TIME = 0.040


def heterogeneous_implementations(
    replicas: int = 4,
    students: int = 200,
    fast_time: float = FAST_SERVICE_TIME,
    slow_time: float = SLOW_SERVICE_TIME,
    slow_every: int = 2,
) -> List[ServiceImplementation]:
    """Student-lookup replicas with alternating fast/slow service times."""
    implementations: List[ServiceImplementation] = []
    for index in range(replicas):
        implementation = student_lookup_operational(student_database(students))
        if slow_every and index % slow_every == 1:
            implementation.service_time = slow_time
        else:
            implementation.service_time = fast_time
        implementations.append(implementation)
    return implementations


def aggregate_capacity(implementations: List[ServiceImplementation]) -> float:
    """The knee, in requests/second: ``sum(1 / service_time)``."""
    return sum(1.0 / impl.service_time for impl in implementations)


def build_overload_system(
    config: ScenarioConfig,
    fast_time: float = FAST_SERVICE_TIME,
    slow_time: float = SLOW_SERVICE_TIME,
) -> Tuple[WhisperSystem, DeployedService, float]:
    """Deploy the heterogeneous student service under ``config``.

    Returns ``(system, service, capacity)`` where ``capacity`` is the
    aggregate knee in requests/second.  Load sharing is forced on —
    dispatch policies are meaningless with a coordinator-only group.
    """
    scenario = config.replace(load_sharing=True)
    system = WhisperSystem(scenario)
    implementations = heterogeneous_implementations(
        replicas=scenario.replicas,
        students=scenario.students,
        fast_time=fast_time,
        slow_time=slow_time,
    )
    capacity = aggregate_capacity(implementations)
    service = system.deploy_service(
        student_management_wsdl(), implementations, web_host="web0"
    )
    return system, service, capacity


@dataclass
class OverloadPoint:
    """One saturation measurement: offered rate vs. what the system did."""

    rate: float
    capacity: float
    dispatch: str
    queue_bound: Optional[int]
    requests: int
    successes: int
    shed: int
    faults: int
    timeouts: int
    availability: float
    accepted_availability: float
    throughput: float
    latency: Summary
    coordinator_sheds: int
    retry_after_honored: int

    @property
    def shed_rate(self) -> float:
        """Fraction of offered requests refused end-to-end."""
        if self.requests == 0:
            return 0.0
        return self.shed / self.requests

    def to_dict(self) -> Dict[str, Any]:
        """The point as ``python -m repro overload --json`` exports it:
        every field, the latency summary as its two headline percentiles."""
        payload = asdict(self)
        del payload["latency"]
        payload.update(
            shed_rate=self.shed_rate,
            p50_ms=self.latency.p50 * 1000,
            p99_ms=self.latency.p99 * 1000,
        )
        return payload

    def row(self) -> List[object]:
        """A table row for the CLI sweep."""
        return [
            f"{self.rate:.0f}",
            f"{self.rate / self.capacity:.2f}x",
            self.requests,
            self.successes,
            self.shed,
            f"{self.shed_rate:.3f}",
            f"{self.accepted_availability:.4f}",
            f"{self.throughput:.1f}",
            f"{self.latency.p50 * 1000:.1f}",
            f"{self.latency.p99 * 1000:.1f}",
        ]


def run_overload_point(
    rate: float,
    duration: float = 10.0,
    config: Optional[ScenarioConfig] = None,
    call_timeout: float = 30.0,
    settle: float = 6.0,
    fast_time: float = FAST_SERVICE_TIME,
    slow_time: float = SLOW_SERVICE_TIME,
) -> OverloadPoint:
    """Run one open-loop saturation point on a fresh deployment."""
    scenario = config if config is not None else ScenarioConfig(seed=42)
    system, service, capacity = build_overload_system(
        scenario, fast_time=fast_time, slow_time=slow_time
    )
    system.settle(settle)
    workload = PoissonWorkload(
        system,
        service.address,
        service.path,
        "StudentInformation",
        rate=rate,
        duration=duration,
        call_timeout=call_timeout,
    )
    result = workload.run()
    dispatch = scenario.dispatch
    return OverloadPoint(
        rate=rate,
        capacity=capacity,
        dispatch=dispatch if isinstance(dispatch, str) else type(dispatch).__name__,
        queue_bound=scenario.queue_bound,
        requests=result.requests,
        successes=result.successes,
        shed=result.shed,
        faults=result.faults,
        timeouts=result.timeouts,
        availability=result.availability,
        accepted_availability=result.accepted_availability,
        throughput=result.throughput,
        latency=result.latency_summary(),
        coordinator_sheds=service.group.total_requests_shed(),
        retry_after_honored=service.proxy.stats.retry_after_honored,
    )
