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
latency of the work it accepts flat.  :func:`run_overload` is the
experiment (``python -m repro overload``, ``benchmarks/test_overload_control.py``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..backend.datasets import student_database
from ..backend.services import student_lookup_operational
from ..core.config import ScenarioConfig
from ..core.system import DeployedService, WhisperSystem
from ..wsdl.samples import student_management_wsdl
from .harness import Progress, bench_record, format_assertions, quiet
from .report import format_table
from .stats import Summary
from .workload import PoissonWorkload

__all__ = [
    "OverloadPoint",
    "build_overload_system",
    "format_overload",
    "run_overload",
    "run_overload_point",
]

#: Replica service times: fast operational lookups next to replicas four
#: times slower (an overloaded database, say), alternating.
FAST_SERVICE_TIME = 0.010
SLOW_SERVICE_TIME = 0.040


def build_overload_system(
    config: ScenarioConfig,
) -> Tuple[WhisperSystem, DeployedService, float]:
    """Deploy the heterogeneous student service under ``config``: replicas
    alternate fast and slow service times.

    Returns ``(system, service, capacity)`` where ``capacity`` is the
    aggregate knee in requests/second, ``sum(1 / service_time)``.  Load
    sharing is forced on — dispatch policies are meaningless with a
    coordinator-only group.
    """
    scenario = config.replace(load_sharing=True)
    system = WhisperSystem(scenario)
    implementations = []
    for index in range(scenario.replicas):
        implementation = student_lookup_operational(
            student_database(scenario.students)
        )
        implementation.service_time = (
            SLOW_SERVICE_TIME if index % 2 == 1 else FAST_SERVICE_TIME
        )
        implementations.append(implementation)
    capacity = sum(1.0 / impl.service_time for impl in implementations)
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
        """The point as the ``overload`` record holds it: every field, the
        latency summary as its two headline percentiles."""
        payload = asdict(self)
        del payload["latency"]
        payload.update(
            shed_rate=self.shed_rate,
            p50_ms=self.latency.p50 * 1000,
            p99_ms=self.latency.p99 * 1000,
        )
        return payload


def run_overload_point(
    rate: float, duration: float, config: ScenarioConfig
) -> OverloadPoint:
    """Run one open-loop saturation point on a fresh deployment."""
    system, service, capacity = build_overload_system(config)
    system.settle()
    workload = PoissonWorkload(
        system,
        service.address,
        service.path,
        "StudentInformation",
        rate=rate,
        duration=duration,
        call_timeout=30.0,
    )
    result = workload.run()
    return OverloadPoint(
        rate=rate,
        capacity=capacity,
        dispatch=config.dispatch,
        queue_bound=config.queue_bound,
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


# -- the experiment --------------------------------------------------------------------

#: 2x the 250 req/s aggregate knee of the default 4-replica deployment,
#: and comfortably below it.
OVERLOAD_RATE = 500.0
OVERLOAD_DURATION = 5.0
HEADROOM_RATE = 150.0
HEADROOM_DURATION = 8.0
QUEUE_BOUND = 8


def run_overload(seed: int = 42, progress: Progress = quiet) -> Dict[str, Any]:
    """Overload control at and past the knee, two comparisons:

    * at 2x the knee, queue-forever (unbounded, round-robin) vs.
      shed-and-hint (bound 8, least-outstanding): the bounded deployment
      keeps the tail of the work it accepts short and serves it reliably;
    * below the knee, dispatch policy alone (both bounded): blind rotation
      queues behind the slow replicas, the load ledger routes around them.
    """
    base = ScenarioConfig(
        seed=seed,
        replicas=4,
        request_timeout=2.0,
        max_attempts=6,
        deadline_budget=2.0,
    )
    progress(f"saturation at {OVERLOAD_RATE:.0f} req/s ...")
    unbounded = run_overload_point(
        OVERLOAD_RATE, OVERLOAD_DURATION, base.replace(dispatch="round-robin")
    )
    bounded = run_overload_point(
        OVERLOAD_RATE,
        OVERLOAD_DURATION,
        base.replace(dispatch="least-outstanding", queue_bound=QUEUE_BOUND),
    )
    progress(f"dispatch policy at {HEADROOM_RATE:.0f} req/s ...")
    bounded_base = base.replace(queue_bound=QUEUE_BOUND)
    rr = run_overload_point(
        HEADROOM_RATE, HEADROOM_DURATION, bounded_base.replace(dispatch="round-robin")
    )
    lo = run_overload_point(
        HEADROOM_RATE,
        HEADROOM_DURATION,
        bounded_base.replace(dispatch="least-outstanding"),
    )
    assertions = {
        # Admission control keeps the tail of accepted work bounded.
        "bounded_p99_below_unbounded": bounded.latency.p99 < unbounded.latency.p99,
        # Overload is actually shed, not silently absorbed...
        "overload_shed": bounded.shed_rate > 0.0,
        "coordinator_shed": bounded.coordinator_sheds > 0,
        # ...while admitted requests still almost always succeed.
        "accepted_work_served": bounded.accepted_availability >= 0.99,
        # Shed clients saw the retry-after hint and some rode it to success.
        "retry_after_honored": bounded.retry_after_honored > 0,
        "least_outstanding_throughput_at_least_round_robin": (
            lo.throughput >= rr.throughput
        ),
        "least_outstanding_p99_at_most_round_robin": (
            lo.latency.p99 <= rr.latency.p99
        ),
    }
    body = {
        "seed": seed,
        "saturation": [
            {"variant": "unbounded rr", **unbounded.to_dict()},
            {"variant": "bounded lo", **bounded.to_dict()},
        ],
        "dispatch": [
            {"variant": "round-robin", **rr.to_dict()},
            {"variant": "least-outstanding", **lo.to_dict()},
        ],
    }
    return bench_record("overload", body, assertions)


def format_overload(record: Dict[str, Any]) -> str:
    columns = [
        "offered (req/s)", "x knee", "requests", "ok", "shed", "shed rate",
        "accepted avail", "tput (req/s)", "p50 (ms)", "p99 (ms)",
    ]

    def table(first: str, points: List[Dict[str, Any]], title: str) -> str:
        return format_table(
            [first] + columns,
            [[p["variant"], f"{p['rate']:.0f}", f"{p['rate'] / p['capacity']:.2f}x",
              p["requests"], p["successes"], p["shed"], f"{p['shed_rate']:.3f}",
              f"{p['accepted_availability']:.4f}", f"{p['throughput']:.1f}",
              f"{p['p50_ms']:.1f}", f"{p['p99_ms']:.1f}"]
             for p in points],
            title=f"{title} at {points[0]['rate']:.0f} req/s "
                  f"(knee {points[-1]['capacity']:.0f})",
        )

    return "\n".join([
        table("variant", record["saturation"], "Saturation"),
        "",
        table("policy", record["dispatch"], "Dispatch policy"),
        format_assertions(record),
    ])
