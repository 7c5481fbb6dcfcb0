"""Sharding bench: throughput scaling, message growth, rebalance cost.

Three questions about the semantic-sharding layer, answered on the same
simulated testbed as the paper's §5 experiments:

* **Scaling** — at a fixed per-group replication factor, does federating
  the keyspace across N shard groups multiply aggregate read throughput?
  The sweep drives an open-loop Poisson workload at a fixed multiple of
  a *single* shard's capacity; one group saturates and sheds, N groups
  absorb it.
* **Message growth** — Figure-4 style: each extra shard group brings its
  own replicas, heartbeats, membership renewals, and SRDI leases, so the
  steady-state message count grows with the shard count exactly as
  Figure 4 grows with b-peers.  The sweep counts every message on the
  network over a fixed quiet window per shard count.
* **Rebalance cost** — crash one whole shard group mid-workload and
  measure what the consistent-hash ring promises: only the victim's
  segment remaps (reported as the ring fraction), the workload keeps
  making progress via ring-successor failover, and the per-group dedup
  journals keep every enrollment exactly-once across the handoff.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..backend.datasets import student_database
from ..backend.services import student_lookup_operational
from ..core.config import ScenarioConfig
from ..core.errors import WhisperError
from ..core.sharding import ShardRing
from ..core.system import WhisperSystem
from ..soap.fault import SoapFault
from ..wsdl.samples import student_management_wsdl
from .stats import Summary
from .workload import PoissonWorkload

__all__ = [
    "READ_SERVICE_TIME",
    "RebalanceReport",
    "ShardPoint",
    "build_sharded_system",
    "run_rebalance",
    "run_shard_point",
    "run_shard_sweep",
    "shard_capacity",
]

#: Homogeneous per-replica service time for the read workload: each
#: replica serves ~100 lookups/second, so a shard group of R replicas
#: has a knee at ``R * 100``/s.
READ_SERVICE_TIME = 0.010


def shard_capacity(replicas: int, service_time: float = READ_SERVICE_TIME) -> float:
    """One shard group's knee in requests/second."""
    return replicas / service_time


def build_sharded_system(
    config: ScenarioConfig,
    service_time: float = READ_SERVICE_TIME,
):
    """Deploy the read service across ``config.shards`` federated groups.

    Every shard group gets ``config.replicas`` homogeneous replicas, each
    with a full copy of the student dataset (sharding splits *load*, not
    data), so any group can serve any key during ring handoff.  Load
    sharing is forced on — a coordinator-only group would bottleneck on
    one replica and hide the scaling the sweep measures.
    """
    scenario = config.replace(load_sharing=True, dispatch="least-outstanding")
    system = WhisperSystem(scenario)

    def implementations(shard: int):
        impls = []
        for _ in range(scenario.replicas):
            impl = student_lookup_operational(student_database(scenario.students))
            impl.service_time = service_time
            impls.append(impl)
        return impls

    service = system.deploy_service(
        student_management_wsdl(),
        {"StudentInformation": implementations},
        web_host="web0",
    )
    return system, service


@dataclass
class ShardPoint:
    """One sweep measurement: a shard count under a fixed offered load."""

    shards: int
    replicas_per_shard: int
    rate: float
    shard_knee: float
    requests: int
    successes: int
    shed: int
    timeouts: int
    faults: int
    throughput: float
    latency: Summary
    shard_routed: int
    #: Messages on the whole network over a fixed steady-state window
    #: after the workload drained (the Figure-4 accounting).
    steady_messages: int
    per_group_executed: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """The point as ``python -m repro shard --json`` exports it:
        every field, the latency summary as its two headline percentiles."""
        payload = asdict(self)
        del payload["latency"]
        payload.update(
            p50_ms=self.latency.p50 * 1000, p99_ms=self.latency.p99 * 1000
        )
        return payload

    def row(self) -> List[object]:
        return [
            self.shards,
            f"{self.rate:.0f}",
            self.requests,
            self.successes,
            self.shed,
            f"{self.throughput:.1f}",
            f"{self.latency.p50 * 1000:.1f}",
            f"{self.latency.p99 * 1000:.1f}",
            self.steady_messages,
        ]


def run_shard_point(
    shards: int,
    rate: float,
    duration: float = 8.0,
    config: Optional[ScenarioConfig] = None,
    settle: float = 6.0,
    message_window: float = 10.0,
    service_time: float = READ_SERVICE_TIME,
) -> ShardPoint:
    """Run one open-loop read point against a fresh sharded deployment."""
    scenario = config if config is not None else ScenarioConfig(seed=42)
    scenario = scenario.replace(shards=shards)
    system, service = build_sharded_system(scenario, service_time=service_time)
    system.settle(settle)
    workload = PoissonWorkload(
        system,
        service.address,
        service.path,
        "StudentInformation",
        rate=rate,
        duration=duration,
        call_timeout=scenario.deadline_budget,
    )
    result = workload.run()
    # Figure-4-style growth: count every message in a quiet window once
    # the workload drained — heartbeats, renewals, and leases per group.
    system.reset_counters()
    system.run_until(system.env.now + message_window)
    return ShardPoint(
        shards=shards,
        replicas_per_shard=scenario.replicas,
        rate=rate,
        shard_knee=shard_capacity(scenario.replicas, service_time),
        requests=result.requests,
        successes=result.successes,
        shed=result.shed,
        timeouts=result.timeouts,
        faults=result.faults,
        throughput=result.throughput,
        latency=result.latency_summary(),
        shard_routed=service.proxy.stats.shard_routed,
        steady_messages=system.trace.sent_total,
        per_group_executed={
            group.name: group.total_requests_executed()
            for group in service.all_groups()
        },
    )


def run_shard_sweep(
    shard_counts: Sequence[int] = (1, 2, 4),
    replicas: int = 2,
    rate_multiple: float = 3.0,
    duration: float = 8.0,
    seed: int = 42,
    message_window: float = 10.0,
    service_time: float = READ_SERVICE_TIME,
) -> List[ShardPoint]:
    """The scaling sweep: a fixed offered load across shard counts.

    The rate is ``rate_multiple`` times one shard group's knee, so the
    single-group point is saturated (bounded queues shed the excess)
    while the federated points have headroom — the throughput ratio
    between them is the scaling claim.
    """
    knee = shard_capacity(replicas, service_time)
    rate = rate_multiple * knee
    config = ScenarioConfig(
        seed=seed,
        replicas=replicas,
        queue_bound=8,
        request_timeout=2.0,
        max_attempts=6,
        deadline_budget=8.0,
        heartbeat_interval=0.5,
        miss_threshold=2,
    )
    return [
        run_shard_point(
            shards,
            rate,
            duration=duration,
            config=config,
            message_window=message_window,
            service_time=service_time,
        )
        for shards in shard_counts
    ]


@dataclass
class RebalanceReport:
    """What crashing one whole shard group mid-workload cost."""

    shards: int
    victim: str
    #: The ring fraction the victim owned — the only segment that remaps.
    remapped_fraction: float
    enrollments: int
    succeeded: int
    failed: int
    shard_failovers: int
    distinct_effects: int
    double_applied: Dict[str, int] = field(default_factory=dict)

    @property
    def exactly_once(self) -> bool:
        return not self.double_applied

    def to_dict(self) -> Dict[str, Any]:
        """The report as ``python -m repro shard --json`` exports it."""
        return {**asdict(self), "exactly_once": self.exactly_once}

    def rows(self) -> List[List[object]]:
        return [
            ["shards", self.shards],
            ["victim group", self.victim],
            ["remapped ring fraction", f"{self.remapped_fraction:.3f}"],
            ["enrollments offered", self.enrollments],
            ["succeeded", self.succeeded],
            ["failed", self.failed],
            ["shard failovers", self.shard_failovers],
            ["distinct effects", self.distinct_effects],
            ["double-applied", len(self.double_applied)],
        ]


def run_rebalance(
    shards: int = 4,
    replicas: int = 2,
    enrollments: int = 60,
    crash_at: int = 15,
    seed: int = 42,
    settle: float = 6.0,
) -> RebalanceReport:
    """Crash shard group 0 mid-workload; audit handoff cost and safety.

    The workload is the mutating EnrollStudent service — the hard case:
    sticky at-most-once handoff pins every sent invocation to its home
    group, so the audit proves the per-group dedup journals stay
    sufficient across the ring rebalance (zero double-applied effects).
    """
    config = ScenarioConfig(
        seed=seed,
        shards=shards,
        replicas=replicas,
        load_sharing=True,
        heartbeat_interval=0.5,
        miss_threshold=2,
        request_timeout=0.5,
    )
    system = WhisperSystem(config)
    service = system.deploy_enrollment_service(web_host=None)
    system.settle(settle)
    victim = service.shard_groups_for("EnrollStudent")[0]
    outcomes = {"ok": 0, "failed": 0}

    def workload():
        for index in range(enrollments):
            if index == crash_at:
                for peer in victim.peers:
                    peer.node.crash()
            try:
                yield from service.invoke(
                    "EnrollStudent",
                    {"ID": f"S{index + 1:05d}", "course": "b2b-integration"},
                    budget=6.0,
                )
            except (SoapFault, WhisperError):
                outcomes["failed"] += 1
            else:
                outcomes["ok"] += 1

    system.run_process(workload(), node=service.proxy.node)

    ring = ShardRing(virtual_nodes=config.virtual_nodes)
    for group in service.shard_groups_for("EnrollStudent"):
        ring.add(group.name)
    applied: Dict[str, int] = {}
    seen_backends = set()
    for peer in service.all_peers():
        backend = peer.implementation.backend
        if id(backend) in seen_backends:
            continue
        seen_backends.add(id(backend))
        for invocation_id, _applied_by in getattr(backend, "effect_log", []):
            applied[invocation_id] = applied.get(invocation_id, 0) + 1
    return RebalanceReport(
        shards=shards,
        victim=victim.name,
        remapped_fraction=ring.segment_fraction(victim.name),
        enrollments=enrollments,
        succeeded=outcomes["ok"],
        failed=outcomes["failed"],
        shard_failovers=service.proxy.stats.shard_failovers,
        distinct_effects=len(applied),
        double_applied={
            invocation_id: count
            for invocation_id, count in applied.items()
            if count > 1
        },
    )
