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

:func:`run_shard` answers all three in one record (``python -m repro
shard``, ``benchmarks/test_sharding.py``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List

from ..backend.datasets import student_database
from ..backend.services import student_lookup_operational
from ..check.invariants import effect_totals
from ..core.config import ScenarioConfig
from ..core.errors import WhisperError
from ..core.sharding import ShardRing
from ..core.system import WhisperSystem
from ..soap.fault import SoapFault
from ..wsdl.samples import student_management_wsdl
from .harness import Progress, bench_record, format_assertions, quiet
from .report import format_table
from .stats import Summary
from .workload import PoissonWorkload

__all__ = [
    "READ_SERVICE_TIME",
    "RebalanceReport",
    "ShardPoint",
    "build_sharded_system",
    "format_shard",
    "run_rebalance",
    "run_shard",
    "run_shard_point",
    "run_shard_sweep",
    "shard_capacity",
]

#: Homogeneous per-replica service time for the read workload: each
#: replica serves ~100 lookups/second, so a shard group of R replicas
#: has a knee at ``R * 100``/s.
READ_SERVICE_TIME = 0.010

#: The scaling sweep: shard counts at a fixed per-group replication, all
#: offered the same open-loop load, a multiple of one group's knee.
SHARD_COUNTS = (1, 2, 4)
REPLICAS_PER_SHARD = 2
RATE_MULTIPLE = 3.0
DURATION = 6.0
#: The quiet window the Figure-4-style message count is taken over.
MESSAGE_WINDOW = 10.0
SPEEDUP_FLOOR = 2.5

#: The rebalance audit: shard group 0 crashes at enrollment ``CRASH_AT``.
REBALANCE_SHARDS = 4
ENROLLMENTS = 60
CRASH_AT = 15


def shard_capacity(replicas: int) -> float:
    """One shard group's knee in requests/second."""
    return replicas / READ_SERVICE_TIME


def build_sharded_system(config: ScenarioConfig):
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
            impl.service_time = READ_SERVICE_TIME
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
        """The point as the ``shard`` record holds it: every field, the
        latency summary as its two headline percentiles."""
        payload = asdict(self)
        del payload["latency"]
        payload.update(
            p50_ms=self.latency.p50 * 1000, p99_ms=self.latency.p99 * 1000
        )
        return payload


def run_shard_point(shards: int, rate: float, config: ScenarioConfig) -> ShardPoint:
    """Run one open-loop read point against a fresh sharded deployment."""
    scenario = config.replace(shards=shards)
    system, service = build_sharded_system(scenario)
    system.settle()
    workload = PoissonWorkload(
        system,
        service.address,
        service.path,
        "StudentInformation",
        rate=rate,
        duration=DURATION,
        call_timeout=scenario.deadline_budget,
    )
    result = workload.run()
    # Figure-4-style growth: count every message in a quiet window once
    # the workload drained — heartbeats, renewals, and leases per group.
    system.reset_counters()
    system.run_until(system.env.now + MESSAGE_WINDOW)
    return ShardPoint(
        shards=shards,
        replicas_per_shard=scenario.replicas,
        rate=rate,
        shard_knee=shard_capacity(scenario.replicas),
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


def run_shard_sweep(seed: int = 42) -> List[ShardPoint]:
    """The scaling sweep: a fixed offered load across shard counts.

    The rate is ``RATE_MULTIPLE`` times one shard group's knee, so the
    single-group point is saturated (bounded queues shed the excess)
    while the federated points have headroom — the throughput ratio
    between them is the scaling claim.
    """
    rate = RATE_MULTIPLE * shard_capacity(REPLICAS_PER_SHARD)
    config = ScenarioConfig(
        seed=seed,
        replicas=REPLICAS_PER_SHARD,
        queue_bound=8,
        request_timeout=2.0,
        max_attempts=6,
        deadline_budget=8.0,
        heartbeat_interval=0.5,
        miss_threshold=2,
    )
    return [run_shard_point(shards, rate, config) for shards in SHARD_COUNTS]


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
        """The report as the ``shard`` record holds it."""
        return {**asdict(self), "exactly_once": self.exactly_once}


def run_rebalance(seed: int = 42) -> RebalanceReport:
    """Crash shard group 0 mid-workload; audit handoff cost and safety.

    The workload is the mutating EnrollStudent service — the hard case:
    sticky at-most-once handoff pins every sent invocation to its home
    group, so the audit proves the per-group dedup journals stay
    sufficient across the ring rebalance (zero double-applied effects).
    """
    config = ScenarioConfig(
        seed=seed,
        shards=REBALANCE_SHARDS,
        replicas=REPLICAS_PER_SHARD,
        load_sharing=True,
        heartbeat_interval=0.5,
        miss_threshold=2,
        request_timeout=0.5,
        deadline_budget=6.0,
    )
    system = WhisperSystem(config)
    service = system.deploy_enrollment_service(web_host=None)
    system.settle()
    victim = service.shard_groups_for("EnrollStudent")[0]
    outcomes = {"ok": 0, "failed": 0}

    def workload():
        for index in range(ENROLLMENTS):
            if index == CRASH_AT:
                for peer in victim.peers:
                    peer.node.crash()
            try:
                yield from service.invoke(
                    "EnrollStudent",
                    {"ID": f"S{index + 1:05d}", "course": "b2b-integration"},
                )
            except (SoapFault, WhisperError):
                outcomes["failed"] += 1
            else:
                outcomes["ok"] += 1

    system.run_process(workload(), node=service.proxy.node)

    ring = ShardRing()
    for group in service.shard_groups_for("EnrollStudent"):
        ring.add(group.name)
    applied = effect_totals(service.all_peers())
    return RebalanceReport(
        shards=REBALANCE_SHARDS,
        victim=victim.name,
        remapped_fraction=ring.segment_fraction(victim.name),
        enrollments=ENROLLMENTS,
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


# -- the experiment --------------------------------------------------------------------


def run_shard(seed: int = 42, progress: Progress = quiet) -> Dict[str, Any]:
    """Read scaling and message growth across shard counts, then the
    shard-group-crash rebalance audit."""
    progress(f"scaling sweep over {list(SHARD_COUNTS)} shard groups ...")
    points = run_shard_sweep(seed)
    progress("rebalance: whole shard group crashed mid-enrollment ...")
    rebalance = run_rebalance(seed)
    by_shards = {p.shards: p for p in points}
    one, four = by_shards[1], by_shards[4]
    messages = [by_shards[n].steady_messages for n in SHARD_COUNTS]
    speedup = four.throughput / one.throughput
    growth = messages[2] / messages[0]
    assertions = {
        # Scaling: the federation absorbs what a single group must shed.
        "speedup_at_least_floor": speedup >= SPEEDUP_FLOOR,
        "one_shard_saturates": one.shed > 0,
        "four_shards_have_headroom": four.shed == 0,
        # The ring actually spread the keyspace: every group served work.
        "every_group_served": all(
            count > 0 for count in four.per_group_executed.values()
        ),
        "ring_routed": four.shard_routed > 0,
        # Figure-4-style growth: more shard groups, more maintenance
        # traffic, monotonically and roughly in proportion to the peers.
        "messages_grow_with_shards": messages[0] < messages[1] < messages[2],
        "message_growth_in_band": 2.0 <= growth <= 8.0,
        # Only the victim's ring segment remaps (virtual nodes keep the
        # segments balanced, so the fraction sits near 1/shards).
        "only_victim_segment_remaps": 0.10 < rebalance.remapped_fraction < 0.45,
        # The handoff preserved exactly-once across every group's ledger.
        "exactly_once_across_handoff": rebalance.exactly_once,
        "one_effect_per_success": rebalance.distinct_effects == rebalance.succeeded,
        # And the workload kept making progress through the crash.
        "progress_through_crash": (
            rebalance.succeeded >= rebalance.enrollments * 0.8
        ),
    }
    body = {
        "seed": seed,
        "replicas_per_shard": REPLICAS_PER_SHARD,
        "rate_multiple": RATE_MULTIPLE,
        "duration_s": DURATION,
        "message_window_s": MESSAGE_WINDOW,
        "speedup_floor": SPEEDUP_FLOOR,
        "sweep": [p.to_dict() for p in points],
        "speedup": speedup,
        "rebalance": rebalance.to_dict(),
    }
    return bench_record("shard", body, assertions)


def format_shard(record: Dict[str, Any]) -> str:
    sweep = record["sweep"]
    rebalance = record["rebalance"]
    return "\n".join([
        format_table(
            ["shards", "offered/s", "requests", "ok", "shed",
             "tput", "p50 ms", "p99 ms", "msgs"],
            [[p["shards"], f"{p['rate']:.0f}", p["requests"], p["successes"],
              p["shed"], f"{p['throughput']:.1f}", f"{p['p50_ms']:.1f}",
              f"{p['p99_ms']:.1f}", p["steady_messages"]]
             for p in sweep],
            title=(
                f"Shard scaling — {record['replicas_per_shard']} replicas/shard "
                f"(knee ~{sweep[0]['shard_knee']:.0f}/s each), offered "
                f"{record['rate_multiple']:.1f}x one shard's knee, "
                f"{record['duration_s']:.0f}s Poisson + "
                f"{record['message_window_s']:.0f}s message window"
            ),
        ),
        f"speedup at {sweep[-1]['shards']} shards vs {sweep[0]['shards']}: "
        f"{record['speedup']:.2f}x (floor {record['speedup_floor']}x)",
        "",
        format_table(
            ["metric", "value"],
            [
                ["shards", rebalance["shards"]],
                ["victim group", rebalance["victim"]],
                ["remapped ring fraction", f"{rebalance['remapped_fraction']:.3f}"],
                ["enrollments offered", rebalance["enrollments"]],
                ["succeeded", rebalance["succeeded"]],
                ["failed", rebalance["failed"]],
                ["shard failovers", rebalance["shard_failovers"]],
                ["distinct effects", rebalance["distinct_effects"]],
                ["double-applied", len(rebalance["double_applied"])],
            ],
            title="Rebalance — whole shard group crashed mid-enrollment",
        ),
        format_assertions(record),
    ])
