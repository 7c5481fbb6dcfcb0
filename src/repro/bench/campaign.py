"""Seeded fault campaigns: randomized failures + invariant auditing.

The paper's experiments crash *specific* hosts at *chosen* instants; a
campaign instead drives the deployment through a seeded random schedule
of churn and partitions while an open-loop client keeps probing, then
audits the run against the recovery layer's safety invariants:

* **alternation** — per host, injected crash/restart events strictly
  alternate (the pre-fix churn scheduler could crash a host that was
  already down);
* **one coordinator per epoch** — every announced epoch is owned by its
  announcer, each peer's announced epochs are strictly increasing, and no
  full epoch is ever announced by two peers;
* **no stale result** — the proxy never delivered a result under an epoch
  lower than one it had already delivered (per group);
* **convergence** — after the schedule drains and a cooldown settles, at
  most one live peer believes it coordinates the group;
* **exactly-once** — no invocation id appears more than once in the
  backends' side-effect ledgers: a retried/redelegated call never
  applied its mutation twice.  (The audit's negative control is an
  evicted journal entry, ``tests/core/test_exactly_once.py``.)

Campaigns are deterministic per seed (all randomness flows from the
network's :class:`~repro.simnet.rng.RngRegistry`), so a violating run is
a reproducible regression test, not an anecdote.

Two experiments are defined here, one function each, returning the
record every gated bench returns (:func:`repro.bench.harness.bench_record`):

* :func:`run_campaign` — availability vs. MTBF at fixed replication
  (``python -m repro campaign``, ``benchmarks/test_fault_campaign.py``);
* :func:`run_exactly_once` — a mutating workload under churn, partitions
  and message loss applies every invocation at most once
  (``python -m repro exactly-once``, ``benchmarks/test_exactly_once.py``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from ..check.invariants import InvariantRegistry, effect_totals
from ..core.config import ScenarioConfig
from ..core.system import WhisperSystem
from ..soap.client import SoapClient
from .harness import Progress, bench_record, format_assertions, quiet
from .report import format_table
from .workload import ProbeWorkload

__all__ = [
    "CampaignReport",
    "FaultCampaign",
    "format_campaign",
    "format_exactly_once",
    "run_campaign",
    "run_exactly_once",
]


@dataclass
class CampaignReport:
    """What happened during one campaign, plus the invariant audit."""

    seed: int
    duration: float
    workload: str = "lookup"
    loss_rate: float = 0.0
    probes_ok: int = 0
    probes_failed: int = 0
    crashes: int = 0
    restarts: int = 0
    partitions: int = 0
    elections_won: int = 0
    epochs_announced: int = 0
    stale_epoch_rejections: int = 0
    stale_epoch_redirects: int = 0
    stale_results_discarded: int = 0
    rebinds: int = 0
    live_coordinators: int = 0
    # -- exactly-once / duplicate-execution audit --
    #: Probe results replayed from the dedup journal (retry observed the
    #: original value: ``InvokeResult.deduped``).
    probes_deduped: int = 0
    journal_hits: int = 0
    journal_merges: int = 0
    journal_replications: int = 0
    duplicates_suppressed: int = 0
    requests_parked: int = 0
    #: Mutating executions ledgered on any backend (one per application).
    effects_applied: int = 0
    #: Distinct invocation ids with at least one ledgered effect.
    distinct_effects: int = 0
    #: invocation id -> application count, for every id applied > once
    #: across *all* backends (exactly-once demands this stays empty).
    double_applied: Dict[str, int] = field(default_factory=dict)
    #: p99 of the successful probes' client-observed latencies (seconds),
    #: None when no probe succeeded.
    probe_p99_s: Optional[float] = None
    violations: List[str] = field(default_factory=list)

    @property
    def probes(self) -> int:
        return self.probes_ok + self.probes_failed

    @property
    def availability(self) -> float:
        return self.probes_ok / self.probes if self.probes else 0.0

    @property
    def duplicate_rate(self) -> float:
        """Share of effectful invocations that were applied more than once."""
        return len(self.double_applied) / self.distinct_effects if self.distinct_effects else 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        """One campaign as the ``campaigns`` / ``rows`` of a record."""
        return {
            **asdict(self),
            "probes": self.probes,
            "availability": self.availability,
            "duplicate_rate": self.duplicate_rate,
            "ok": self.ok,
        }


#: One probe every ``PROBE_PERIOD`` whether or not the last was answered;
#: an ``enroll`` probe's retry budget per logical call is wide enough to
#: straddle a partition heal, which is exactly when an at-least-once retry
#: re-executes a mutation it already applied.
PROBE_PERIOD = 0.5
PROBE_TIMEOUT = 2.0
PROBE_BUDGET = 10.0
PARTITION_DURATION = 6.0
STUDENTS = 200


class FaultCampaign:
    """One seeded campaign against a freshly built student-service system."""

    def __init__(
        self,
        seed: int,
        duration: float = 90.0,
        replicas: int = 4,
        mtbf: float = 25.0,
        mttr: float = 10.0,
        partitions: int = 2,
        workload: str = "lookup",
        loss_rate: float = 0.0,
    ):
        if workload not in ("lookup", "enroll"):
            raise ValueError(f"unknown campaign workload {workload!r}")
        self.seed = seed
        self.duration = duration
        self.mtbf = mtbf
        self.mttr = mttr
        self.partitions = partitions
        self.workload = workload
        self.loss_rate = loss_rate
        config = ScenarioConfig(
            seed=seed,
            heartbeat_interval=0.5,
            miss_threshold=2,
            replicas=replicas,
            students=STUDENTS,
        )
        if workload == "enroll":
            # ``request_timeout`` is already ``PROBE_TIMEOUT``.
            config = config.replace(deadline_budget=PROBE_BUDGET)
        self.system = WhisperSystem(config)
        if loss_rate:
            self.system.network.loss_rate = loss_rate
        if workload == "enroll":
            self.service = self.system.deploy_enrollment_service()
        else:
            self.service = self.system.deploy_student_service()

    # -- the run ---------------------------------------------------------------------

    def run(self) -> CampaignReport:
        system = self.system
        service = self.service
        report = CampaignReport(
            seed=self.seed,
            duration=self.duration,
            workload=self.workload,
            loss_rate=self.loss_rate,
        )
        system.settle(6.0)
        start = system.env.now
        hosts = [peer.node.name for peer in service.group.peers]

        system.failures.churn(
            hosts, mtbf=self.mtbf, mttr=self.mttr, until=start + self.duration
        )
        report.partitions = self._schedule_partitions(hosts, start)
        self._drive_probes(report)
        # Cooldown: ten seconds past the probe schedule (every probe has
        # been answered by now), so pending restarts land, partitions
        # heal, and the final election converges before auditing.
        system.run_until(max(system.env.now, start + self.duration + 10.0))

        self._collect(report)
        self._audit(report)
        return report

    def _schedule_partitions(self, hosts: List[str], start: float) -> int:
        """Seeded, non-overlapping isolation windows.

        Each window cuts one b-peer host off from *everything else*
        (members, rendezvous, web host).  Isolating the current
        coordinator forces detection + re-election; the heal then makes
        the deposed coordinator re-announce its stale term — exactly the
        split-brain scenario the epoch fencing exists for.
        """
        if self.partitions <= 0 or len(hosts) < 2:
            return 0
        rng = self.system.network.rng.stream("campaign")
        everyone = list(self.system.network.hosts.keys())
        usable = self.duration - 20.0
        if usable <= 0:
            return 0
        slot = usable / self.partitions
        scheduled = 0
        for index in range(self.partitions):
            window = min(PARTITION_DURATION, max(1.0, slot - 2.0))
            offset = rng.uniform(0.0, max(0.0, slot - window - 1.0))
            at = start + 5.0 + index * slot + offset
            victim = rng.choice(hosts)
            others = [name for name in everyone if name != victim]
            self.system.failures.partition_at(at, [victim], others, duration=window)
            scheduled += 1
        return scheduled

    def _drive_probes(self, report: CampaignReport) -> None:
        system = self.system
        service = self.service
        node = system.network.add_host("campaign-client")
        soap = SoapClient(node, default_timeout=PROBE_TIMEOUT)

        def lookup_probe(sequence: int):
            return soap.call(
                service.address,
                service.path,
                "StudentInformation",
                {"ID": f"S{sequence % STUDENTS + 1:05d}"},
                timeout=PROBE_TIMEOUT,
            )

        def enroll_probe(sequence: int):
            # Straight through the proxy (no SOAP hop), so the probe
            # observes the typed result — ``deduped`` retries included.
            result = yield from service.invoke(
                "EnrollStudent",
                {
                    "ID": f"S{sequence % STUDENTS + 1:05d}",
                    "course": f"C{sequence:05d}",
                },
            )
            if result.deduped:
                report.probes_deduped += 1

        result = ProbeWorkload(
            system,
            node,
            enroll_probe if self.workload == "enroll" else lookup_probe,
            period=PROBE_PERIOD,
            duration=self.duration,
        ).run()
        report.probes_ok = result.successes
        report.probes_failed = result.requests - result.successes
        if result.latencies:
            report.probe_p99_s = result.latency_summary().p99

    # -- reporting + auditing -----------------------------------------------------------

    def _collect(self, report: CampaignReport) -> None:
        service = self.service
        report.crashes = sum(
            1 for event in self.system.failures.log if event.kind == "crash"
        )
        report.restarts = sum(
            1 for event in self.system.failures.log if event.kind == "restart"
        )
        for peer in service.group.peers:
            elector = peer.coordinator_mgr.elector
            report.elections_won += elector.stats.elections_won
            report.epochs_announced += len(elector.announced)
            report.stale_epoch_rejections += peer.stale_epoch_rejections
        stats = service.proxy.stats
        report.stale_epoch_redirects = stats.stale_epoch_redirects
        report.stale_results_discarded = stats.stale_results_discarded
        report.rebinds = stats.rebinds
        report.live_coordinators = sum(
            1
            for peer in service.group.peers
            if peer.node.up and peer.coordinator_mgr.is_coordinator
        )
        # Exactly-once machinery + duplicate-execution ledger.
        for peer in service.group.peers:
            journal = peer.journal.stats
            report.journal_hits += journal.hits
            report.journal_merges += journal.merges
            report.duplicates_suppressed += journal.duplicates_suppressed
            report.requests_parked += peer.exactly_once.requests_parked
        replicated = self.system.obs.metrics.counters.get("bpeer.journal_replicated")
        if replicated is not None:
            report.journal_replications = replicated.value
        totals = effect_totals(service.all_peers())
        report.effects_applied = sum(totals.values())
        report.distinct_effects = len(totals)
        report.double_applied = {
            invocation_id: count
            for invocation_id, count in totals.items()
            if count > 1
        }

    def _audit(self, report: CampaignReport) -> None:
        """Post-run safety audit: crash/restart alternation, then the
        schedule checker's own registry, so the checker and the campaign
        judge a run by the *same* invariants — a violation either harness
        finds is a violation to the other.  The registry's queue-bound,
        autoscale, breaker and cache checks are vacuous here: a campaign
        deploys none of them.  Convergence (the final check) only means
        anything once the cooldown has settled, which it has by now.
        """
        report.violations.extend(self.system.failures.alternation_violations())
        report.violations.extend(InvariantRegistry().audit([self.service]))


# -- the experiments -------------------------------------------------------------------

#: Both experiments: replication fixed at x4, the same three seeds.
SEEDS = (7, 11, 42)
REPLICAS = 4

#: Availability vs. MTBF: churn swept at a fixed repair time.
MTBFS = (10.0, 25.0, 50.0)
MTTR = 10.0
CAMPAIGN_DURATION = 90.0

#: Exactly-once: the mutating workload under churn, partitions and loss.
EXACTLY_ONCE_DURATION = 60.0
LOSS_RATE = 0.01


def run_campaign(progress: Progress = quiet) -> Dict[str, Any]:
    """Availability vs. MTBF: rarer faults leave more of the timeline
    outside detection + re-election windows, and every campaign doubles
    as an audit of the recovery layer's invariants."""
    rows = []
    for mtbf in MTBFS:
        progress(f"MTBF {mtbf:.0f}s, seeds {list(SEEDS)} ...")
        reports = [
            FaultCampaign(
                seed=seed,
                duration=CAMPAIGN_DURATION,
                replicas=REPLICAS,
                mtbf=mtbf,
                mttr=MTTR,
            ).run()
            for seed in SEEDS
        ]
        rows.append({
            "mtbf_s": mtbf,
            "availability": sum(r.availability for r in reports) / len(reports),
            "violations": [v for r in reports for v in r.violations],
            "campaigns": [r.to_dict() for r in reports],
        })
    availability = {row["mtbf_s"]: row["availability"] for row in rows}
    assertions = {
        "no_invariant_violations": not any(row["violations"] for row in rows),
        # Rarer faults -> higher availability, monotone within noise.
        "rarer_faults_higher_availability": availability[50.0] > availability[10.0],
        "monotone_mtbf_10_to_25": availability[25.0] >= availability[10.0] - 0.02,
        "monotone_mtbf_25_to_50": availability[50.0] >= availability[25.0] - 0.02,
        # Even the harshest point keeps the service mostly up; the
        # mildest masks nearly everything.
        "harshest_point_mostly_up": availability[10.0] > 0.6,
        "mildest_point_masks_nearly_all": availability[50.0] > 0.9,
    }
    body = {
        "seeds": list(SEEDS),
        "replicas": REPLICAS,
        "mttr_s": MTTR,
        "duration_s": CAMPAIGN_DURATION,
        "rows": rows,
    }
    return bench_record("campaign", body, assertions)


def format_campaign(record: Dict[str, Any]) -> str:
    return "\n".join([
        format_table(
            ["MTBF (s)", "availability", "violations"],
            [[row["mtbf_s"], row["availability"], len(row["violations"])]
             for row in record["rows"]],
            title=(
                f"Fault campaign — availability vs. MTBF "
                f"(x{record['replicas']} replicas, MTTR={record['mttr_s']:.0f}s, "
                f"{record['duration_s']:.0f}s, seeds {tuple(record['seeds'])})"
            ),
        ),
        "",
        format_table(
            ["MTBF (s)", "seed", "probes", "availability", "crashes",
             "restarts", "partitions", "elections won", "rebinds"],
            [[row["mtbf_s"], c["seed"], c["probes"], c["availability"],
              c["crashes"], c["restarts"], c["partitions"],
              c["elections_won"], c["rebinds"]]
             for row in record["rows"] for c in row["campaigns"]],
            title="Injected faults and recovery, per campaign",
        ),
        format_assertions(record),
    ])


def run_exactly_once(progress: Progress = quiet) -> Dict[str, Any]:
    """Exactly-once under failover: enrollments driven through churn,
    partitions and message loss apply every invocation at most once, and
    the dedup journal demonstrably engaged."""
    reports = []
    for seed in SEEDS:
        progress(f"seed {seed}: enroll campaign ...")
        reports.append(
            FaultCampaign(
                seed=seed,
                duration=EXACTLY_ONCE_DURATION,
                replicas=REPLICAS,
                workload="enroll",
                loss_rate=LOSS_RATE,
            ).run()
        )
    assertions = {
        # Safety: every seed is free of double-application, and every
        # campaign invariant (fencing, alternation, convergence) holds
        # with the journal in the loop.
        "no_double_applied": not any(r.double_applied for r in reports),
        "every_campaign_ok": all(r.ok for r in reports),
        # The machinery engaged: retries were answered from the journal
        # somewhere across the sweep (else the schedule was too tame).
        "journal_engaged": sum(
            r.probes_deduped + r.duplicates_suppressed + r.journal_hits
            for r in reports
        ) >= 1,
    }
    body = {
        "seeds": list(SEEDS),
        "replicas": REPLICAS,
        "duration_s": EXACTLY_ONCE_DURATION,
        "loss_rate": LOSS_RATE,
        "rows": [r.to_dict() for r in reports],
    }
    return bench_record("exactly-once", body, assertions)


def format_exactly_once(record: Dict[str, Any]) -> str:
    return "\n".join([
        format_table(
            ["seed", "avail", "effects", "invocations", "dup'd",
             "deduped", "suppressed", "p99 (ms)"],
            [[row["seed"], round(row["availability"], 4),
              row["effects_applied"], row["distinct_effects"],
              len(row["double_applied"]), row["probes_deduped"],
              row["duplicates_suppressed"],
              round(row["probe_p99_s"] * 1000, 1) if row["probe_p99_s"] else None]
             for row in record["rows"]],
            title=(
                f"Exactly-once under failover — enroll workload, churn + "
                f"partitions + {record['loss_rate']:.0%} loss, "
                f"{record['duration_s']:.0f}s, seeds {tuple(record['seeds'])}"
            ),
        ),
        format_assertions(record),
    ])
