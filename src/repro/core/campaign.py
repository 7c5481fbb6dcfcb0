"""Seeded fault campaigns: randomized failures + invariant auditing.

The benchmarks crash *specific* hosts at *chosen* instants; a campaign
instead drives the deployment through a seeded random schedule of churn
and partitions while an open-loop client keeps probing, then audits the
run against the recovery layer's safety invariants:

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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..check.invariants import (
    announced_epoch_violations,
    convergence_violations,
    effect_totals,
    exactly_once_violations,
    stale_result_violations,
)
from ..soap.client import SoapClient
from .config import ScenarioConfig
from .system import WhisperSystem

__all__ = ["FaultCampaign", "CampaignReport"]


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
    journal_pushes: int = 0
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
    probe_p99: Optional[float] = None
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
        """Machine-readable report (``python -m repro campaign --json``)."""
        return {
            "seed": self.seed,
            "duration": self.duration,
            "workload": self.workload,
            "loss_rate": self.loss_rate,
            "probes": self.probes,
            "probes_ok": self.probes_ok,
            "probes_failed": self.probes_failed,
            "availability": self.availability,
            "probe_p99_s": self.probe_p99,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "partitions": self.partitions,
            "elections_won": self.elections_won,
            "epochs_announced": self.epochs_announced,
            "stale_epoch_rejections": self.stale_epoch_rejections,
            "stale_epoch_redirects": self.stale_epoch_redirects,
            "stale_results_discarded": self.stale_results_discarded,
            "rebinds": self.rebinds,
            "live_coordinators": self.live_coordinators,
            "probes_deduped": self.probes_deduped,
            "journal_hits": self.journal_hits,
            "journal_merges": self.journal_merges,
            "journal_replications": self.journal_replications,
            "journal_pushes": self.journal_pushes,
            "duplicates_suppressed": self.duplicates_suppressed,
            "requests_parked": self.requests_parked,
            "effects_applied": self.effects_applied,
            "distinct_effects": self.distinct_effects,
            "double_applied": dict(self.double_applied),
            "duplicate_rate": self.duplicate_rate,
            "violations": list(self.violations),
            "ok": self.ok,
        }

    def format(self) -> str:
        lines = [
            f"fault campaign (seed={self.seed}, {self.duration:.0f}s, "
            f"workload={self.workload}, loss={self.loss_rate:.2%})",
            f"  probes        : {self.probes} ({self.probes_ok} ok, "
            f"{self.probes_failed} failed, {self.probes_deduped} deduped)",
            f"  availability  : {self.availability:.4f}",
            f"  injected      : {self.crashes} crashes, {self.restarts} restarts, "
            f"{self.partitions} partitions",
            f"  elections won : {self.elections_won} "
            f"({self.epochs_announced} epochs announced)",
            f"  fencing       : {self.stale_epoch_rejections} stale requests "
            f"rejected, {self.stale_epoch_redirects} stale redirects, "
            f"{self.stale_results_discarded} stale results discarded",
            f"  proxy rebinds : {self.rebinds}",
            f"  live coords   : {self.live_coordinators}",
            f"  journal       : {self.journal_hits} hits, {self.journal_merges} "
            f"merges, {self.journal_replications} replications, "
            f"{self.journal_pushes} pushes, {self.requests_parked} parked",
            f"  exactly-once  : {self.effects_applied} effects over "
            f"{self.distinct_effects} invocations, "
            f"{len(self.double_applied)} double-applied, "
            f"{self.duplicates_suppressed} duplicate results suppressed",
        ]
        if self.probe_p99 is not None:
            lines.append(f"  probe p99     : {self.probe_p99 * 1000:.1f} ms")
        if self.violations:
            lines.append(f"  INVARIANT VIOLATIONS ({len(self.violations)}):")
            lines.extend(f"    - {violation}" for violation in self.violations)
        else:
            lines.append("  invariants    : all hold")
        return "\n".join(lines)


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
        partition_duration: float = 6.0,
        probe_period: float = 0.5,
        probe_timeout: float = 2.0,
        heartbeat_interval: float = 0.5,
        miss_threshold: int = 2,
        workload: str = "lookup",
        loss_rate: float = 0.0,
        probe_budget: float = 10.0,
        students: int = 200,
    ):
        if workload not in ("lookup", "enroll"):
            raise ValueError(f"unknown campaign workload {workload!r}")
        self.seed = seed
        self.duration = duration
        self.replicas = replicas
        self.mtbf = mtbf
        self.mttr = mttr
        self.partitions = partitions
        self.partition_duration = partition_duration
        self.probe_period = probe_period
        self.probe_timeout = probe_timeout
        #: ``enroll`` probes: retry budget per logical call — wide enough
        #: to straddle a partition heal, which is exactly when an
        #: at-least-once retry re-executes a mutation it already applied.
        self.probe_budget = probe_budget
        self.workload = workload
        self.loss_rate = loss_rate
        self.students = students
        self.system = WhisperSystem(
            ScenarioConfig(
                seed=seed,
                heartbeat_interval=heartbeat_interval,
                miss_threshold=miss_threshold,
                replicas=replicas,
                students=students,
            )
        )
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
            window = min(self.partition_duration, max(1.0, slot - 2.0))
            offset = rng.uniform(0.0, max(0.0, slot - window - 1.0))
            at = start + 5.0 + index * slot + offset
            victim = rng.choice(hosts)
            others = [name for name in everyone if name != victim]
            self.system.failures.partition_at(at, [victim], others, duration=window)
            scheduled += 1
        return scheduled

    def _drive_probes(self, report: CampaignReport) -> None:
        # The bench package builds on core; importing it here, not at
        # module level, keeps core importable on its own.
        from ..bench.workload import ProbeWorkload

        system = self.system
        service = self.service
        node = system.network.add_host("campaign-client")
        soap = SoapClient(node, default_timeout=self.probe_timeout)

        def lookup_probe(sequence: int):
            return soap.call(
                service.address,
                service.path,
                "StudentInformation",
                {"ID": f"S{sequence % self.students + 1:05d}"},
                timeout=self.probe_timeout,
            )

        def enroll_probe(sequence: int):
            # Straight through the proxy (no SOAP hop), so the probe
            # observes the typed result — ``deduped`` retries included.
            result = yield from service.invoke(
                "EnrollStudent",
                {
                    "ID": f"S{sequence % self.students + 1:05d}",
                    "course": f"C{sequence:05d}",
                },
                timeout=self.probe_timeout,
                budget=self.probe_budget,
            )
            if result.deduped:
                report.probes_deduped += 1

        result = ProbeWorkload(
            system,
            node,
            enroll_probe if self.workload == "enroll" else lookup_probe,
            period=self.probe_period,
            duration=self.duration,
        ).run()
        report.probes_ok = result.successes
        report.probes_failed = result.requests - result.successes
        if result.latencies:
            report.probe_p99 = result.latency_summary().p99

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
            report.requests_parked += peer.requests_parked
        counters = self.system.obs.metrics.counters
        for name, attribute in (
            ("bpeer.journal_replicated", "journal_replications"),
            ("bpeer.journal_pushes", "journal_pushes"),
        ):
            counter = counters.get(name)
            if counter is not None:
                setattr(report, attribute, counter.value)
        seen_backends = set()
        for peer in service.all_peers():
            backend = peer.implementation.backend
            if id(backend) in seen_backends:
                continue
            seen_backends.add(id(backend))
            report.effects_applied += len(backend.effect_log)
        totals = effect_totals(service.all_peers())
        report.distinct_effects = len(totals)
        report.double_applied = {
            invocation_id: count
            for invocation_id, count in totals.items()
            if count > 1
        }

    def _audit(self, report: CampaignReport) -> None:
        """Post-run safety audit over the shared invariant functions.

        The checkers themselves live in :mod:`repro.check.invariants` so
        the schedule-exploration checker and the fault campaign judge a
        run by the *same* definitions — a violation either harness finds
        is a violation to the other.
        """
        peers = self.service.all_peers()
        violations = report.violations
        violations.extend(self.system.failures.alternation_violations())
        violations.extend(announced_epoch_violations(peers))
        violations.extend(stale_result_violations(self.service.proxy))
        # Exactly-once: no invocation id may appear more than once across
        # every backend's effect ledger.
        violations.extend(exactly_once_violations(peers))
        # Convergence only means anything after the cooldown settled, and
        # applies within each shard group (each elects its own coordinator).
        groups = self.service.all_groups()
        for group in groups:
            label = group.name if len(groups) > 1 else ""
            violations.extend(convergence_violations(group.peers, group=label))
