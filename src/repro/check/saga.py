"""Saga atomicity checking: crash the orchestrator, audit the ledgers.

The workflow layer's saga guarantee (:mod:`repro.workflow.saga`) is
end-to-end: for every saga id, the backend effect ledgers must show all
steps committed or every applied step compensated — never a mix, never a
double rollback.  This module is the saga *scenario* of the checker
engine in :mod:`repro.check.explorer` (which shrinks, saves, replays and
explores it exactly as it does the election/dedup scenario):
one deterministic run = a :class:`SagaCheckScenario` (the loan-solvency
pipeline plus a crashable orchestrator host) under one
:class:`~repro.check.schedule.Schedule` whose fault ops fire at protocol
decision points — which includes ``pre-commit``, so a ``crash`` op
targeting the orchestrator host lands exactly at a commit/compensate
boundary.

The run driver models the deployment story the saga log exists for: the
orchestrator host crashes mid-saga (its processes die with simnet
``Interrupt``), the host restarts, and a *fresh* orchestrator instance —
sharing only the durable :class:`~repro.workflow.saga.SagaLog` and DLQ
objects — recovers the orphaned sagas.  The atomicity invariant is
re-audited after every slice, and a ``final=True`` pass after cooldown
additionally requires every saga to have reached a terminal state.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Iterator, List, Optional, Sequence, Tuple

from ..backend.loans import (
    book_loan,
    cancel_loan,
    loan_booking_database,
    loan_desk_database,
    register_loan,
    release_funds,
    reserve_funds,
    solvency_database,
    unbook_loan,
)
from ..core.config import ScenarioConfig
from ..core.system import WhisperSystem
from ..simnet.events import Interrupt
from ..wsdl.samples import loan_booking_wsdl, loan_desk_wsdl, solvency_wsdl
from .faults import DecisionFaultInjector
from .invariants import (
    effect_totals,
    exactly_once_violations,
    saga_atomicity_violations,
)
from .schedule import Schedule, random_schedule
from .tiebreak import build_tiebreak

__all__ = [
    "ORCHESTRATOR_HOST",
    "SagaCheckScenario",
    "SagaRunResult",
    "build_loan_fleet",
    "loan_saga",
    "loan_saga_context",
    "run_dlq_demo",
    "run_saga_schedule",
]

#: The orchestrator's host name inside every saga check run; directed
#: schedules name it as a ``crash`` target to kill sagas mid-flight.
ORCHESTRATOR_HOST = "saga-host"


@dataclass(frozen=True)
class SagaCheckScenario:
    """The fixed half of one saga check run (the schedule is the other).

    Every fourth saga is submitted for an insolvent applicant (lowest
    credit tier, amount above it), so the compensation path is exercised
    on every run — the atomicity audit always has material, even under a
    baseline schedule.
    """

    seed: int = 0
    replicas: int = 2
    sagas: int = 10
    #: Every ``insolvent_every``-th saga targets an applicant whose
    #: credit tier cannot cover :attr:`insolvent_amount`.
    insolvent_every: int = 4
    solvent_amount: float = 1_000.0
    insolvent_amount: float = 9_000.0
    saga_period: float = 0.8
    step_timeout: float = 1.5
    step_budget: float = 6.0
    compensation_attempts: int = 3
    heartbeat_interval: float = 0.5
    miss_threshold: int = 2
    settle: float = 6.0
    cooldown: float = 12.0
    slice_seconds: float = 0.5
    compensation_enabled: bool = True
    #: Network-wide message loss applied once the workload starts (the
    #: settle window stays clean so deployment is identical across runs).
    loss_rate: float = 0.0

    #: The ``format`` field of this scenario's repro files.
    FORMAT: ClassVar[str] = "whisper-saga-check/1"

    def run(self, schedule: Schedule) -> "SagaRunResult":
        return run_saga_schedule(self, schedule)

    def baseline_schedule(self) -> Schedule:
        """The unperturbed schedule an exploration of this seed starts from."""
        return Schedule(label=f"seed{self.seed}/baseline")

    def schedules(
        self, baseline: "SagaRunResult", max_ops: int
    ) -> Iterator[Schedule]:
        """Endless random schedules for this seed, sampled against the
        fleet's b-peer hosts *plus* the orchestrator host — so the sampler
        crashes the orchestrator mid-saga as readily as a coordinator."""
        rng = random.Random(self.seed * 7919 + 13)
        for index in itertools.count():
            yield random_schedule(
                rng,
                baseline.hosts,
                baseline.decisions,
                max_ops=max_ops,
                label=f"seed{self.seed}/{index}",
            )

    def replace(self, **changes: Any) -> "SagaCheckScenario":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SagaCheckScenario":
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})


@dataclass
class SagaRunResult:
    """Everything one saga check run produced, digestible for replay."""

    violations: List[str] = field(default_factory=list)
    violated_at: Optional[float] = None
    decisions: int = 0
    sim_time: float = 0.0
    submitted: int = 0
    committed: int = 0
    compensated: int = 0
    abandoned: int = 0
    dead_lettered: int = 0
    recoveries: int = 0
    effects_applied: int = 0
    fired: List[Dict[str, Any]] = field(default_factory=list)
    skipped: List[Dict[str, Any]] = field(default_factory=list)
    timeline: List[Tuple[float, int]] = field(default_factory=list)
    hosts: List[str] = field(default_factory=list)
    saga_states: Dict[str, str] = field(default_factory=dict)
    #: Wall-to-wall simulated duration per *terminal* saga (the bench's
    #: latency sample; deterministic, so deliberately outside the digest).
    saga_elapsed: Dict[str, float] = field(default_factory=dict)

    def digest(self) -> str:
        """Fingerprint of the observable outcome; replays must match it."""
        payload = {
            "violations": self.violations,
            "violated_at": self.violated_at,
            "decisions": self.decisions,
            "sim_time": self.sim_time,
            "submitted": self.submitted,
            "committed": self.committed,
            "compensated": self.compensated,
            "abandoned": self.abandoned,
            "dead_lettered": self.dead_lettered,
            "recoveries": self.recoveries,
            "effects_applied": self.effects_applied,
            "fired": self.fired,
            "saga_states": self.saga_states,
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class _Fleet:
    """``all_peers()`` over several deployed services, for the injector
    (and the ledger audits, which want every backend in one sweep)."""

    def __init__(self, services: Sequence[Any]):
        self.services = list(services)

    def all_peers(self) -> List[Any]:
        return [peer for service in self.services for peer in service.all_peers()]


# -- the loan-solvency pipeline (shared with the saga benchmark) ---------------------


def build_loan_fleet(system: WhisperSystem, replicas: int) -> Tuple[Dict[str, Any], _Fleet]:
    """Deploy the CRUD → business-logic → orchestration loan pipeline.

    Each service's forward and compensating operation groups share ONE
    operational :class:`~repro.backend.store.Database` across all
    replicas — the one real store behind the service, which is what
    makes a compensation actually undo the forward effect (and what the
    effect-ledger audit reads; ``effect_totals`` dedups backends by
    identity, so the shared store is counted once).
    """
    loan_db = loan_desk_database()
    solvency_db = solvency_database()
    booking_db = loan_booking_database()
    loan_desk = system.deploy_service(
        loan_desk_wsdl(),
        {
            "RegisterLoan": [register_loan(loan_db) for _ in range(replicas)],
            "CancelLoan": [cancel_loan(loan_db) for _ in range(replicas)],
        },
        web_host="loan-web",
    )
    solvency = system.deploy_service(
        solvency_wsdl(),
        {
            "ReserveFunds": [reserve_funds(solvency_db) for _ in range(replicas)],
            "ReleaseFunds": [release_funds(solvency_db) for _ in range(replicas)],
        },
        web_host="solvency-web",
    )
    booking = system.deploy_service(
        loan_booking_wsdl(),
        {
            "BookLoan": [book_loan(booking_db) for _ in range(replicas)],
            "UnbookLoan": [unbook_loan(booking_db) for _ in range(replicas)],
        },
        web_host="booking-web",
    )
    services = {"loan_desk": loan_desk, "solvency": solvency, "booking": booking}
    return services, _Fleet(list(services.values()))


def loan_saga(
    services: Dict[str, Any],
    timeout: float = 1.5,
    budget: Optional[float] = 6.0,
) -> "Saga":
    """The three-step loan saga: register → reserve funds → book."""
    # Imported lazily: repro.core's campaign imports this package's
    # invariants, so a module-level workflow import here would close a
    # cycle back through workflow.engine → core.errors → core.
    from ..workflow.saga import CompensableTask, Saga

    def args_full(context):
        return {
            "loanId": context["loan_id"],
            "applicant": context["applicant"],
            "amount": context["amount"],
        }

    def args_booking(context):
        return {"loanId": context["loan_id"], "amount": context["amount"]}

    def args_id(context):
        return {"loanId": context["loan_id"]}

    common = dict(
        timeout=timeout,
        budget=budget,
        compensate_timeout=timeout,
        compensate_budget=budget,
    )
    return Saga(
        name="loan",
        steps=[
            CompensableTask(
                name="register",
                service=services["loan_desk"],
                operation="RegisterLoan",
                input_mapping=args_full,
                compensate_operation="CancelLoan",
                compensate_mapping=args_id,
                output_key="registration",
                **common,
            ),
            CompensableTask(
                name="reserve",
                service=services["solvency"],
                operation="ReserveFunds",
                input_mapping=args_full,
                compensate_operation="ReleaseFunds",
                compensate_mapping=args_id,
                output_key="reservation",
                **common,
            ),
            CompensableTask(
                name="book",
                service=services["booking"],
                operation="BookLoan",
                input_mapping=args_booking,
                compensate_operation="UnbookLoan",
                compensate_mapping=args_id,
                output_key="booking",
                **common,
            ),
        ],
    )


def loan_saga_context(scenario: SagaCheckScenario, index: int) -> Dict[str, Any]:
    """Deterministic inputs for the ``index``-th saga of a run.

    Insolvent submissions cycle through the lowest credit tier
    (``APP-0000``, ``APP-0004``, ...; limit 5 000) asking for more than
    the tier covers, so ``ReserveFunds`` faults and the saga compensates.
    Solvent ones draw from the higher tiers with small amounts.
    """
    insolvent = (
        scenario.insolvent_every > 0 and index % scenario.insolvent_every == 0
    )
    if insolvent:
        applicant = f"APP-{(index % 8) * 4:04d}"
        amount = scenario.insolvent_amount
    else:
        applicant = f"APP-{(index % 8) * 4 + 1 + (index % 3):04d}"
        amount = scenario.solvent_amount
    return {
        "loan_id": f"LOAN-{index:04d}",
        "applicant": applicant,
        "amount": amount,
        "insolvent": insolvent,
    }


# -- one run -----------------------------------------------------------------------


def _deploy_loans(scenario: SagaCheckScenario) -> Tuple[WhisperSystem, Dict[str, Any], _Fleet]:
    """A fresh system carrying the loan fleet, sized by ``scenario``."""
    system = WhisperSystem(
        ScenarioConfig(
            seed=scenario.seed,
            heartbeat_interval=scenario.heartbeat_interval,
            miss_threshold=scenario.miss_threshold,
            replicas=scenario.replicas,
            request_timeout=scenario.step_timeout,
            deadline_budget=scenario.step_budget,
        )
    )
    services, fleet = build_loan_fleet(system, scenario.replicas)
    return system, services, fleet


def _audit(saga_log, fleet: _Fleet, final: bool = False) -> List[str]:
    """Saga atomicity + exactly-once over every backend of the fleet."""
    peers = fleet.all_peers()
    violations = saga_atomicity_violations(saga_log, peers, final=final)
    violations.extend(exactly_once_violations(peers))
    return violations


def run_saga_schedule(
    scenario: SagaCheckScenario,
    schedule: Schedule,
    halt_on_violation: bool = True,
) -> SagaRunResult:
    """Execute one (scenario, schedule) pair and audit it slice by slice.

    ``halt_on_violation=False`` runs the full horizon regardless and
    reports the final audit — the benchmark's baseline mode, which wants
    to *count* the stranded effects a violating run leaves behind, not
    stop at the first one.
    """
    from ..workflow.dlq import DeadLetterQueue
    from ..workflow.saga import SagaLog, SagaOrchestrator

    system, services, fleet = _deploy_loans(scenario)
    system.env.tiebreak = build_tiebreak(schedule.tiebreak)
    system.settle(scenario.settle)
    if scenario.loss_rate:
        system.network.loss_rate = scenario.loss_rate

    injector = DecisionFaultInjector(system, fleet, schedule.ops)
    injector.install()
    result = SagaRunResult(
        hosts=sorted(injector.watched | {ORCHESTRATOR_HOST})
    )

    env = system.env
    host = system.network.add_host(ORCHESTRATOR_HOST)
    client = system.network.add_host("saga-client")
    saga_log = SagaLog()
    dlq = DeadLetterQueue()
    definition = loan_saga(
        services, timeout=scenario.step_timeout, budget=scenario.step_budget
    )

    def make_orchestrator() -> SagaOrchestrator:
        orchestrator = SagaOrchestrator(
            host,
            log=saga_log,
            dlq=dlq,
            compensation_enabled=scenario.compensation_enabled,
            max_compensation_attempts=scenario.compensation_attempts,
        )
        orchestrator.register(definition)
        return orchestrator

    orchestrator_box = {"current": make_orchestrator()}
    #: saga_id -> the process currently driving it (dead = orphaned).
    active: Dict[str, Any] = {}
    submitted = {"count": 0}

    def drive_one(saga_id: str, context: Dict[str, Any]):
        try:
            yield from orchestrator_box["current"].execute(
                definition, context, saga_id=saga_id
            )
        except Interrupt:
            return

    def recover_batch(orchestrator: SagaOrchestrator, saga_ids: List[str]):
        try:
            yield from orchestrator.recover(saga_ids=saga_ids)
        except Interrupt:
            return

    def driver():
        for index in range(scenario.sagas):
            if host.up:
                saga_id = f"loan-{index:04d}"
                context = loan_saga_context(scenario, index)
                process = host.spawn(
                    drive_one(saga_id, context), name=f"saga-{saga_id}"
                )
                active[saga_id] = process
                submitted["count"] += 1
            yield env.timeout(scenario.saga_period)

    client.spawn(driver(), name="saga-driver")

    horizon = env.now + scenario.sagas * scenario.saga_period + scenario.cooldown
    hard_stop = horizon + 10 * scenario.cooldown
    seen_crashes = host.crash_count
    violations: List[str] = []
    while env.now < horizon:
        system.run_until(min(env.now + scenario.slice_seconds, horizon))
        result.timeline.append((env.now, injector.decisions))
        # Restart-driven recovery: when the orchestrator host has crashed
        # since the last slice and is back up, a *fresh* orchestrator
        # (sharing only the durable log + DLQ) resumes the orphaned
        # sagas — never ones still held by a live process.
        if host.up and host.crash_count > seen_crashes:
            seen_crashes = host.crash_count
            orphans = [
                record.saga_id
                for record in saga_log.incomplete()
                if not (
                    record.saga_id in active
                    and active[record.saga_id].is_alive
                )
            ]
            if orphans:
                orchestrator_box["current"] = make_orchestrator()
                process = host.spawn(
                    recover_batch(orchestrator_box["current"], orphans),
                    name=f"saga-recover-{result.recoveries}",
                )
                for saga_id in orphans:
                    active[saga_id] = process
                result.recoveries += 1
        violations = _audit(saga_log, fleet)
        if violations:
            if result.violated_at is None:
                result.violated_at = env.now
            if halt_on_violation:
                break
            violations = []
        # Stretch the horizon past the last fault's heal (mirroring the
        # explorer) and past any still-incomplete saga: recovery can only
        # start after the restart, and compensation retries take time.
        last_heal = max(
            (f["time"] + f["op"]["duration"] for f in injector.fired),
            default=0.0,
        )
        horizon = max(horizon, last_heal + scenario.cooldown)
        if saga_log.incomplete() and horizon < hard_stop:
            horizon = min(max(horizon, env.now + scenario.cooldown), hard_stop)

    if not violations:
        violations = _audit(saga_log, fleet, final=True)
        if violations and result.violated_at is None:
            result.violated_at = env.now

    injector.uninstall()
    result.violations = violations
    result.decisions = injector.decisions
    result.sim_time = env.now
    result.submitted = submitted["count"]
    for record in saga_log.records():
        result.saga_states[record.saga_id] = record.state
        if record.elapsed is not None:
            result.saga_elapsed[record.saga_id] = record.elapsed
        if record.state == "committed":
            result.committed += 1
        elif record.state == "compensated":
            result.compensated += 1
        elif record.state == "abandoned":
            result.abandoned += 1
        elif record.state == "dead-lettered":
            result.dead_lettered += 1
    result.effects_applied = sum(effect_totals(fleet.all_peers()).values())
    result.fired = injector.fired
    result.skipped = injector.skipped
    return result


# -- the dead-letter queue demo ------------------------------------------------------


def run_dlq_demo(
    seed: int = 42,
    sagas: int = 3,
    requeue: bool = False,
    outage: float = 20.0,
) -> Dict[str, Any]:
    """Deterministically park sagas in the DLQ; optionally requeue them.

    Every submission is insolvent (``ReserveFunds`` faults), so each
    saga must compensate its registered loan — but every replica of the
    ``CancelLoan`` operation group is crashed for ``outage`` seconds
    before the workload starts.  The forward ``RegisterLoan`` group is a
    *different* set of hosts and keeps committing, so compensation
    exhausts its attempt budget against the dead group and the sagas
    park in the dead-letter queue.  With ``requeue=True`` the demo then
    waits out the outage and requeues every pending entry
    (:meth:`~repro.workflow.saga.SagaOrchestrator.requeue`), after which
    the atomicity audit must be silent and the queue empty.
    """
    from ..workflow.dlq import DeadLetterQueue
    from ..workflow.saga import SagaLog, SagaOrchestrator

    scenario = SagaCheckScenario(
        seed=seed,
        sagas=sagas,
        insolvent_every=1,
        step_timeout=1.0,
        step_budget=2.5,
        compensation_attempts=2,
    )
    system, services, fleet = _deploy_loans(scenario)
    system.settle(scenario.settle)
    env = system.env

    cancel_hosts = [
        peer.node.name
        for peer in services["loan_desk"].group_for("CancelLoan").peers
    ]
    crash_time = env.now + 0.05
    for host_name in cancel_hosts:
        system.failures.crash_for(crash_time, host_name, outage)

    host = system.network.add_host(ORCHESTRATOR_HOST)
    saga_log = SagaLog()
    dlq = DeadLetterQueue()
    orchestrator = SagaOrchestrator(
        host,
        log=saga_log,
        dlq=dlq,
        max_compensation_attempts=scenario.compensation_attempts,
    )
    saga = loan_saga(
        services, timeout=scenario.step_timeout, budget=scenario.step_budget
    )
    orchestrator.register(saga)
    client = system.network.add_host("saga-client")

    def driver():
        for index in range(sagas):
            context = loan_saga_context(scenario, index)
            host.spawn(
                orchestrator.execute(saga, context, saga_id=f"loan-{index:04d}"),
                name=f"saga-loan-{index:04d}",
            )
            yield env.timeout(scenario.saga_period)

    client.spawn(driver(), name="dlq-driver")
    deadline = env.now + outage + 60.0
    while env.now < deadline and (
        len(saga_log.records()) < sagas or saga_log.incomplete()
    ):
        system.run_until(env.now + 1.0)

    parked = [entry.describe() for entry in dlq.entries()]
    result: Dict[str, Any] = {
        "seed": seed,
        "sagas": sagas,
        "outage": outage,
        "cancel_hosts": cancel_hosts,
        "parked": dlq.parked,
        "entries": parked,
        "export": dlq.export(),
        "requeue": requeue,
        "sim_time": env.now,
    }
    if requeue:
        system.run_until(max(env.now, crash_time + outage + 2.0))
        processes = [
            host.spawn(
                orchestrator.requeue(entry.saga_id),
                name=f"requeue-{entry.saga_id}",
            )
            for entry in dlq.pending()
        ]
        guard = env.now + 30.0
        while any(p.is_alive for p in processes) and env.now < guard:
            system.run_until(env.now + 1.0)
        result["entries_after"] = [entry.describe() for entry in dlq.entries()]
        result["export"] = dlq.export()
        result["sim_time"] = env.now
    result["pending_after"] = len(dlq.pending())
    result["states"] = {
        record.saga_id: record.state for record in saga_log.records()
    }
    result["violations"] = _audit(saga_log, fleet, final=True)
    return result
