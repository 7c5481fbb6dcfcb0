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
objects — recovers the orphaned sagas.  The run is audited by the same
:class:`~repro.check.invariants.InvariantRegistry` as the enroll
scenario, handed the saga log: every invariant plus saga atomicity after
every slice, and after cooldown the final checks, which additionally
require every saga to have reached a terminal state.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Iterator, List, Optional, Tuple

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
from ..core.system import DeployedService, WhisperSystem
from ..simnet.events import Interrupt
from ..workflow.dlq import DeadLetterQueue
from ..workflow.saga import CompensableTask, Saga, SagaLog, SagaOrchestrator
from ..wsdl.samples import loan_booking_wsdl, loan_desk_wsdl, solvency_wsdl
from .faults import DecisionFaultInjector
from .invariants import InvariantRegistry, all_peers, effect_totals
from .schedule import (
    HEARTBEAT_INTERVAL,
    MISS_THRESHOLD,
    SLICE_SECONDS,
    RunRecord,
    Scenario,
    Schedule,
    random_schedule,
)
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


#: The loan fleet every :class:`SagaCheckScenario` deploys: two replicas
#: per operation group, settled for 6 s before the first saga, then one
#: saga submitted every 0.8 s.
REPLICAS = 2
SETTLE = 6.0
SAGA_PERIOD = 0.8
#: What an insolvent applicant asks for: more than the lowest credit
#: tier's 5 000 limit covers.
INSOLVENT_AMOUNT = 9_000.0


@dataclass(frozen=True)
class SagaCheckScenario(Scenario):
    """The loan fleet and its sagas under one schedule.

    Every fourth saga is submitted for an insolvent applicant (lowest
    credit tier, amount above it), so the compensation path is exercised
    on every run — the atomicity audit always has material, even under a
    baseline schedule.  What no caller varies is a module constant;
    ``cooldown`` is a field because tests shorten it.
    """

    sagas: int = 10
    #: Every ``insolvent_every``-th saga targets an applicant whose
    #: credit tier cannot cover :data:`INSOLVENT_AMOUNT`.
    insolvent_every: int = 4
    solvent_amount: float = 1_000.0
    step_timeout: float = 1.5
    step_budget: float = 6.0
    compensation_attempts: int = 3
    cooldown: float = 12.0
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


@dataclass
class SagaRunResult(RunRecord):
    """One saga run: the common record plus how each saga ended."""

    submitted: int = 0
    committed: int = 0
    compensated: int = 0
    abandoned: int = 0
    dead_lettered: int = 0
    recoveries: int = 0
    saga_states: Dict[str, str] = field(default_factory=dict)
    #: Wall-to-wall simulated duration per *terminal* saga (the bench's
    #: latency sample; deterministic, so deliberately outside the digest).
    saga_elapsed: Dict[str, float] = field(default_factory=dict)

    DIGESTED: ClassVar[Tuple[str, ...]] = (
        "submitted", "committed", "compensated", "abandoned", "dead_lettered",
        "recoveries", "saga_states",
    )  # fmt: skip


# -- the loan-solvency pipeline (shared with the saga benchmark) ---------------------


def build_loan_fleet(
    system: WhisperSystem, replicas: int
) -> Tuple[Dict[str, DeployedService], List[DeployedService]]:
    """Deploy the CRUD → business-logic → orchestration loan pipeline.

    Returns the services by role and, for the audits and the fault
    injector, the same services as a list.

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
    return services, list(services.values())


def loan_saga(
    services: Dict[str, Any],
    timeout: float = 1.5,
    budget: Optional[float] = 6.0,
) -> Saga:
    """The three-step loan saga: register → reserve funds → book."""
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
        amount = INSOLVENT_AMOUNT
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


def _deploy_loans(
    scenario: SagaCheckScenario,
) -> Tuple[WhisperSystem, Dict[str, DeployedService], List[DeployedService]]:
    """A fresh system carrying the loan fleet, sized by ``scenario``."""
    system = WhisperSystem(
        ScenarioConfig(
            seed=scenario.seed,
            heartbeat_interval=HEARTBEAT_INTERVAL,
            miss_threshold=MISS_THRESHOLD,
            replicas=REPLICAS,
            request_timeout=scenario.step_timeout,
            deadline_budget=scenario.step_budget,
        )
    )
    services, fleet = build_loan_fleet(system, REPLICAS)
    return system, services, fleet


def run_saga_schedule(
    scenario: SagaCheckScenario,
    schedule: Schedule,
    halt_on_violation: bool = True,
) -> SagaRunResult:
    """Execute one (scenario, schedule) pair and audit it slice by slice.

    ``halt_on_violation=False`` runs the full horizon regardless and
    reports the final checks — the benchmark's baseline mode, which
    wants to *count* the stranded effects a violating run leaves behind,
    not stop at the first one.
    """
    system, services, fleet = _deploy_loans(scenario)
    system.env.tiebreak = build_tiebreak(schedule.tiebreak)
    system.settle(SETTLE)
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
    registry = InvariantRegistry(saga_log=saga_log)
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
            yield env.timeout(SAGA_PERIOD)

    client.spawn(driver(), name="saga-driver")

    horizon = env.now + scenario.sagas * SAGA_PERIOD + scenario.cooldown
    hard_stop = horizon + 10 * scenario.cooldown
    seen_crashes = host.crash_count
    violations: List[str] = []
    while env.now < horizon:
        system.run_until(min(env.now + SLICE_SECONDS, horizon))
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
        violations = registry.check_step(fleet)
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
        violations = registry.check_final(fleet)
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
    result.effects_applied = sum(effect_totals(all_peers(fleet)).values())
    result.fired = injector.fired
    result.skipped = injector.skipped
    return result


# -- the dead-letter queue demo ------------------------------------------------------


def run_dlq_demo(
    seed: int = 42,
    sagas: int = 3,
    requeue: bool = False,
) -> Dict[str, Any]:
    """Deterministically park sagas in the DLQ; optionally requeue them.

    Every submission is insolvent (``ReserveFunds`` faults), so each
    saga must compensate its registered loan — but every replica of the
    ``CancelLoan`` operation group is crashed for 20 s before the
    workload starts.  The forward ``RegisterLoan`` group is a
    *different* set of hosts and keeps committing, so compensation
    exhausts its attempt budget against the dead group and the sagas
    park in the dead-letter queue.  With ``requeue=True`` the demo then
    waits out the outage and requeues every pending entry
    (:meth:`~repro.workflow.saga.SagaOrchestrator.requeue`), after which
    the atomicity audit must be silent and the queue empty.
    """
    scenario = SagaCheckScenario(
        seed=seed,
        sagas=sagas,
        insolvent_every=1,
        step_timeout=1.0,
        step_budget=2.5,
        compensation_attempts=2,
    )
    system, services, fleet = _deploy_loans(scenario)
    system.settle(SETTLE)
    env = system.env
    outage = 20.0

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
            yield env.timeout(SAGA_PERIOD)

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
    result["violations"] = InvariantRegistry(saga_log=saga_log).audit(fleet)
    return result
