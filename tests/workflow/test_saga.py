"""Tests for saga orchestration: commit, compensation, recovery, DLQ."""

import pytest

from repro.check.invariants import (
    all_peers,
    effect_totals,
    exactly_once_violations,
    saga_atomicity_violations,
)
from repro.check.saga import build_loan_fleet, loan_saga, run_dlq_demo
from repro.core import ScenarioConfig, WhisperSystem
from repro.simnet.events import Interrupt
from repro.workflow import (
    CompensableTask,
    DeadLetterQueue,
    Saga,
    SagaLog,
    SagaOrchestrator,
    SagaState,
    StepState,
    WorkflowError,
)


def _deploy(seed=77, replicas=2):
    system = WhisperSystem(
        ScenarioConfig(
            seed=seed,
            replicas=replicas,
            heartbeat_interval=0.5,
            miss_threshold=2,
            request_timeout=1.5,
            deadline_budget=6.0,
        )
    )
    services, fleet = build_loan_fleet(system, replicas)
    system.settle(6.0)
    return system, services, fleet


def _orchestrator(system, name="saga-host", **kwargs):
    host = system.network.add_host(name)
    return host, SagaOrchestrator(host, **kwargs)


def _run(orchestrator, saga, context, saga_id=None):
    """Execute ``saga`` to completion on the orchestrator's host."""
    process = orchestrator.node.spawn(
        orchestrator.execute(saga, context, saga_id=saga_id)
    )
    orchestrator.env.run(until=process)
    return process.value


SOLVENT = {"loan_id": "LOAN-9001", "applicant": "APP-0001", "amount": 500.0}
INSOLVENT = {"loan_id": "LOAN-9002", "applicant": "APP-0000", "amount": 9_000.0}


class TestHappyPath:
    def test_all_steps_commit(self):
        system, services, fleet = _deploy()
        _host, orchestrator = _orchestrator(system)
        saga = loan_saga(services)
        record = _run(orchestrator, saga, dict(SOLVENT))
        assert record.state == SagaState.COMMITTED
        assert [step.state for step in record.steps] == [StepState.COMMITTED] * 3
        assert record.context["registration"]["status"] == "registered"
        assert record.context["reservation"]["status"] == "reserved"
        assert record.context["booking"]["status"] == "booked"
        assert not saga_atomicity_violations(
            orchestrator.log, all_peers(fleet), final=True
        )

    def test_step_invocation_ids_are_saga_scoped(self):
        system, services, _fleet = _deploy()
        _host, orchestrator = _orchestrator(system)
        record = _run(orchestrator, 
            loan_saga(services), dict(SOLVENT), saga_id="loan-keyed"
        )
        assert [step.invocation_id for step in record.steps] == [
            "saga:loan-keyed:register:fwd",
            "saga:loan-keyed:reserve:fwd",
            "saga:loan-keyed:book:fwd",
        ]


class TestCompensation:
    def test_insolvent_saga_compensates(self):
        system, services, fleet = _deploy()
        _host, orchestrator = _orchestrator(system)
        record = _run(orchestrator, loan_saga(services), dict(INSOLVENT))
        assert record.state == SagaState.COMPENSATED
        register, reserve, book = record.steps
        assert register.state == StepState.COMPENSATED
        assert reserve.state == StepState.COMPENSATED
        assert book.state == StepState.PENDING
        loan_db = services["loan_desk"].all_peers()[0].implementation.backend
        row = loan_db.table("loan_applications").get(INSOLVENT["loan_id"])
        assert row["status"] == "cancelled"
        assert not saga_atomicity_violations(
            orchestrator.log, all_peers(fleet), final=True
        )

    def test_compensations_run_in_reverse_commit_order(self):
        system, services, fleet = _deploy()
        # BookLoan's whole operation group goes down, so a solvent saga
        # commits register + reserve, fails at book, and must unwind.
        for peer in services["booking"].group_for("BookLoan").peers:
            system.failures.crash_at(system.env.now + 0.01, peer.node.name)
        _host, orchestrator = _orchestrator(system)
        saga = loan_saga(services, timeout=1.0, budget=3.0)
        record = _run(orchestrator, saga, dict(SOLVENT))
        assert record.state == SagaState.COMPENSATED
        trace = [
            t for t in system.obs.recent_traces() if t.operation == "saga.loan"
        ][-1]
        comp_order = list(dict.fromkeys(
            span.name for span in trace.spans()
            if span.name.startswith("comp:")
        ))
        assert comp_order == ["comp:book", "comp:reserve", "comp:register"]
        solvency_db = services["solvency"].all_peers()[0].implementation.backend
        assert (
            solvency_db.table("reservations").get(SOLVENT["loan_id"])["status"]
            == "released"
        )
        assert not saga_atomicity_violations(
            orchestrator.log, all_peers(fleet), final=True
        )

    def test_compensation_disabled_abandons(self):
        system, services, fleet = _deploy()
        _host, orchestrator = _orchestrator(
            system, compensation_enabled=False
        )
        record = _run(orchestrator, loan_saga(services), dict(INSOLVENT))
        assert record.state == SagaState.ABANDONED
        violations = saga_atomicity_violations(
            orchestrator.log, all_peers(fleet)
        )
        assert violations and "stranded" in violations[0]


class TestRecovery:
    def test_crash_restart_resumes_exactly_once(self):
        system, services, fleet = _deploy(seed=78)
        env = system.env
        saga_log = SagaLog()
        dlq = DeadLetterQueue()
        host, orchestrator = _orchestrator(system, log=saga_log, dlq=dlq)
        saga = loan_saga(services)
        orchestrator.register(saga)

        def drive():
            try:
                yield from orchestrator.execute(
                    saga, dict(SOLVENT), saga_id="loan-crash"
                )
            except Interrupt:
                return

        host.spawn(drive(), name="saga-loan-crash")
        # Crash the orchestrator host mid-saga; the process dies with the
        # write-ahead log holding an in-doubt step.
        system.failures.crash_for(env.now + 0.012, host.name, 2.0)
        system.run_until(env.now + 4.0)
        record = saga_log.get("loan-crash")
        assert record.state not in (SagaState.COMMITTED, SagaState.COMPENSATED)
        # The restarted host runs a *fresh* orchestrator sharing only the
        # durable log + DLQ; recovery drives the saga to a terminal state.
        recovered = SagaOrchestrator(host, log=saga_log, dlq=dlq)
        recovered.register(saga)
        process = host.spawn(recovered.recover(), name="saga-recover")
        system.run_until(env.now + 10.0)
        assert not process.is_alive
        assert record.state == SagaState.COMMITTED
        peers = all_peers(fleet)
        # In-doubt steps re-issued under their original idempotency keys:
        # every saga-scoped effect applied exactly once.
        assert not exactly_once_violations(peers)
        assert not saga_atomicity_violations(saga_log, peers, final=True)
        totals = effect_totals(peers)
        assert totals["saga:loan-crash:register:fwd"] == 1
        assert totals["saga:loan-crash:book:fwd"] == 1

    def test_recover_honors_saga_id_filter(self):
        system, services, _fleet = _deploy(seed=79)
        saga_log = SagaLog()
        host, orchestrator = _orchestrator(system, log=saga_log)
        saga = loan_saga(services)
        orchestrator.register(saga)
        _run(orchestrator, saga, dict(SOLVENT), saga_id="loan-done")
        # A filter naming no incomplete saga resumes nothing.
        process = host.spawn(orchestrator.recover(saga_ids=["loan-other"]))
        system.env.run(until=process)
        assert process.value == []


class TestDeadLetterQueue:
    def test_exhausted_compensation_parks(self):
        demo = run_dlq_demo(seed=5, sagas=2, requeue=False)
        assert demo["parked"] == 2
        assert demo["pending_after"] == 2
        assert all(state == "dead-lettered" for state in demo["states"].values())
        # Dead-lettered sagas are excused by the audit: their
        # incompleteness is explicitly parked, not silently stranded.
        assert demo["violations"] == []
        assert all("register" in entry for entry in demo["entries"])

    def test_requeue_finishes_the_rollback(self):
        demo = run_dlq_demo(seed=5, sagas=2, requeue=True)
        assert demo["parked"] == 2
        assert demo["pending_after"] == 0
        assert all(state == "compensated" for state in demo["states"].values())
        assert demo["violations"] == []

    def test_requeue_rejects_non_dead_lettered(self):
        system, services, _fleet = _deploy(seed=80)
        host, orchestrator = _orchestrator(system)
        saga = loan_saga(services)
        orchestrator.register(saga)
        _run(orchestrator, saga, dict(SOLVENT), saga_id="loan-live")
        process = host.spawn(orchestrator.requeue("loan-live"))
        with pytest.raises(WorkflowError, match="not dead-lettered"):
            system.env.run(until=process)


class _FakeService:
    def invoke(self, *args, **kwargs):
        raise NotImplementedError


class TestDefinitions:
    def test_duplicate_step_names_rejected(self):
        task = CompensableTask(
            name="dup", service=_FakeService(), operation="Op",
            input_mapping=lambda ctx: {},
        )
        with pytest.raises(WorkflowError, match="duplicate step name"):
            Saga(name="bad", steps=[task, task]).validate()

    def test_non_proxy_service_rejected(self):
        task = CompensableTask(
            name="raw", service=None, operation="Op",
            input_mapping=lambda ctx: {},
        )
        with pytest.raises(WorkflowError, match="proxy-backed"):
            Saga(name="bad", steps=[task]).validate()

    def test_read_only_step_needs_no_compensation(self):
        task = CompensableTask(
            name="lookup", service=_FakeService(), operation="Op",
            input_mapping=lambda ctx: {},
        )
        assert not task.mutating
