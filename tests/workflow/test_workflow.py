"""Tests for workflow composition, execution, and QoS prediction."""

import pytest

from repro.backend import (
    claim_assessment,
    claims_database,
    loan_approval,
    loans_database,
)
from repro.core import ScenarioConfig, WhisperSystem
from repro.qos import QosMetrics
from repro.workflow import (
    ExclusiveChoice,
    ParallelFlow,
    SequenceFlow,
    ServiceTask,
    WorkflowEngine,
    WorkflowError,
    predict_qos,
)
from repro.wsdl import bank_loans_wsdl, insurance_claims_wsdl


@pytest.fixture(scope="module")
def deployment():
    system = WhisperSystem(ScenarioConfig(seed=111))
    claims = system.deploy_service(
        insurance_claims_wsdl(),
        [claim_assessment(claims_database()) for _ in range(2)],
        group_name="wf-claims",
    )
    loans = system.deploy_service(
        bank_loans_wsdl(),
        [loan_approval(loans_database()) for _ in range(2)],
        group_name="wf-loans",
    )
    system.settle(6.0)
    return system, claims, loans


def _claim_task(claims, name="assess", output="assessment", claim_key="claim_id"):
    return ServiceTask(
        name=name,
        address=claims.address,
        path=claims.path,
        operation="ProcessClaim",
        input_mapping=lambda ctx: {"request": ctx[claim_key]},
        output_key=output,
    )


def _loan_task(loans, name="loan", output="decision"):
    return ServiceTask(
        name=name,
        address=loans.address,
        path=loans.path,
        operation="ApproveLoan",
        input_mapping=lambda ctx: {"request": ctx["loan_id"]},
        output_key=output,
    )


class TestExecution:
    def test_sequence_passes_context(self, deployment):
        system, claims, loans = deployment
        node = system.network.add_host(f"wf-host-{system.env.now}")
        engine = WorkflowEngine(node)
        workflow = SequenceFlow([_claim_task(claims), _loan_task(loans)])
        result = engine.run(workflow, {"claim_id": "C00001", "loan_id": "L00001"})
        assert result.succeeded, result.error
        assert result.context["assessment"]["claimId"] == "C00001"
        assert "approved" in result.context["decision"]
        assert [record.task for record in result.records] == ["assess", "loan"]

    def test_parallel_branches_concurrent(self, deployment):
        system, claims, loans = deployment
        node = system.network.add_host(f"wf-par-{system.env.now}")
        engine = WorkflowEngine(node)
        workflow = ParallelFlow([_claim_task(claims), _loan_task(loans)])
        result = engine.run(workflow, {"claim_id": "C00002", "loan_id": "L00002"})
        assert result.succeeded
        assert "assessment" in result.context
        assert "decision" in result.context
        # Concurrency: total elapsed is close to the slower branch, not the sum.
        assess = result.record_for("assess").elapsed
        loan = result.record_for("loan").elapsed
        assert result.elapsed < (assess + loan) * 0.95

    def test_choice_takes_matching_branch(self, deployment):
        system, claims, loans = deployment
        node = system.network.add_host(f"wf-choice-{system.env.now}")
        engine = WorkflowEngine(node)
        workflow = SequenceFlow([
            _claim_task(claims),
            ExclusiveChoice(
                branches=[
                    (
                        lambda ctx: ctx["assessment"]["assessment"] == "approve",
                        1.0,
                        _loan_task(loans, name="bridge-loan"),
                    ),
                ],
            ),
        ])
        result = engine.run(workflow, {"claim_id": "C00004", "loan_id": "L00004"})
        assert result.succeeded
        took_loan = result.record_for("bridge-loan") is not None
        approved = result.context["assessment"]["assessment"] == "approve"
        assert took_loan == approved

    def test_task_fault_fails_workflow(self, deployment):
        system, claims, _loans = deployment
        node = system.network.add_host(f"wf-fault-{system.env.now}")
        engine = WorkflowEngine(node)
        workflow = SequenceFlow([_claim_task(claims)])
        result = engine.run(workflow, {"claim_id": "C99999"})
        assert not result.succeeded
        assert "SoapFault" in result.error
        assert not result.record_for("assess").succeeded

    def test_parallel_failure_propagates(self, deployment):
        system, claims, loans = deployment
        node = system.network.add_host(f"wf-parfail-{system.env.now}")
        engine = WorkflowEngine(node)
        workflow = ParallelFlow([
            _claim_task(claims, name="good"),
            _claim_task(claims, name="bad", output="bad-out", claim_key="bad_claim"),
        ])
        result = engine.run(
            workflow, {"claim_id": "C00007", "bad_claim": "C99999"}
        )
        assert not result.succeeded


class TestValidation:
    def test_empty_sequence_rejected(self):
        with pytest.raises(WorkflowError):
            SequenceFlow([]).validate()

    def test_conflicting_parallel_outputs_rejected(self, deployment):
        _system, claims, _loans = deployment
        workflow = ParallelFlow([
            _claim_task(claims, name="a", output="same"),
            _claim_task(claims, name="b", output="same"),
        ])
        with pytest.raises(WorkflowError, match="both write"):
            workflow.validate()

    def test_choice_probabilities_must_cover(self, deployment):
        _system, claims, _loans = deployment
        choice = ExclusiveChoice(
            branches=[(lambda ctx: True, 0.5, _claim_task(claims))]
        )
        with pytest.raises(WorkflowError):
            choice.validate()


class TestParallelJoin:
    def test_runtime_conflicting_writes_fail_the_workflow(self, deployment):
        """Branches writing different values to one key is a data race
        the static output-key check cannot see — the join must refuse."""
        system, claims, _loans = deployment
        node = system.network.add_host(f"wf-join-{system.env.now}")
        engine = WorkflowEngine(node)

        def tagged_mapping(tag):
            def mapping(ctx):
                ctx["winner"] = tag
                return {"request": ctx["claim_id"]}
            return mapping

        workflow = ParallelFlow([
            ServiceTask(
                name="left", address=claims.address, path=claims.path,
                operation="ProcessClaim", input_mapping=tagged_mapping("L"),
                output_key="left-out",
            ),
            ServiceTask(
                name="right", address=claims.address, path=claims.path,
                operation="ProcessClaim", input_mapping=tagged_mapping("R"),
                output_key="right-out",
            ),
        ])
        result = engine.run(workflow, {"claim_id": "C00020"})
        assert not result.succeeded
        assert "conflicting values for 'winner'" in result.error

    def test_identical_writes_merge_cleanly(self, deployment):
        system, claims, _loans = deployment
        node = system.network.add_host(f"wf-merge-{system.env.now}")
        engine = WorkflowEngine(node)
        shared = {"note": "same object"}

        def write_shared(ctx):
            ctx["agreed"] = shared
            return {"request": ctx["claim_id"]}

        workflow = ParallelFlow([
            ServiceTask(
                name="left", address=claims.address, path=claims.path,
                operation="ProcessClaim", input_mapping=write_shared,
                output_key="left-out",
            ),
            ServiceTask(
                name="right", address=claims.address, path=claims.path,
                operation="ProcessClaim", input_mapping=write_shared,
                output_key="right-out",
            ),
        ])
        result = engine.run(workflow, {"claim_id": "C00021"})
        assert result.succeeded, result.error
        assert result.context["agreed"] is shared


class TestTaskRecords:
    def test_records_for_returns_every_occurrence(self, deployment):
        system, claims, _loans = deployment
        node = system.network.add_host(f"wf-records-{system.env.now}")
        engine = WorkflowEngine(node)
        poll = ServiceTask(
            name="poll", address=claims.address, path=claims.path,
            operation="ProcessClaim",
            input_mapping=lambda ctx: {"request": ctx["claim_id"]},
            output_key="assessment",
        )
        workflow = SequenceFlow([poll, poll, poll])
        result = engine.run(workflow, {"claim_id": "C00022"})
        assert result.succeeded
        records = result.records_for("poll")
        assert len(records) == 3
        assert [record.attempt for record in records] == [1, 2, 3]
        # record_for keeps its documented first-match contract.
        assert result.record_for("poll") is records[0]
        assert result.records_for("missing") == []


class TestProxyBackedTasks:
    def test_task_runs_through_the_proxy_pipeline(self, deployment):
        system, claims, _loans = deployment
        node = system.network.add_host(f"wf-proxy-{system.env.now}")
        engine = WorkflowEngine(node)
        workflow = SequenceFlow([
            ServiceTask(
                name="assess", service=claims, operation="ProcessClaim",
                input_mapping=lambda ctx: {"request": ctx["claim_id"]},
                output_key="assessment", timeout=2.0, budget=8.0,
            ),
        ])
        result = engine.run(workflow, {"claim_id": "C00030"})
        assert result.succeeded, result.error
        record = result.record_for("assess")
        assert record.invocation_id is not None
        assert record.outcome == "ok"
        assert record.attempts == 1
        assert not record.deduped

    def test_terminal_fault_is_structured(self, deployment):
        system, claims, _loans = deployment
        node = system.network.add_host(f"wf-proxyfault-{system.env.now}")
        engine = WorkflowEngine(node)
        workflow = SequenceFlow([
            ServiceTask(
                name="assess", service=claims, operation="ProcessClaim",
                input_mapping=lambda ctx: {"request": "C99999"},
                output_key="assessment", timeout=2.0, budget=8.0,
            ),
        ])
        result = engine.run(workflow, {"claim_id": "C99999"})
        assert not result.succeeded
        assert result.error.startswith("SoapFault[")
        assert not result.record_for("assess").succeeded

    def test_deadline_exhaustion_is_structured(self):
        """A proxy-level terminal outcome (deadline exceeded against a
        dead group) lands in ``result.error``, not an escaped exception."""
        system = WhisperSystem(ScenarioConfig(seed=112, replicas=2))
        claims = system.deploy_service(
            insurance_claims_wsdl(),
            [claim_assessment(claims_database()) for _ in range(2)],
            group_name="wf-dead-claims",
        )
        system.settle(6.0)
        for peer in claims.group.peers:
            system.failures.crash_at(system.env.now + 0.01, peer.node.name)
        node = system.network.add_host("wf-deadline")
        engine = WorkflowEngine(node)
        workflow = SequenceFlow([
            ServiceTask(
                name="assess", service=claims, operation="ProcessClaim",
                input_mapping=lambda ctx: {"request": ctx["claim_id"]},
                output_key="assessment", timeout=0.5, budget=1.5,
            ),
        ])
        result = engine.run(workflow, {"claim_id": "C00031"})
        assert not result.succeeded
        assert "deadline exhausted" in result.error
        record = result.record_for("assess")
        assert record.error == result.error
        assert not record.succeeded


class TestPrediction:
    T1 = QosMetrics(time=1.0, cost=1.0, reliability=0.9)
    T2 = QosMetrics(time=2.0, cost=2.0, reliability=0.8)

    def _task(self, name):
        return ServiceTask(
            name=name, address=("h", 80), path="/s", operation="Op",
            input_mapping=lambda ctx: {},
        )

    def test_sequence_prediction(self):
        workflow = SequenceFlow([self._task("a"), self._task("b")])
        predicted = predict_qos(workflow, {"a": self.T1, "b": self.T2})
        assert predicted.time == 3.0
        assert predicted.reliability == pytest.approx(0.72)

    def test_parallel_prediction(self):
        workflow = ParallelFlow([self._task("a"), self._task("b")])
        predicted = predict_qos(workflow, {"a": self.T1, "b": self.T2})
        assert predicted.time == 2.0

    def test_choice_prediction_weighted(self):
        workflow = ExclusiveChoice(
            branches=[
                (lambda ctx: True, 0.25, self._task("a")),
                (lambda ctx: True, 0.75, self._task("b")),
            ]
        )
        predicted = predict_qos(workflow, {"a": self.T1, "b": self.T2})
        assert predicted.time == pytest.approx(0.25 * 1 + 0.75 * 2)

    def test_missing_metrics_rejected(self):
        with pytest.raises(WorkflowError, match="no QoS metrics"):
            predict_qos(self._task("ghost"), {})

    def test_prediction_tracks_measurement(self, deployment):
        """Predicted sequence time is of the same order as measured."""
        system, claims, loans = deployment
        node = system.network.add_host(f"wf-predict-{system.env.now}")
        engine = WorkflowEngine(node)
        workflow = SequenceFlow([_claim_task(claims), _loan_task(loans)])
        per_task = QosMetrics(time=0.01, cost=1.0, reliability=0.999)
        predicted = predict_qos(workflow, {"assess": per_task, "loan": per_task})
        result = engine.run(workflow, {"claim_id": "C00010", "loan_id": "L00010"})
        assert result.succeeded
        assert result.elapsed < predicted.time * 3
        assert result.elapsed > predicted.time * 0.1
