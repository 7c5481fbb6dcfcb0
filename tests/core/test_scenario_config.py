"""Tests for ScenarioConfig: the one place deploy/workload knobs live."""

import dataclasses

import pytest

from repro.check import CheckScenario, Schedule
from repro.core import (
    InvokeOutcome,
    InvokeResult,
    ScenarioConfig,
    UnsupportedScenarioError,
    WhisperError,
    WhisperSystem,
)
from repro.core.autoscale import AutoscaleSpec
from repro.core.topology import Topology


class TestScenarioConfig:
    def test_replace_returns_modified_copy(self):
        base = ScenarioConfig(seed=7)
        tuned = base.replace(replicas=8, queue_bound=4)
        assert tuned.replicas == 8
        assert tuned.queue_bound == 4
        assert tuned.seed == 7
        assert base.replicas == 4  # original untouched

    def test_config_is_frozen(self):
        config = ScenarioConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = 9


class TestLegacyShims:
    """Deployment takes a config object and nothing else (the class keeps
    its name because the suite's test ids are pinned)."""

    def test_deploy_student_service_unknown_kwarg_raises(self):
        """The scattered-kwargs shim is gone: a knob passed as a keyword
        (known to ScenarioConfig or not) is an ordinary TypeError."""
        with pytest.raises(TypeError, match="unexpected keyword"):
            WhisperSystem(seed=11)
        system = WhisperSystem(ScenarioConfig(seed=61))
        with pytest.raises(TypeError, match="unexpected keyword"):
            system.deploy_student_service(replicas=2)
        with pytest.raises(TypeError, match="unexpected keyword"):
            system.deploy_student_service(replica_count=2)

    def test_config_object_is_the_new_path(self):
        """The redesigned API takes a config and emits no warnings."""
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            system = WhisperSystem(ScenarioConfig(seed=62, replicas=2))
            service = system.deploy_student_service()
        assert len(service.group.peers) == 2
        assert service.proxy.request_timeout == system.config.request_timeout

    def test_deploy_config_reaches_proxy_budgets(self):
        system = WhisperSystem(ScenarioConfig(seed=63))
        service = system.deploy_student_service(
            system.config.replace(
                replicas=2, request_timeout=0.7, max_attempts=3, deadline_budget=9.0
            )
        )
        proxy = service.proxy
        assert proxy.request_timeout == 0.7
        assert proxy.max_attempts == 3
        assert proxy.deadline_budget == 9.0

    def test_settle_default_comes_from_config(self):
        system = WhisperSystem(ScenarioConfig(seed=64, settle=1.5))
        before = system.env.now
        system.settle()
        assert system.env.now - before == pytest.approx(1.5)


class TestInvokeResult:
    def test_result_is_frozen(self):
        result = InvokeResult(
            value={"x": 1}, outcome=InvokeOutcome.OK, epoch=None,
            attempts=1, duration=0.01, trace_id=5,
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.attempts = 2

    def test_recovered_property_tracks_outcome(self):
        kwargs = dict(value=None, epoch=None, attempts=2, duration=0.1, trace_id=1)
        assert InvokeResult(outcome=InvokeOutcome.RECOVERED, **kwargs).recovered
        assert not InvokeResult(outcome=InvokeOutcome.OK, **kwargs).recovered
        assert not InvokeResult(
            outcome=InvokeOutcome.RETRIED_AFTER_SHED, **kwargs
        ).recovered

    def test_invoke_returns_typed_result(self):
        system = WhisperSystem(ScenarioConfig(seed=65, replicas=2))
        service = system.deploy_student_service()
        system.settle()
        outcome = {}

        def runner():
            outcome["result"] = yield from service.proxy.invoke(
                "StudentInformation", {"ID": "S00001"}
            )

        system.env.run(until=service.proxy.node.spawn(runner()))
        result = outcome["result"]
        assert isinstance(result, InvokeResult)
        assert result.value["studentId"] == "S00001"
        assert result.outcome is InvokeOutcome.OK
        assert result.attempts == 1
        assert result.shed_retries == 0
        assert result.epoch is not None
        assert result.duration > 0
        assert isinstance(result.trace_id, int)

    def test_deployed_service_invoke_wraps_proxy(self):
        system = WhisperSystem(ScenarioConfig(seed=66, replicas=2))
        service = system.deploy_student_service()
        system.settle()
        outcome = {}

        def runner():
            outcome["result"] = yield from service.invoke(
                "StudentInformation", {"ID": "S00002"}
            )

        system.env.run(until=service.proxy.node.spawn(runner()))
        assert outcome["result"].value["studentId"] == "S00002"
        assert outcome["result"].outcome is InvokeOutcome.OK


class TestUnsupportedCombinations:
    """One function says which combinations no deployment supports
    (``ScenarioConfig.check_supported``), with one typed error, whichever
    door the scenario comes in by."""

    MESH = Topology.mesh(["r0", "r1"])
    CASES = {
        "shards<1": (dict(shards=0), dict(shards=0)),
        "queue_bound<1": (dict(queue_bound=0), dict(queue_bound=0)),
        "sharded x multi-region": (
            dict(shards=2, topology=MESH),
            dict(shards=2, regions=2),
        ),
        "autoscale x sharded": (
            dict(shards=2, autoscale=AutoscaleSpec()),
            dict(capacity=True, shards=2),
        ),
        "autoscale x multi-region": (
            dict(autoscale=AutoscaleSpec(), topology=MESH),
            dict(capacity=True, regions=2),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_each_raises_the_typed_error_from_both_entry_points(self, case):
        config_fields, check_fields = self.CASES[case]
        config = ScenarioConfig(seed=1, replicas=2, **config_fields)
        for deploy in ("deploy_student_service", "deploy_enrollment_service"):
            with pytest.raises(UnsupportedScenarioError):
                getattr(WhisperSystem(config), deploy)()
        with pytest.raises(UnsupportedScenarioError):
            CheckScenario(**check_fields).run(Schedule(label="unsupported"))

    def test_the_typed_error_is_a_whisper_error_and_a_value_error(self):
        assert issubclass(UnsupportedScenarioError, WhisperError)
        assert issubclass(UnsupportedScenarioError, ValueError)
