"""Tests for the workload generators against a live Whisper deployment."""

import pytest

from repro.bench import (
    ClosedLoopWorkload,
    PoissonWorkload,
    ProbeWorkload,
    student_arguments,
)
from repro.core import ScenarioConfig, WhisperSystem


@pytest.fixture
def deployment():
    system = WhisperSystem(ScenarioConfig(seed=21))
    service = system.deploy_student_service(system.config.replace(replicas=3))
    system.settle(6.0)
    return system, service


class TestClosedLoop:
    def test_all_requests_complete(self, deployment):
        system, service = deployment
        workload = ClosedLoopWorkload(
            system, service.address, service.path, "StudentInformation",
            clients=2, think_time=0.02, requests_per_client=5,
        )
        result = workload.run()
        assert result.requests == 10
        assert result.availability == 1.0
        assert len(result.latencies) == 10

    def test_latency_summary(self, deployment):
        system, service = deployment
        workload = ClosedLoopWorkload(
            system, service.address, service.path, "StudentInformation",
            clients=1, think_time=0.0, requests_per_client=5,
        )
        result = workload.run()
        summary = result.latency_summary()
        assert 0 < summary.mean < 0.1
        assert summary.count == 5

    def test_throughput_positive(self, deployment):
        system, service = deployment
        workload = ClosedLoopWorkload(
            system, service.address, service.path, "StudentInformation",
            clients=2, think_time=0.01, requests_per_client=5,
        )
        result = workload.run()
        assert result.throughput > 0
        assert result.duration > 0

    def test_faults_counted_not_raised(self, deployment):
        system, service = deployment
        workload = ClosedLoopWorkload(
            system, service.address, service.path, "StudentInformation",
            clients=1, think_time=0.0, requests_per_client=4,
            arguments=lambda index: {"ID": "S99999"},  # unknown student
        )
        result = workload.run()
        assert result.faults == 4
        assert result.availability == 0.0


class TestPoisson:
    def test_open_loop_generates_load(self, deployment):
        system, service = deployment
        workload = PoissonWorkload(
            system, service.address, service.path, "StudentInformation",
            rate=100.0, duration=2.0,
        )
        result = workload.run()
        # ~200 expected; loose bounds for the Poisson draw.
        assert 120 < result.requests < 300
        assert result.availability == 1.0

    def test_rate_zero_rejected(self, deployment):
        system, service = deployment
        with pytest.raises(ValueError):
            PoissonWorkload(
                system, service.address, service.path, "StudentInformation",
                rate=0.0,
            )

    def test_deterministic_given_seed(self):
        def run_once():
            system = WhisperSystem(ScenarioConfig(seed=33))
            service = system.deploy_student_service(system.config.replace(replicas=2))
            system.settle(6.0)
            workload = PoissonWorkload(
                system, service.address, service.path, "StudentInformation",
                rate=50.0, duration=1.0,
            )
            result = workload.run()
            return result.requests, round(sum(result.latencies), 9)

        assert run_once() == run_once()


class TestProbes:
    """The fixed-period open-loop prober (availability, baselines, campaign)."""

    def _prober(self, deployment, call=None, **kwargs):
        system, service = deployment
        node, soap = system.add_client("probe-client", timeout=2.0)

        def lookup(sequence):
            return soap.call(
                service.address, service.path, "StudentInformation",
                student_arguments(sequence), timeout=2.0,
            )

        return ProbeWorkload(system, node, call or lookup, **kwargs)

    def test_one_probe_per_period_all_answered(self, deployment):
        result = self._prober(deployment, period=0.5, duration=5.0).run()
        assert result.requests == 10
        assert result.availability == 1.0
        assert len(result.latencies) == 10

    def test_probes_leave_on_time_while_the_service_is_down(self, deployment):
        """Open loop: a dead group slows no probe's departure, and every
        probe is drained (counted) before ``run`` returns."""
        system, service = deployment
        for peer in service.group.peers:
            peer.node.crash()
        result = self._prober(deployment, period=0.5, duration=5.0).run()
        assert result.requests == 10
        assert result.successes == 0
        assert result.faults + result.timeouts == 10

    def test_a_bug_in_the_stack_fails_the_run_instead_of_counting(self, deployment):
        """Only what a call can raise is an outcome; at the parent the
        CLI's prober swallowed ``Exception`` and read this as downtime."""

        def buggy(sequence):
            yield deployment[0].env.timeout(0.01)
            raise RuntimeError("bug in the stack")

        prober = self._prober(deployment, call=buggy, period=0.5, duration=2.0)
        with pytest.raises(RuntimeError, match="bug in the stack"):
            prober.run()
        assert prober.result.requests == 0

    def test_period_must_be_positive(self, deployment):
        with pytest.raises(ValueError):
            self._prober(deployment, period=0.0)
