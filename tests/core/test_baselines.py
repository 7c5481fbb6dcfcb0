"""Tests for the client-side failover baseline (``benchmarks/baselines.py``)."""

import pytest

from benchmarks.baselines import FailoverSoapClient, ReplicatedPlainService
from repro.backend import student_database, student_lookup_operational
from repro.core import ScenarioConfig, WhisperSystem
from repro.soap import RequestTimeout, SoapFault


@pytest.fixture
def deployment():
    system = WhisperSystem(ScenarioConfig(seed=41))
    replicated = ReplicatedPlainService(
        system,
        "StudentManagement",
        [student_lookup_operational(student_database()) for _ in range(3)],
    )
    system.settle(1.0)
    node = system.network.add_host("stub-client")
    client = FailoverSoapClient(
        node, replicated.endpoints, replicated.path, per_endpoint_timeout=1.0
    )
    return system, replicated, node, client


def _call(system, node, client, arguments, operation="StudentInformation"):
    outcome = {}

    def caller():
        try:
            outcome["value"] = yield from client.call(operation, arguments)
        except (RequestTimeout, SoapFault) as error:
            outcome["error"] = error

    system.env.run(until=node.spawn(caller()))
    return outcome


class TestFailoverClient:
    def test_happy_path_uses_first_endpoint(self, deployment):
        system, replicated, node, client = deployment
        outcome = _call(system, node, client, {"ID": "S00001"})
        assert outcome["value"]["studentId"] == "S00001"
        assert client.failovers == 0

    def test_fails_over_to_next_replica(self, deployment):
        system, replicated, node, client = deployment
        replicated.hosts()[0].crash()
        outcome = _call(system, node, client, {"ID": "S00002"})
        assert outcome["value"]["studentId"] == "S00002"
        assert client.failovers == 1

    def test_sticks_with_working_replica(self, deployment):
        system, replicated, node, client = deployment
        replicated.hosts()[0].crash()
        _call(system, node, client, {"ID": "S00001"})
        failovers_after_first = client.failovers
        _call(system, node, client, {"ID": "S00002"})
        assert client.failovers == failovers_after_first  # no re-probe of dead one

    def test_all_replicas_down_raises(self, deployment):
        system, replicated, node, client = deployment
        for host in replicated.hosts():
            host.crash()
        outcome = _call(system, node, client, {"ID": "S00001"})
        assert isinstance(outcome["error"], RequestTimeout)
        assert client.failovers == 3

    def test_application_faults_not_retried(self, deployment):
        system, replicated, node, client = deployment
        outcome = _call(system, node, client, {"ID": "S99999"})
        assert isinstance(outcome["error"], SoapFault)
        assert client.failovers == 0

    def test_failover_latency_is_one_timeout(self, deployment):
        """Client-side failover pays one per-endpoint timeout — faster than
        Whisper's detection+election, but at the price of every client
        knowing the replica set (no transparency)."""
        system, replicated, node, client = deployment
        _call(system, node, client, {"ID": "S00001"})
        replicated.hosts()[0].crash()
        # Force the stub back to the dead endpoint.
        client._preferred = 0
        started = system.env.now
        outcome = _call(system, node, client, {"ID": "S00002"})
        elapsed = system.env.now - started
        assert "value" in outcome
        assert 1.0 <= elapsed < 2.0  # ~ the 1s per-endpoint timeout

    def test_requires_endpoints(self, deployment):
        system, _replicated, node, _client = deployment
        with pytest.raises(ValueError):
            FailoverSoapClient(node, [], "/x")
