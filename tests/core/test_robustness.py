"""Robustness integration tests: lossy networks and partitions.

Whisper under harder network conditions than the paper's LAN: the
message-loss and partition tolerance its retry/re-announce machinery
provides.
"""

import pytest

from repro.core import ScenarioConfig, WhisperSystem
from repro.soap import RequestTimeout, SoapFault


def _call(system, service, arguments, client, timeout=60.0, retries=0):
    """One call through the SOAP front end; the caller re-issues it up to
    ``retries`` times after a timeout (the client↔web-server hop is a
    datagram, and a lost one is the caller's to re-send)."""
    node, soap = client
    outcome = {}

    def caller():
        for _ in range(retries + 1):
            try:
                outcome["value"] = yield from soap.call(
                    service.address, service.path, "StudentInformation", arguments,
                    timeout=timeout,
                )
                return
            except RequestTimeout as error:
                outcome["error"] = error
            except SoapFault as error:
                outcome["error"] = error
                return

    system.env.run(until=node.spawn(caller()))
    return outcome


class TestMessageLoss:
    def test_service_survives_moderate_loss(self):
        """10% uniform message loss: heartbeats, renewals, and proxy
        retries absorb it."""
        system = WhisperSystem(ScenarioConfig(seed=81))
        service = system.deploy_student_service(system.config.replace(replicas=3))
        system.settle(6.0)
        system.network.loss_rate = 0.10
        client = system.add_client("lossy-client")
        successes = 0
        for index in range(10):
            outcome = _call(
                system, service, {"ID": f"S{index + 1:05d}"}, client,
                timeout=10.0, retries=2,
            )
            if "value" in outcome:
                successes += 1
        assert successes == 10

    def test_loss_during_failover_still_recovers(self):
        system = WhisperSystem(ScenarioConfig(seed=82, heartbeat_interval=0.5, miss_threshold=2))
        service = system.deploy_student_service(system.config.replace(replicas=4))
        system.settle(6.0)
        client = system.add_client("lossy-failover-client")
        _call(system, service, {"ID": "S00001"}, client)
        system.network.loss_rate = 0.10
        service.group.crash_coordinator()
        outcome = _call(
            system, service, {"ID": "S00002"}, client, timeout=120.0, retries=2
        )
        assert "value" in outcome

    def test_total_loss_means_silence(self):
        system = WhisperSystem(ScenarioConfig(seed=83))
        service = system.deploy_student_service(system.config.replace(replicas=2))
        system.settle(6.0)
        system.network.loss_rate = 1.0
        client = system.add_client("dead-net-client")
        outcome = _call(system, service, {"ID": "S00001"}, client, timeout=2.0)
        assert isinstance(outcome["error"], RequestTimeout)


class TestPartitions:
    def test_partitioned_bpeers_recover_after_heal(self):
        system = WhisperSystem(ScenarioConfig(seed=84, heartbeat_interval=0.5, miss_threshold=2))
        service = system.deploy_student_service(system.config.replace(replicas=3))
        system.settle(6.0)
        client = system.add_client("partition-client")
        _call(system, service, {"ID": "S00001"}, client)
        # Cut the b-peers (and rendezvous side) off from the web server.
        bpeer_hosts = [peer.node.name for peer in service.group.peers]
        other_hosts = [
            name for name in system.network.hosts if name not in bpeer_hosts
        ]
        handle = system.network.partition(bpeer_hosts, other_hosts)
        outcome = _call(system, service, {"ID": "S00002"}, client, timeout=5.0)
        assert "error" in outcome  # unreachable during the partition
        system.network.heal_partition(handle)
        system.settle(15.0)  # leases, renewals, and elections recover
        outcome = _call(system, service, {"ID": "S00003"}, client, timeout=60.0)
        assert "value" in outcome

    def test_minority_partition_of_group_masked(self):
        """One b-peer cut off: the rest of the group keeps serving."""
        system = WhisperSystem(ScenarioConfig(seed=85, heartbeat_interval=0.5, miss_threshold=2))
        service = system.deploy_student_service(system.config.replace(replicas=4))
        system.settle(6.0)
        client = system.add_client("minority-client")
        _call(system, service, {"ID": "S00001"}, client)
        isolated = service.group.peers[0].node.name
        everyone_else = [
            name for name in system.network.hosts if name != isolated
        ]
        system.network.partition([isolated], everyone_else)
        outcome = _call(system, service, {"ID": "S00002"}, client, timeout=60.0)
        assert "value" in outcome
