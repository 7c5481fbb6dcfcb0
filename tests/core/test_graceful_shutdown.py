"""Graceful shutdown vs. crash: planned maintenance is fast."""

import pytest

from repro.core import ScenarioConfig, WhisperSystem
from repro.core.bpeer import ExecRequest
from repro.soap import RequestTimeout, SoapFault


def _timed_call(system, service, client, student):
    node, soap = client
    outcome = {}
    started = system.env.now

    def caller():
        try:
            outcome["value"] = yield from soap.call(
                service.address, service.path, "StudentInformation",
                {"ID": student}, timeout=120.0,
            )
        except (SoapFault, RequestTimeout) as error:
            outcome["error"] = error

    system.env.run(until=node.spawn(caller()))
    outcome["elapsed"] = system.env.now - started
    return outcome


class TestGracefulShutdown:
    def test_handoff_elects_successor_quickly(self):
        system = WhisperSystem(ScenarioConfig(seed=141))
        service = system.deploy_student_service(system.config.replace(replicas=3))
        system.settle(6.0)
        old = service.group.coordinator_peer()
        old.shutdown()
        system.settle(3.0)  # an election, not a detection period
        new = service.group.coordinator_peer()
        assert new is not None
        assert new is not old
        # Survivors agree.
        alive = [p for p in service.group.peers if p is not old]
        assert {p.coordinator for p in alive} == {new.peer_id}

    def test_shutdown_peer_no_longer_member(self):
        system = WhisperSystem(ScenarioConfig(seed=142))
        service = system.deploy_student_service(system.config.replace(replicas=3))
        system.settle(6.0)
        victim = service.group.coordinator_peer()
        victim.shutdown()
        system.settle(2.0)
        survivors = [p for p in service.group.peers if p is not victim]
        for peer in survivors:
            assert victim.peer_id not in peer.groups.members(peer.group_id)

    def test_graceful_much_faster_than_crash(self):
        def failover_elapsed(graceful: bool) -> float:
            system = WhisperSystem(ScenarioConfig(seed=143))
            service = system.deploy_student_service(system.config.replace(replicas=3))
            system.settle(6.0)
            client = system.add_client("maint-client")
            _timed_call(system, service, client, "S00001")  # bind
            victim = service.group.coordinator_peer()
            if graceful:
                victim.shutdown()
            else:
                victim.node.crash()
            outcome = _timed_call(system, service, client, "S00002")
            assert "value" in outcome, outcome
            return outcome["elapsed"]

        graceful = failover_elapsed(graceful=True)
        crash = failover_elapsed(graceful=False)
        assert graceful < 3.0, f"graceful handoff took {graceful}s"
        assert crash > 3.0, f"crash failover took only {crash}s"
        assert graceful < crash / 2

    def test_requests_flow_to_successor(self):
        system = WhisperSystem(ScenarioConfig(seed=144))
        service = system.deploy_student_service(system.config.replace(replicas=3))
        system.settle(6.0)
        client = system.add_client("flow-client")
        _timed_call(system, service, client, "S00001")
        old = service.group.coordinator_peer()
        old.shutdown()
        outcome = _timed_call(system, service, client, "S00002")
        assert outcome["value"]["studentId"] == "S00002"
        new = service.group.coordinator_peer()
        assert new.requests_executed >= 1
        # The departed peer served nothing after shutdown.
        executed_before = old.requests_executed
        _timed_call(system, service, client, "S00003")
        assert old.requests_executed == executed_before

    def test_rolling_maintenance_all_replicas(self):
        """Shut down and restart each replica in turn; service never lost."""
        system = WhisperSystem(ScenarioConfig(seed=145))
        service = system.deploy_student_service(system.config.replace(replicas=3))
        system.settle(6.0)
        client = system.add_client("rolling-client")
        for index, peer in enumerate(list(service.group.peers)):
            peer.shutdown()
            system.settle(3.0)
            outcome = _timed_call(system, service, client, f"S{index + 1:05d}")
            assert "value" in outcome, (index, outcome)
            # Bring it back (rejoin via start).
            peer.start(system.rendezvous)
            system.settle(3.0)

    def test_shutdown_answers_retries_parked_behind_an_in_flight_call(self):
        """A planned leave answers every parked retry ``busy`` — so its
        proxy retries at the successor at once instead of waiting out its
        per-attempt timeout — not only the ones gated behind the sync."""
        system = WhisperSystem(ScenarioConfig(seed=146, replicas=3))
        service = system.deploy_enrollment_service()
        system.settle(6.0)
        peer = service.group.coordinator_peer()
        replies = []
        peer._reply = lambda request, reply: replies.append(reply)
        retry = ExecRequest(
            request_id=9,
            group_id=peer.group_id,
            operation="EnrollStudent",
            arguments={"ID": "S00001", "course": "X1"},
            reply_to=peer.peer_id,
            reply_addr=peer.endpoint.address,
            invocation_id="maint#1",
            attempt=2,
        )
        peer.journal.begin(retry.invocation_id, origin=peer.peer_id)  # in flight
        assert peer._park_if_in_flight(retry)
        peer.shutdown()
        assert [(r.kind, r.invocation_id) for r in replies] == [("busy", "maint#1")]
