"""Focused unit tests for b-peer behaviours."""

import pytest

from repro.core import ScenarioConfig, WhisperSystem
from repro.core.bpeer import COORD_HANDLER, PROTO_EXEC, ExecReply, ExecRequest


@pytest.fixture
def system():
    return WhisperSystem(ScenarioConfig(seed=61))


@pytest.fixture
def deployed(system):
    service = system.deploy_student_service(system.config.replace(replicas=3))
    system.settle(6.0)
    return service


def _send_exec(system, deployed, target_peer, operation="StudentInformation",
               arguments=None, request_id=1):
    """Send a raw ExecRequest from a scratch peer; returns replies seen."""
    from repro.p2p import Peer

    node = system.network.add_host(f"raw-client-{request_id}")
    requester = Peer(node)
    requester.attach_to(system.rendezvous)
    replies = []
    requester.endpoint.register_listener(
        "whisper:exec-reply", lambda message: replies.append(message.payload)
    )
    requester.learn_route_to(target_peer)
    request = ExecRequest(
        request_id=request_id,
        group_id=deployed.group.group_id,
        operation=operation,
        arguments=arguments if arguments is not None else {"ID": "S00001"},
        reply_to=requester.peer_id,
        reply_addr=requester.endpoint.address,
        invocation_id=f"raw#{request_id}",
    )
    requester.endpoint.send(target_peer.peer_id, PROTO_EXEC, request)
    system.settle(1.0)
    return replies


class TestRequestHandling:
    def test_coordinator_executes(self, system, deployed):
        coordinator = deployed.group.coordinator_peer()
        replies = _send_exec(system, deployed, coordinator)
        assert len(replies) == 1
        assert replies[0].kind == "result"
        assert replies[0].value["studentId"] == "S00001"
        assert coordinator.requests_executed == 1

    def test_non_coordinator_redirects(self, system, deployed):
        coordinator_id = deployed.group.coordinator_id()
        follower = next(
            peer for peer in deployed.group.peers if peer.peer_id != coordinator_id
        )
        replies = _send_exec(system, deployed, follower, request_id=2)
        assert len(replies) == 1
        assert replies[0].kind == "not-coordinator"
        assert replies[0].coordinator[0] == coordinator_id
        assert follower.requests_redirected == 1

    def test_wrong_group_ignored(self, system, deployed):
        from repro.p2p import PeerGroupId

        coordinator = deployed.group.coordinator_peer()
        node = system.network.add_host("wrong-group-client")
        from repro.p2p import Peer

        requester = Peer(node)
        requester.learn_route_to(coordinator)
        replies = []
        requester.endpoint.register_listener(
            "whisper:exec-reply", lambda message: replies.append(message.payload)
        )
        request = ExecRequest(
            request_id=9,
            group_id=PeerGroupId.from_name("another-group"),
            operation="StudentInformation",
            arguments={"ID": "S00001"},
            reply_to=requester.peer_id,
            reply_addr=requester.endpoint.address,
            invocation_id="raw#9",
        )
        requester.endpoint.send(coordinator.peer_id, PROTO_EXEC, request)
        system.settle(1.0)
        assert replies == []

    def test_unknown_record_is_client_fault_reply(self, system, deployed):
        coordinator = deployed.group.coordinator_peer()
        replies = _send_exec(
            system, deployed, coordinator, arguments={"ID": "S99999"}, request_id=3
        )
        assert replies[0].kind == "fault"
        assert replies[0].fault_code == "Client"

    def test_missing_argument_is_client_fault_reply(self, system, deployed):
        coordinator = deployed.group.coordinator_peer()
        replies = _send_exec(
            system, deployed, coordinator, arguments={}, request_id=4
        )
        assert replies[0].kind == "fault"
        assert replies[0].fault_code == "Client"

    def test_requests_serialised_by_worker(self, system, deployed):
        """The worker serves one request at a time (single-threaded peer):
        two simultaneous requests complete at distinct times separated by
        at least the service time."""
        coordinator = deployed.group.coordinator_peer()
        from repro.p2p import Peer

        node = system.network.add_host("burst-client")
        requester = Peer(node)
        requester.learn_route_to(coordinator)
        done_times = []
        requester.endpoint.register_listener(
            "whisper:exec-reply",
            lambda message: done_times.append(system.env.now),
        )
        for request_id in (11, 12):
            request = ExecRequest(
                request_id=request_id,
                group_id=deployed.group.group_id,
                operation="StudentInformation",
                arguments={"ID": "S00001"},
                reply_to=requester.peer_id,
                reply_addr=requester.endpoint.address,
                invocation_id=f"raw#{request_id}",
            )
            requester.endpoint.send(coordinator.peer_id, PROTO_EXEC, request)
        system.settle(1.0)
        assert len(done_times) == 2
        service_time = coordinator.implementation.service_time
        assert done_times[1] - done_times[0] >= service_time * 0.9


class TestDelegation:
    def test_backend_down_delegates(self, system, deployed):
        coordinator = deployed.group.coordinator_peer()
        coordinator.implementation.backend.fail()
        replies = _send_exec(system, deployed, coordinator, request_id=5)
        assert replies[0].kind == "result"
        assert coordinator.requests_delegated == 1
        assert coordinator.requests_executed == 0

    def test_all_backends_down_cannot_serve(self, system, deployed):
        for peer in deployed.group.peers:
            peer.implementation.backend.fail()
        coordinator = deployed.group.coordinator_peer()
        replies = _send_exec(system, deployed, coordinator, request_id=6)
        assert replies[0].kind == "cannot-serve"

    def test_delegation_prefers_first_alive_member(self, system, deployed):
        coordinator = deployed.group.coordinator_peer()
        coordinator.implementation.backend.fail()
        _send_exec(system, deployed, coordinator, request_id=7)
        served = [
            peer for peer in deployed.group.peers
            if peer is not coordinator and peer.requests_executed > 0
        ]
        assert len(served) == 1


class TestCoordinatorQuery:
    def test_members_answer_coordinator_query(self, system, deployed):
        from repro.p2p import Peer

        node = system.network.add_host("coord-query-client")
        requester = Peer(node)
        requester.attach_to(system.rendezvous)
        system.settle(0.5)
        answers = []
        requester.resolver.send_query(
            COORD_HANDLER,
            deployed.group.group_id,
            on_response=lambda response: answers.append(response.payload),
        )
        system.settle(0.5)
        assert answers
        coordinator_ids = {peer_id for peer_id, _addr, _epoch in answers}
        assert coordinator_ids == {deployed.group.coordinator_id()}
        epochs = {epoch for _peer_id, _addr, epoch in answers}
        assert len(epochs) == 1  # every member answers with the same term
        assert epochs.pop().counter >= 1

    def test_other_groups_do_not_answer(self, system, deployed):
        from repro.p2p import Peer, PeerGroupId

        node = system.network.add_host("other-query-client")
        requester = Peer(node)
        requester.attach_to(system.rendezvous)
        system.settle(0.5)
        answers = []
        requester.resolver.send_query(
            COORD_HANDLER,
            PeerGroupId.from_name("nonexistent"),
            on_response=lambda response: answers.append(response.payload),
        )
        system.settle(0.5)
        assert answers == []
