"""Edge cases across the P2P stack."""

import pytest

from repro.p2p import Peer, PeerGroupId, SemanticAdvertisement


class TestDisconnectedPeer:
    def test_publish_remote_without_lease_is_local_only(self, env, network):
        """An unconnected peer can still publish locally; the SRDI push is
        silently skipped (nothing to push to)."""
        lonely = Peer(network.add_host("lonely"))
        advertisement = SemanticAdvertisement(
            group_id=PeerGroupId.from_name("g"), name="g"
        )
        lonely.discovery.publish(advertisement, remote=True)  # must not raise
        env.run(until=0.2)
        local = lonely.discovery.get_local_advertisements(SemanticAdvertisement)
        assert [a.name for a in local] == ["g"]

    def test_propagate_without_rendezvous_is_local_only(self, env, network):
        lonely = Peer(network.add_host("lonely"))
        got = []
        lonely.rendezvous.register_propagate_listener(
            "x", lambda payload, origin: got.append(payload)
        )
        lonely.rendezvous.propagate("x", "hello")
        env.run(until=0.2)
        assert got == ["hello"]  # loopback only; no crash

    def test_group_join_without_rendezvous(self, env, network):
        lonely = Peer(network.add_host("lonely"))
        group_id = PeerGroupId.from_name("solo")
        lonely.groups.join(group_id, "solo")
        env.run(until=0.5)
        assert lonely.groups.is_member(group_id)
        assert lonely.groups.members(group_id) == {lonely.peer_id}


class TestSingleMemberGroup:
    def test_single_member_elects_itself(self, env, p2p):
        from repro.election import GroupCoordinator

        _rendezvous, edges = p2p
        group_id = PeerGroupId.from_name("singleton")
        edges[0].groups.join(group_id, "singleton")
        coordinator = GroupCoordinator(edges[0].groups, group_id)
        coordinator.bootstrap()
        env.run(until=env.now + 2.0)
        assert coordinator.is_coordinator
        assert not coordinator.monitor.active  # nobody to monitor

    def test_survivor_of_crashes_takes_over(self, env, p2p):
        from repro.election import GroupCoordinator

        _rendezvous, edges = p2p
        group_id = PeerGroupId.from_name("attrition")
        coordinators = []
        for edge in edges[:3]:
            edge.groups.join(group_id, "attrition")
        env.run(until=env.now + 1.0)
        for edge in edges[:3]:
            coordinators.append(
                GroupCoordinator(
                    edge.groups, group_id, heartbeat_interval=0.5, miss_threshold=2
                )
            )
        coordinators[0].bootstrap()
        env.run(until=env.now + 4.0)
        # Kill everyone except the lowest-id member.
        ordered = sorted(range(3), key=lambda i: edges[i].peer_id.uuid_hex)
        survivor_index = ordered[0]
        for index in ordered[1:]:
            edges[index].node.crash()
        env.run(until=env.now + 20.0)
        assert coordinators[survivor_index].is_coordinator
