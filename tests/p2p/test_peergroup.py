"""Unit tests for group membership and group messaging."""

import pytest

from repro.p2p import PeerGroupId
from repro.p2p.peergroup import ANNOUNCE_PERIOD

GID = PeerGroupId.from_name("test-group")


class TestMembership:
    def test_join_makes_member(self, env, p2p):
        _rendezvous, edges = p2p
        edges[0].groups.join(GID, "test-group")
        assert edges[0].groups.is_member(GID)
        assert edges[0].peer_id in edges[0].groups.members(GID)

    def test_membership_converges_across_members(self, env, p2p):
        _rendezvous, edges = p2p
        for edge in edges:
            edge.groups.join(GID, "test-group")
        env.run(until=env.now + 1.0)
        for edge in edges:
            assert len(edge.groups.members(GID)) == 4

    def test_nonmembers_do_not_track_membership(self, env, p2p):
        _rendezvous, edges = p2p
        edges[0].groups.join(GID, "test-group")
        edges[1].groups.join(GID, "test-group")
        env.run(until=env.now + 1.0)
        assert edges[3].groups.members(GID) == set()

    def test_late_joiner_converges_via_roster(self, env, p2p):
        _rendezvous, edges = p2p
        for edge in edges[:3]:
            edge.groups.join(GID, "test-group")
        env.run(until=env.now + 1.0)
        edges[3].groups.join(GID, "test-group")
        env.run(until=env.now + ANNOUNCE_PERIOD + 1.0)
        assert len(edges[3].groups.members(GID)) == 4
        for edge in edges[:3]:
            assert edges[3].peer_id in edge.groups.members(GID)

    def test_leave_propagates(self, env, p2p):
        _rendezvous, edges = p2p
        for edge in edges[:3]:
            edge.groups.join(GID, "test-group")
        env.run(until=env.now + 1.0)
        edges[2].groups.leave(GID)
        env.run(until=env.now + 1.0)
        assert not edges[2].groups.is_member(GID)
        assert edges[2].peer_id not in edges[0].groups.members(GID)

    def test_remove_member_is_local(self, env, p2p):
        _rendezvous, edges = p2p
        for edge in edges[:2]:
            edge.groups.join(GID, "test-group")
        env.run(until=env.now + 1.0)
        edges[0].groups.remove_member(GID, edges[1].peer_id)
        assert edges[1].peer_id not in edges[0].groups.members(GID)
        assert edges[1].groups.is_member(GID)  # other views untouched

    def test_membership_change_listener(self, env, p2p):
        _rendezvous, edges = p2p
        changes = []
        edges[0].groups.on_membership_change(
            lambda gid, pid, change: changes.append((change, pid))
        )
        edges[0].groups.join(GID, "test-group")
        edges[1].groups.join(GID, "test-group")
        env.run(until=env.now + 1.0)
        assert ("joined", edges[1].peer_id) in changes

    def test_crashed_member_purged_from_registry_roster(self, env, p2p):
        rendezvous, edges = p2p
        for edge in edges[:3]:
            edge.groups.join(GID, "test-group")
        env.run(until=env.now + 1.0)
        edges[1].node.crash()
        # After the renewal grace expires, the roster no longer lists it.
        env.run(until=env.now + ANNOUNCE_PERIOD * 3.5)
        registry = rendezvous.groups._registry.get(GID, {})
        now = env.now
        alive = [p for p, (_a, expiry) in registry.items() if expiry > now]
        assert edges[1].peer_id not in alive


class TestGroupMessaging:
    def test_send_to_member(self, env, p2p):
        _rendezvous, edges = p2p
        for edge in edges[:2]:
            edge.groups.join(GID, "test-group")
        env.run(until=env.now + 1.0)
        got = []
        edges[1].groups.register_group_listener(
            "app", lambda payload, src, gid: got.append((payload, src))
        )
        edges[0].groups.send_to_member(GID, edges[1].peer_id, "app", "direct")
        env.run(until=env.now + 0.2)
        assert got == [("direct", edges[0].peer_id)]

    def test_messages_scoped_by_group_id(self, env, p2p):
        _rendezvous, edges = p2p
        other = PeerGroupId.from_name("other-group")
        edges[0].groups.join(GID, "test-group")
        edges[1].groups.join(GID, "test-group")
        env.run(until=env.now + 1.0)
        got = []
        edges[1].groups.register_group_listener(
            "app", lambda payload, src, gid: got.append(gid)
        )
        edges[0].groups.send_to_member(GID, edges[1].peer_id, "app", "x")
        env.run(until=env.now + 0.2)
        assert got == [GID]
