"""Unit tests for the Bully election algorithm."""

import pytest

from repro.election import BullyElector

from .conftest import GROUP_ID


def _electors(peers, **kwargs):
    return [BullyElector(peer.groups, GROUP_ID, **kwargs) for peer in peers]


def _highest(peers):
    return max(peers, key=lambda peer: peer.peer_id.uuid_hex)


class TestElection:
    def test_highest_member_wins(self, env, group):
        _rendezvous, peers = group
        electors = _electors(peers)
        electors[0].start_election()
        env.run(until=env.now + 3.0)
        winner = _highest(peers).peer_id
        assert all(e.coordinator == winner for e in electors)

    def test_exactly_one_coordinator(self, env, group):
        _rendezvous, peers = group
        electors = _electors(peers)
        electors[0].start_election()
        env.run(until=env.now + 3.0)
        self_believers = [e for e in electors if e.is_coordinator]
        assert len(self_believers) == 1

    def test_highest_initiator_wins_immediately(self, env, group):
        _rendezvous, peers = group
        electors = _electors(peers)
        highest_index = peers.index(_highest(peers))
        electors[highest_index].start_election()
        env.run(until=env.now + 3.0)
        assert electors[highest_index].is_coordinator

    def test_concurrent_elections_converge(self, env, group):
        _rendezvous, peers = group
        electors = _electors(peers)
        for elector in electors:
            elector.start_election()
        env.run(until=env.now + 5.0)
        winner = _highest(peers).peer_id
        assert all(e.coordinator == winner for e in electors)

    def test_election_after_coordinator_removed(self, env, group):
        _rendezvous, peers = group
        electors = _electors(peers)
        electors[0].start_election()
        env.run(until=env.now + 3.0)
        # Remove the winner from everyone's view (simulates detection).
        winner_peer = _highest(peers)
        winner_peer.node.crash()
        survivors = [
            (peer, elector)
            for peer, elector in zip(peers, electors)
            if peer is not winner_peer
        ]
        for peer, _elector in survivors:
            peer.groups.remove_member(GROUP_ID, winner_peer.peer_id)
        survivors[0][1].start_election()
        env.run(until=env.now + 5.0)
        second_highest = _highest([peer for peer, _ in survivors]).peer_id
        assert all(e.coordinator == second_highest for _p, e in survivors)

    def test_message_complexity_lowest_initiator(self, env, group):
        """Lowest-id initiator contacts everyone above it: O(n) for it,
        cascading elections above — the classic worst case."""
        _rendezvous, peers = group
        electors = _electors(peers)
        ordered = sorted(range(5), key=lambda i: peers[i].peer_id.uuid_hex)
        lowest = ordered[0]
        electors[lowest].start_election()
        env.run(until=env.now + 3.0)
        total = sum(e.stats.election_messages_sent for e in electors)
        # ELECTION messages: 4 from lowest + cascade; plus ANSWERs + final
        # COORDINATOR broadcast of 4.
        assert total >= 4 + 4
        assert electors[ordered[-1]].is_coordinator

    def test_lower_coordinator_claim_triggers_reelection(self, env, group):
        _rendezvous, peers = group
        electors = _electors(peers)
        ordered = sorted(range(5), key=lambda i: peers[i].peer_id.uuid_hex)
        lowest, highest = ordered[0], ordered[-1]
        # Forge a COORDINATOR announcement from the lowest peer.
        electors[lowest].coordinator = peers[lowest].peer_id
        peers[lowest].groups.send_to_member(
            GROUP_ID,
            peers[highest].peer_id,
            "whisper:election",
            ("coordinator", peers[lowest].peer_id, electors[lowest].epoch),
        )
        env.run(until=env.now + 5.0)
        assert electors[highest].is_coordinator

    def test_coordinator_announces_to_late_joiner(self, env, network, group):
        from repro.p2p import Peer

        rendezvous, peers = group
        electors = _electors(peers)
        electors[0].start_election()
        env.run(until=env.now + 3.0)
        latecomer = Peer(network.add_host("late"))
        latecomer.attach_to(rendezvous)
        late_elector = BullyElector(latecomer.groups, GROUP_ID)
        latecomer.groups.join(GROUP_ID, "election-group")
        env.run(until=env.now + 8.0)
        # The group converges on one coordinator that the late joiner knows
        # too (either learned from the incumbent or won by being highest).
        beliefs = {e.coordinator for e in electors} | {late_elector.coordinator}
        assert len(beliefs) == 1
        assert late_elector.coordinator is not None


class TestPruneSparesAnswerers:
    """Regression: a stalled election must not prune peers that ANSWERed.

    A peer that sent ANSWER this round is provably alive — its
    COORDINATOR broadcast is merely late.  The old code pruned *every*
    higher member after a stall, demoting live higher peers and letting
    a lower peer elect itself (a Bully invariant violation).
    """

    def test_prune_removes_only_silent_candidates(self, env, group):
        _rendezvous, peers = group
        low = min(peers, key=lambda peer: peer.peer_id.uuid_hex)
        elector = BullyElector(low.groups, GROUP_ID)
        higher = elector._higher_members()
        assert len(higher) == 4
        answerer = higher[0]
        elector._answered.add(answerer)
        elector._prune_dead_candidates(higher)
        members = low.groups.members(GROUP_ID)
        assert answerer in members  # alive: spared
        for peer in higher[1:]:
            assert peer not in members  # silent: pruned

    def test_live_answerer_survives_stalled_election(self, env, group):
        """End to end: every higher peer answers but their COORDINATOR
        broadcasts are swallowed (e.g. still stuck in their own rounds).
        The lowest initiator's election stalls repeatedly — it must keep
        the live higher peers in its view and never usurp coordination."""
        _rendezvous, peers = group
        electors = _electors(peers)
        ordered = sorted(range(5), key=lambda i: peers[i].peer_id.uuid_hex)
        lowest = ordered[0]
        low_elector = electors[lowest]
        low_peer = peers[lowest]
        # Swallow COORDINATOR announcements from every higher elector so
        # answers arrive but no winner is ever heard.
        for index in ordered[1:]:
            elector = electors[index]

            def muted(peer, kind, _orig=elector._send):
                if kind == "coordinator":
                    return
                _orig(peer, kind)

            elector._send = muted
        higher_ids = {peers[i].peer_id for i in ordered[1:]}
        low_elector.start_election()
        # Long enough for several stall/retry rounds (answer 0.5s +
        # coordinator wait 1.5s per round).
        env.run(until=env.now + 7.0)
        members = low_peer.groups.members(GROUP_ID)
        assert higher_ids <= members  # no live peer was demoted
        assert not low_elector.is_coordinator  # invariant held
