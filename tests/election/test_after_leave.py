"""Regression tests: election machinery after a peer leaves its group."""

import pytest

from repro.election import BullyElector

from .conftest import GROUP_ID


class TestAfterLeave:
    def test_stale_election_message_after_leave_is_harmless(self, env, group):
        """A lower peer's ELECTION arriving after we left must not crash or
        make us claim coordination of a group we are no longer in."""
        _rendezvous, peers = group
        electors = [BullyElector(peer.groups, GROUP_ID) for peer in peers]
        electors[0].start_election()
        env.run(until=env.now + 3.0)
        ordered = sorted(range(5), key=lambda i: peers[i].peer_id.uuid_hex)
        leaver_index = ordered[-1]  # the current coordinator leaves
        lower_index = ordered[0]
        peers[leaver_index].groups.leave(GROUP_ID)
        # Deliver a stale ELECTION straight to the departed peer.
        peers[lower_index].groups.send_to_member(
            GROUP_ID,
            peers[leaver_index].peer_id,
            "whisper:election",
            ("election", peers[lower_index].peer_id, electors[lower_index].max_epoch_seen),
        )
        env.run(until=env.now + 5.0)
        assert not electors[leaver_index].is_coordinator
        # The rest of the group re-elected among themselves.
        stayers = [
            electors[i] for i in range(5) if i != leaver_index
        ]
        beliefs = {e.coordinator for e in stayers}
        assert len(beliefs) == 1
        assert beliefs.pop() == peers[ordered[-2]].peer_id

    def test_start_election_noop_for_nonmember(self, env, group):
        _rendezvous, peers = group
        elector = BullyElector(peers[0].groups, GROUP_ID)
        peers[0].groups.leave(GROUP_ID)
        elector.start_election()  # must not raise
        env.run(until=env.now + 2.0)
        assert not elector.is_coordinator
        assert elector.stats.elections_won == 0

    def test_coordinator_leave_triggers_immediate_election(self, env, group):
        _rendezvous, peers = group
        electors = [BullyElector(peer.groups, GROUP_ID) for peer in peers]
        electors[0].start_election()
        env.run(until=env.now + 3.0)
        ordered = sorted(range(5), key=lambda i: peers[i].peer_id.uuid_hex)
        before = env.now
        peers[ordered[-1]].groups.leave(GROUP_ID)
        env.run(until=env.now + 3.0)
        stayers = [electors[i] for i in ordered[:-1]]
        beliefs = {e.coordinator for e in stayers}
        assert beliefs == {peers[ordered[-2]].peer_id}
        # It happened on election timescales (no failure detection needed).
        assert env.now - before <= 3.0
