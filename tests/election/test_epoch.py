"""Unit tests for election epochs: ordering, minting, and staleness."""

import pytest

from repro.election import BullyElector, Epoch, GENESIS
from repro.election.bully import COORDINATOR, PROTOCOL

from .conftest import GROUP_ID


def _electors(peers, **kwargs):
    return [BullyElector(peer.groups, GROUP_ID, **kwargs) for peer in peers]


def _highest(peers):
    return max(peers, key=lambda peer: peer.peer_id.uuid_hex)


class TestEpochOrdering:
    def test_genesis_is_below_every_minted_epoch(self):
        assert GENESIS < GENESIS.next_for("aa")
        assert GENESIS < Epoch(1, "")

    def test_counter_dominates(self):
        assert Epoch(1, "ff") < Epoch(2, "00")

    def test_owner_breaks_counter_ties(self):
        low, high = Epoch(3, "aa"), Epoch(3, "bb")
        assert low < high and high > low
        assert low != high

    def test_next_for_is_strictly_above(self):
        epoch = Epoch(4, "aa")
        minted = epoch.next_for("bb")
        assert minted > epoch
        assert minted.owner_hex == "bb"

    def test_str_is_compact(self):
        assert str(GENESIS) == "e0@-"
        assert str(Epoch(3, "abcdef0123456789")) == "e3@abcdef01"


class TestEpochMinting:
    def test_winner_mints_and_everyone_accepts(self, env, group):
        _rendezvous, peers = group
        electors = _electors(peers)
        electors[0].start_election()
        env.run(until=env.now + 3.0)
        winner = next(e for e in electors if e.is_coordinator)
        assert winner.epoch.counter == 1
        assert winner.epoch.owner_hex == winner.my_id.uuid_hex
        assert all(e.epoch == winner.epoch for e in electors)

    def test_successive_elections_mint_increasing_epochs(self, env, group):
        _rendezvous, peers = group
        electors = _electors(peers)
        electors[0].start_election()
        env.run(until=env.now + 3.0)
        first = next(e for e in electors if e.is_coordinator).epoch
        # Depose the winner and re-elect.
        winner_peer = _highest(peers)
        winner_peer.node.crash()
        survivors = [e for e, p in zip(electors, peers) if p.node.up]
        for elector in survivors:
            elector.groups.remove_member(GROUP_ID, winner_peer.peer_id)
            elector.coordinator = None
        survivors[0].start_election()
        env.run(until=env.now + 3.0)
        second = next(e for e in survivors if e.is_coordinator).epoch
        assert second > first
        assert all(e.epoch == second for e in survivors)

    def test_announced_log_is_strictly_increasing_per_elector(self, env, group):
        _rendezvous, peers = group
        electors = _electors(peers)
        for _round in range(3):
            electors[0].start_election()
            env.run(until=env.now + 3.0)
            leader = next(e for e in electors if e.is_coordinator)
            # Force re-elections without killing anyone: clear the belief.
            for elector in electors:
                elector.coordinator = None
        announced = [epoch for _t, epoch in leader.announced]
        assert len(announced) >= 2
        assert all(a < b for a, b in zip(announced, announced[1:]))
        assert all(e.owner_hex == leader.my_id.uuid_hex for e in announced)


class TestStaleAnnouncements:
    def test_stale_coordinator_announcement_rejected(self, env, group):
        """An announcement carrying a term below the accepted one must
        not displace the accepted coordinator."""
        _rendezvous, peers = group
        electors = _electors(peers)
        electors[0].start_election()
        env.run(until=env.now + 3.0)
        accepted = electors[0].epoch
        coordinator = electors[0].coordinator
        stale = Epoch(accepted.counter - 1, "00" * 16)
        # Forge a stale announcement from the highest peer (so the
        # lower-sender rule cannot be what rejects it).
        sender = _highest(peers)
        sender.groups.send_to_member(
            GROUP_ID, peers[0].peer_id, PROTOCOL,
            (COORDINATOR, sender.peer_id, stale),
        )
        env.run(until=env.now + 1.0)
        assert electors[0].epoch == accepted
        assert electors[0].coordinator == coordinator

    def test_coordinator_with_stale_term_re_mints(self, env, group):
        """A sitting coordinator that learns of a higher term must not
        keep serving under its own — it re-elects and mints above."""
        _rendezvous, peers = group
        electors = _electors(peers)
        electors[0].start_election()
        env.run(until=env.now + 3.0)
        leader = next(e for e in electors if e.is_coordinator)
        foreign = Epoch(leader.epoch.counter + 5, "00" * 16)
        leader.observe_external_epoch(foreign)
        env.run(until=env.now + 3.0)
        assert leader.is_coordinator
        assert leader.epoch > foreign
        assert leader.epoch.owner_hex == leader.my_id.uuid_hex
