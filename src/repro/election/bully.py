"""The Bully election algorithm (Garcia-Molina, 1982).

"If one replica fails another replica is elected (using the Bully
algorithm) and used immediately" (§4.1); "more importantly they implement
the Bully algorithm to provide a fundamental mechanism to enable a good
fault-tolerance" (§4.2).

Peers are totally ordered by their peer-ID hex.  On suspicion of the
coordinator, a peer sends ELECTION to everyone above it:

* nobody answers within ``answer_timeout`` → it wins, broadcasts
  COORDINATOR;
* somebody ANSWERs → it waits ``coordinator_timeout`` for a COORDINATOR
  broadcast, restarting the election if none arrives (the answering peer
  died mid-election).

Message complexity is O(n²) worst case (lowest peer detects) and O(n) best
case (highest surviving peer detects) — measured by Ablation C.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Set, Tuple

from ..simnet.events import EXPIRED, AnyOf, Interrupt, Wait
from ..p2p.endpoint import UnresolvablePeerError
from ..p2p.ids import PeerGroupId, PeerId
from ..p2p.peergroup import GroupService
from .epoch import GENESIS, Epoch

__all__ = ["BullyElector", "PROTOCOL", "ElectionStats"]

PROTOCOL = "whisper:election"

#: Wire message kinds.
ELECTION = "election"
ANSWER = "answer"
COORDINATOR = "coordinator"


@dataclass
class ElectionStats:
    """Counters for benchmark reporting."""

    elections_started: int = 0
    elections_won: int = 0
    election_messages_sent: int = 0


class BullyElector:
    """Runs Bully elections for one peer within one group."""

    def __init__(
        self,
        groups: GroupService,
        group_id: PeerGroupId,
        answer_timeout: float = 0.5,
        coordinator_timeout: float = 1.5,
        epoch_fencing: bool = True,
    ):
        self.groups = groups
        self.group_id = group_id
        self.endpoint = groups.endpoint
        self.env = self.endpoint.node.env
        self.answer_timeout = answer_timeout
        self.coordinator_timeout = coordinator_timeout
        #: With fencing off (checker self-tests only), stale COORDINATOR
        #: announcements are accepted and a coordinator whose term went
        #: stale keeps serving — the pre-PR-2 behaviour.  Epochs are still
        #: minted and recorded so the invariant audit stays meaningful.
        self.epoch_fencing = epoch_fencing

        self.coordinator: Optional[PeerId] = None
        #: Epoch of the currently accepted coordinator (GENESIS before any
        #: election).  Serves as a fencing token: announcements and exec
        #: requests stamped with a lower epoch are stale and rejected.
        self.epoch: Epoch = GENESIS
        #: Highest epoch ever observed on any message — the floor for the
        #: epoch this peer would mint if it won an election.  Survives
        #: crashes (the object persists), so a restarted ex-coordinator can
        #: never re-announce an old term.
        self.max_epoch_seen: Epoch = GENESIS
        #: ``(sim_time, epoch)`` for every COORDINATOR announcement this
        #: peer broadcast — audited by the fault campaign's invariants.
        self.announced: List[Tuple[float, Epoch]] = []
        self.election_in_progress = False
        self.stats = ElectionStats()
        #: Network-wide observability (disabled on bare networks): each
        #: election records an ``elect`` phase duration.
        self.obs = self.endpoint.node.network.obs
        self._answer_event = None
        self._coordinator_event = None
        #: Peers that sent ANSWER during the current round — provably
        #: alive, so a stalled election must never prune them.
        self._answered: Set[PeerId] = set()
        self._listeners: List[Callable[[PeerId], None]] = []
        groups.register_group_listener(PROTOCOL, self._on_message)
        groups.on_membership_change(self._on_membership_change)

    # -- public API -----------------------------------------------------------------

    @property
    def my_id(self) -> PeerId:
        return self.endpoint.peer_id

    @property
    def is_coordinator(self) -> bool:
        return self.coordinator == self.my_id

    def on_coordinator_elected(self, listener: Callable[[PeerId], None]) -> None:
        """Observe every COORDINATOR announcement this peer accepts."""
        self._listeners.append(listener)

    def start_election(self) -> None:
        """Kick off an election (no-op if one is already running here).

        Also a no-op when this peer is not (or no longer) a member — e.g.
        a stale ELECTION message arriving after a graceful shutdown.
        """
        if self.election_in_progress or not self.endpoint.node.up:
            return
        if not self.groups.is_member(self.group_id):
            return
        self.election_in_progress = True
        self.stats.elections_started += 1
        self.obs.metrics.inc("election.started")
        self.endpoint.node.spawn(
            self._run_election(), name=f"bully:{self.endpoint.node.name}"
        )

    # -- the election round ------------------------------------------------------------

    def _run_election(self):
        started_at = self.env.now
        try:
            while True:
                higher = self._higher_members()
                if not higher:
                    self._become_coordinator()
                    return
                # Arm both events BEFORE sending: a COORDINATOR broadcast
                # may land at any instant during the round, including while
                # we are still waiting for ANSWERs.
                self._answer_event = self.env.event()
                self._coordinator_event = self.env.event()
                self._answered.clear()
                for peer in sorted(higher, key=lambda pid: pid.uuid_hex):
                    self._send(peer, ELECTION)
                timer = self.env.timeout(self.answer_timeout)
                outcome = yield AnyOf(
                    self.env, [self._answer_event, self._coordinator_event, timer]
                )
                if self._coordinator_event in outcome:
                    return  # someone higher already announced
                if self._answer_event not in outcome:
                    # Silence above us: we win.
                    self._become_coordinator()
                    return
                # Someone higher is alive; wait for its COORDINATOR.
                outcome = yield Wait(
                    self.env, self._coordinator_event, self.coordinator_timeout
                )
                if outcome is not EXPIRED:
                    return  # coordinator accepted via _on_message
                if self.coordinator is not None and (
                    self.coordinator.uuid_hex > self.my_id.uuid_hex
                ):
                    # An announcement slipped past the event (processed just
                    # before this round armed it): accept it.
                    return
                # The higher peer died mid-election; drop it and retry.
                self._prune_dead_candidates(higher)
        except Interrupt:
            return
        finally:
            self.election_in_progress = False
            self._answer_event = None
            self._coordinator_event = None
            self._answered.clear()
            self.obs.observe_phase("elect", self.env.now - started_at)

    def _higher_members(self) -> List[PeerId]:
        mine = self.my_id.uuid_hex
        return [
            member
            for member in self.groups.members(self.group_id)
            if member.uuid_hex > mine
        ]

    def _prune_dead_candidates(self, higher: List[PeerId]) -> None:
        """After a stalled election, drop the higher peers that stayed silent.

        A peer that sent ANSWER this round is provably alive — its
        COORDINATOR broadcast is merely late (e.g. its own round is still
        waiting out a timeout).  Pruning it would demote a live higher
        peer and let a lower one win, violating the Bully invariant, so
        only candidates that never answered are removed.
        """
        for peer in higher:
            if peer in self._answered:
                continue
            self.groups.remove_member(self.group_id, peer)

    def _become_coordinator(self) -> None:
        view = self.groups.groups.get(self.group_id)
        if view is None or self.my_id not in view.members:
            return  # left the group mid-election
        self.coordinator = self.my_id
        # Mint a fresh term strictly above everything this peer has seen:
        # even if a partitioned rival minted the same counter, the owner
        # component keeps the full epochs distinct.
        self.epoch = self.max_epoch_seen.next_for(self.my_id.uuid_hex)
        self.max_epoch_seen = self.epoch
        self.announced.append((self.env.now, self.epoch))
        self.stats.elections_won += 1
        self.obs.metrics.inc("election.won")
        self.obs.metrics.inc("election.epochs_announced")
        for member in view.sorted_members():
            if member != self.my_id:
                self._send(member, COORDINATOR)
        self._notify(self.my_id)

    def reaffirm(self) -> None:
        """Re-broadcast our coordinatorship to the current view.

        Quiescent anti-entropy: a coordinator that won inside a partition
        exchanges no messages after the heal (members probe only the
        coordinator *they* accepted), so two claimants can coexist
        indefinitely while the group is idle.  A periodic re-affirmation
        gives fencing something to bite on — a staler receiver adopts the
        fresher term, a fresher receiver rejects the stale claim and
        re-elects, and either way the views converge without waiting for
        client traffic.  Re-affirmations re-send the *already announced*
        term; they are not new announcements and never touch
        :attr:`announced`.
        """
        if not self.is_coordinator or self.election_in_progress:
            return
        if self.epoch_fencing and self.max_epoch_seen > self.epoch:
            # Known-stale term: never re-advertise it — re-election (via
            # ``_re_elect_if_stale_term``) is the only way forward.
            return
        view = self.groups.groups.get(self.group_id)
        if view is None or self.my_id not in view.members:
            return
        for member in view.sorted_members():
            if member != self.my_id:
                self._send(member, COORDINATOR)
        self.obs.metrics.inc("election.reaffirmed")

    def _observe_epoch(self, epoch: Epoch) -> None:
        if epoch > self.max_epoch_seen:
            self.max_epoch_seen = epoch

    def observe_external_epoch(self, epoch: Epoch) -> None:
        """Fold in an epoch learned outside the election protocol.

        Proxies stamp requests with the highest term they ever saw, so
        epoch knowledge survives even when every peer that witnessed it
        crashed: the sole survivor re-wins with a lower counter, learns
        the higher term from the first client request, and re-mints above
        it — without this, its results would be discarded as stale until
        some witness restarts.
        """
        self._observe_epoch(epoch)
        self._re_elect_if_stale_term()

    def _re_elect_if_stale_term(self) -> None:
        if not self.epoch_fencing:
            return
        if self.is_coordinator and self.max_epoch_seen > self.epoch:
            # Our own term went stale: somewhere a higher term was minted
            # (we re-won without seeing it, or a partition healed).
            # Serving under it would feed the proxy results it must
            # discard — re-elect to mint a term above everything observed.
            self.obs.metrics.inc("election.stale_terms_detected")
            self.start_election()

    # -- messaging -----------------------------------------------------------------------

    def _send(self, peer: PeerId, kind: str) -> None:
        # COORDINATOR carries the freshly minted term; ELECTION/ANSWER
        # piggy-back the highest epoch seen so the eventual winner mints
        # above BOTH sides of a healed partition.
        epoch = self.epoch if kind == COORDINATOR else self.max_epoch_seen
        try:
            self.groups.send_to_member(
                self.group_id,
                peer,
                PROTOCOL,
                (kind, self.my_id, epoch),
                category="election",
                size_bytes=128,
            )
            self.stats.election_messages_sent += 1
            self.obs.metrics.inc("election.messages_sent")
        except UnresolvablePeerError:
            pass

    def _on_message(self, payload, src_peer: PeerId, group_id: PeerGroupId) -> None:
        if group_id != self.group_id or not self.endpoint.node.up:
            return
        if not self.groups.is_member(self.group_id):
            return  # stale traffic after leaving the group
        kind, sender, epoch = payload
        self._observe_epoch(epoch)
        if kind == ELECTION:
            # A lower peer is electing: suppress it and take over.
            if sender.uuid_hex < self.my_id.uuid_hex:
                self._send(sender, ANSWER)
                if self.is_coordinator and self.epoch >= self.max_epoch_seen:
                    # Already coordinating under the freshest term we know:
                    # a direct re-announcement settles the initiator without
                    # a fresh broadcast storm.  (A coordinator whose term
                    # went stale must NOT re-announce it — the check at the
                    # bottom re-elects instead.)
                    self._send(sender, COORDINATOR)
                elif (
                    self.coordinator is not None
                    and self.coordinator.uuid_hex > self.my_id.uuid_hex
                    and self.coordinator in self.groups.members(self.group_id)
                ):
                    # A live higher coordinator is known: no need to cascade
                    # an election of our own (bounds the message storm when
                    # many peers elect simultaneously).
                    pass
                else:
                    self.start_election()
        elif kind == ANSWER:
            self._answered.add(sender)
            if self._answer_event is not None and not self._answer_event.triggered:
                self._answer_event.succeed(sender)
        elif kind == COORDINATOR:
            if self.epoch_fencing and epoch < self.epoch:
                # Stale term: an ex-coordinator (typically a healed
                # partition minority) is re-announcing an epoch this peer
                # has already moved past.
                self.obs.metrics.inc("election.stale_announcements_rejected")
                if self.is_coordinator and self.epoch >= self.max_epoch_seen:
                    # We coordinate under the freshest term we know: rebuff
                    # the claimant directly with it.  Silent rejection
                    # would deadlock when OUR announcements cannot reach it
                    # (its entry fell out of our view after an eviction):
                    # it keeps re-affirming, we keep re-electing, and
                    # nobody ever tells it about the fresher term.  On
                    # receipt it either adopts (we outrank it) or mints
                    # above our term via its own election — converged
                    # either way.
                    self._send(sender, COORDINATOR)
                else:
                    # Not the incumbent (or our own term is stale too):
                    # re-elect, and the winner will mint above both terms.
                    self.start_election()
                return
            if sender.uuid_hex < self.my_id.uuid_hex:
                # A lower peer claims coordination while we are alive: the
                # Bully invariant is violated (crossed announcements from
                # concurrent elections).  Re-elect; we or someone higher
                # will win.
                self.start_election()
                return
            if sender == self.coordinator and epoch == self.epoch:
                # Periodic re-affirmation of the incumbent we already
                # accepted: nothing changed, so skip the re-notify churn
                # (but settle any election round waiting for this).
                if (
                    self._coordinator_event is not None
                    and not self._coordinator_event.triggered
                ):
                    self._coordinator_event.succeed(sender)
                return
            self.coordinator = sender
            self.epoch = epoch
            if (
                self._coordinator_event is not None
                and not self._coordinator_event.triggered
            ):
                self._coordinator_event.succeed(sender)
            self._notify(sender)
        self._re_elect_if_stale_term()

    def _on_membership_change(
        self, group_id: PeerGroupId, peer_id: PeerId, change: str
    ) -> None:
        """Late joiners learn the incumbent; a dead incumbent is forgotten."""
        if group_id != self.group_id or not self.endpoint.node.up:
            return
        if change == "joined" and self.is_coordinator and peer_id != self.my_id:
            self._send(peer_id, COORDINATOR)
        elif change in ("left", "removed") and peer_id == self.coordinator:
            self.coordinator = None
            if change == "left" and self.groups.is_member(self.group_id):
                # Graceful departure of the coordinator: elect immediately
                # instead of waiting for heartbeat detection or the
                # watchdog — this is what makes planned maintenance fast.
                self.start_election()

    def _notify(self, coordinator: PeerId) -> None:
        for listener in self._listeners:
            listener(coordinator)
