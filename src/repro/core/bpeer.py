"""B-peers: the replicated service executors (§4.1–4.2).

A b-peer is a JXTA peer that (a) belongs to exactly one semantic b-peer
group, (b) hosts one :class:`~repro.backend.services.ServiceImplementation`
realising the group's functionality, and (c) runs the Bully algorithm so
the group always has a coordinator.

Request flow (§4.2): the SWS-proxy sends the request to the peer it
believes coordinates the group.  If that peer is *not* (or no longer) the
coordinator, it answers ``not-coordinator`` with a forward pointer.  The
coordinator executes the request — and when its own backend is down it
*delegates* to a semantically equivalent member (§4.1's operational-DB →
data-warehouse scenario), transparently to the proxy.

With ``load_sharing=True`` the coordinator additionally spreads incoming
requests over the members (§4.1: "the redundancy mechanism of Whisper
makes possible to also address scalability requirements through
load-sharing"), with members answering the proxy directly.  *Which*
member gets each request is a pluggable
:class:`~repro.core.dispatch.DispatchPolicy` (blind round-robin,
least-outstanding, or QoS-weighted); with a ``queue_bound`` set, the
coordinator additionally runs admission control — when every eligible
member is at its bound the request is *shed* with a ``busy`` reply
carrying a retry-after hint, instead of queueing without limit.

One implementation per concern: ``_tell`` sends every group-protocol
message and ``_on_delegate`` receives them through one ``{mode: handler}``
lookup (the protocol table is DESIGN.md §6.7); ``_reply`` answers the
proxy, ``_busy_reply`` / ``_redirect`` build the ``busy`` and
``not-coordinator`` bounces, ``_commit_result`` is the first-result-wins
journal commit, ``_interrupt`` stops one of our processes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from ..backend.services import ServiceImplementation
from ..backend.store import BackendUnavailable, RecordNotFound
from ..qos.metrics import QosProfile
from ..p2p.endpoint import EndpointMessage, UnresolvablePeerError
from ..p2p.ids import PeerGroupId, PeerId
from ..p2p.peer import Peer
from ..simnet.events import Interrupt, Wait
from ..simnet.message import Address
from ..simnet.node import Node
from ..simnet.queues import Store
from ..election.coordinator import GroupCoordinator
from ..election.epoch import Epoch
from .config import ScenarioConfig
from .dispatch import MemberLoad, dispatch_policy
from .journal import DedupJournal, JournalEntry

__all__ = ["BPeer", "ExecRequest", "ExecReply"]

PROTO_EXEC = "whisper:exec"
PROTO_EXEC_REPLY = "whisper:exec-reply"
PROTO_DELEGATE = "whisper:delegate"
COORD_HANDLER = "whisper:coordinator"

#: How long a coordinator waits for a delegated member to answer.
DELEGATION_TIMEOUT = 1.0

#: Backstop for requests parked behind an in-flight duplicate: if the
#: original execution has not completed by then (e.g. its completion
#: report was lost), the parked retry is answered ``busy`` so the proxy
#: backs off and retries — never re-executed concurrently.
PARK_TIMEOUT = 2 * DELEGATION_TIMEOUT

#: How often a takeover coordinator re-pulls journal state from group
#: members that have not answered for its term yet (lost pulls and
#: members that re-appear after a partition heal are retried here).
JOURNAL_SYNC_PERIOD = 0.5

#: How long a coordinator waits for its write-intent quorum before
#: bouncing the mutation ``busy``.  Must sit well below the proxy's
#: per-attempt timeout so a blocked commit converts into an orderly
#: retry, not a client-visible stall.
INTENT_TIMEOUT = 0.4

#: How long an intent-status probe to an in-doubt intent's origin stays
#: outstanding before another retry may re-probe.
INTENT_RESOLVE_TIMEOUT = 1.0

#: Period of semantic-advertisement republication (JXTA republishes
#: advertisements periodically; this is what repopulates the rendezvous'
#: SRDI index after a rendezvous restart).
REPUBLISH_PERIOD = 10.0

#: Histogram bounds for the coordinator's queue-depth metric (requests
#: outstanding across the group at admission time — counts, not seconds).
QUEUE_DEPTH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


@dataclass
class ExecRequest:
    """A service request travelling from proxy to b-peer group."""

    request_id: int
    group_id: PeerGroupId
    operation: str
    arguments: Dict[str, Any]
    reply_to: PeerId
    reply_addr: Address
    #: Idempotency key: one id per *logical* call, reused across every
    #: retry/rebind (``request_id`` stays per-attempt).
    invocation_id: str
    #: Fencing token: the coordinator epoch the proxy's binding was made
    #: under.  ``None`` disables the staleness check.
    epoch: Optional[Epoch] = None
    #: The highest epoch the proxy has ever witnessed (bindings + delivered
    #: results).  Gossiped into the group so epoch knowledge survives even
    #: when every peer that minted/accepted it has crashed.
    observed_epoch: Optional[Epoch] = None
    #: Which attempt of the logical call this is (1 = first send).  A
    #: takeover coordinator uses it to tell retries — which may have been
    #: applied elsewhere under an earlier term — from fresh invocations.
    attempt: int = 1


@dataclass
class ExecReply:
    """The b-peer group's answer to one :class:`ExecRequest`.

    ``kind`` is one of ``result``, ``fault``, ``not-coordinator`` (with a
    forward pointer in ``coordinator``), ``cannot-serve``, or ``busy``
    (admission control shed the request; ``retry_after`` hints when a
    slot should free up).
    """

    request_id: int
    kind: str
    value: Any = None
    fault_code: Optional[str] = None
    coordinator: Optional[Tuple] = None
    served_by: Optional[str] = None
    #: Epoch under which this reply was produced (results) or the epoch of
    #: the forward pointer (redirects); lets the proxy discard answers from
    #: deposed coordinators.
    epoch: Optional[Epoch] = None
    #: For ``busy`` replies: estimated seconds until a queue slot frees.
    retry_after: Optional[float] = None
    #: Idempotency key this reply settles (mirrors the request's).
    invocation_id: Optional[str] = None
    #: True when the value was replayed from the dedup journal instead of
    #: executed — the retried call observed the original result.
    deduped: bool = False


@dataclass
class _Delegation:
    request: ExecRequest
    done: Any  # simulation event
    reply: Optional[ExecReply] = None


@dataclass
class _IntentWait:
    """One commit barrier's collection state (keyed by intent token)."""

    needed: int  # remote acks required for a majority incl. ourselves
    done: Any  # simulation event: decided early (quorum / short-circuit)
    sent: int = 0
    acks: int = 0
    responses: int = 0
    #: A member already holds the invocation's DONE entry: replay it.
    done_entry: Optional[JournalEntry] = None
    #: Origins of rival in-flight intents members reported (in-doubt).
    held: Optional[set] = None
    #: Highest epoch a refusing member knew (fencing: we are deposed).
    max_seen: Optional[Epoch] = None

    def decided(self) -> bool:
        return (
            self.done_entry is not None
            or self.acks >= self.needed
            or self.responses >= self.sent
        )


def _majority_acks(cohort: int) -> int:
    """Remote acks that, with our own vote, make a strict majority of the
    group's ``cohort + 1`` replicas: ``(cohort + 1) // 2 + 1`` minus us."""
    return (cohort + 1) // 2


class BPeer(Peer):
    """One replica in a semantic b-peer group."""

    def __init__(
        self,
        node: Node,
        group_id: PeerGroupId,
        group_name: str,
        implementation: ServiceImplementation,
        config: ScenarioConfig = ScenarioConfig(),
        name: Optional[str] = None,
    ):
        super().__init__(node, name=name)
        self.group_id = group_id
        self.group_name = group_name
        self.implementation = implementation
        self.load_sharing = config.load_sharing
        #: Split-brain fencing (PR 2).  ``False`` restores the pre-epoch
        #: behaviour — stale-term requests are served and stale
        #: announcements accepted — which the schedule-exploration
        #: checker's self-test uses to prove its invariants have teeth.
        self.epoch_fencing = config.epoch_fencing
        #: Decision-point hook fired right before an admitted request's
        #: side effect is applied (``hook(bpeer, request)``).  A fault
        #: injector may crash the node here; execution is then abandoned,
        #: modelling a crash between admission and commit.
        self.pre_commit_hook = None
        #: How a coordinating replica spreads load-shared work.
        self.dispatch = dispatch_policy(config.dispatch)
        #: Admission control: max dispatched-but-unfinished requests per
        #: member.  ``None`` = the seed's unbounded behaviour.
        self.queue_bound = config.queue_bound
        self.coordinator_mgr = GroupCoordinator(
            self.groups,
            group_id,
            heartbeat_interval=config.heartbeat_interval,
            miss_threshold=config.miss_threshold,
            epoch_fencing=config.epoch_fencing,
        )
        #: Exactly-once machinery: the dedup/result journal plus requests
        #: parked behind an in-flight duplicate (per invocation id).
        self.journal_enabled = config.dedup_journal
        self.journal = DedupJournal(capacity=config.journal_capacity)
        self._parked: Dict[str, List[ExecRequest]] = {}
        #: Retries parked behind an in-flight execution (total).
        self.requests_parked = 0
        #: ``(coordinator, epoch)`` the journal was last pushed to, so a
        #: re-announced term does not re-send the transfer.
        self._journal_pushed: Optional[Tuple[PeerId, Epoch]] = None
        #: Takeover journal sync (coordinator side): the term being
        #: synced, the members that answered our pull for it, the retried
        #: mutations gated until the sync covers the current view, and
        #: the pull loop driving it.  A member-push alone cannot cover a
        #: coordinator whose election announcement was lost (a healed
        #: minority partition winning on epoch height), so the takeover
        #: *pulls* until every view member has answered.
        self._sync_epoch: Optional[Epoch] = None
        self._sync_answered: set = set()
        self._sync_parked: List[ExecRequest] = []
        self._sync_proc = None
        #: Every member ever observed in the group (graceful leavers are
        #: pruned, failure-detector evictions are NOT): the sync must hear
        #: from peers *believed dead* too, because a partitioned or
        #: crashed ex-coordinator may be the only holder of an applied
        #: effect — executing its retries before it answers (post-heal /
        #: post-restart) is exactly the duplicate we gate against.
        self._sync_roster: set = set()
        self.groups.on_membership_change(self._on_roster_change)
        #: Commit barrier (split-brain write fencing): outstanding
        #: write-intent rounds keyed by token, and invocations whose
        #: in-doubt foreign intent we are currently asking the origin
        #: about (one probe outstanding per invocation).
        self._intent_waits: Dict[int, _IntentWait] = {}
        self._intent_tokens = itertools.count(1)
        self._intent_resolving: set = set()
        self.requests_executed = 0
        self.requests_delegated = 0
        self.requests_redirected = 0
        #: Requests shed by admission control (queue bound hit).
        self.requests_shed = 0
        #: Requests bounced because they carried an epoch below ours — the
        #: sender was bound to a deposed coordinator (split-brain fencing).
        self.stale_epoch_rejections = 0
        #: Online QoS profile of this replica's executions (§2.4): feeds
        #: operator reporting and can seed the group's QoS advertisement.
        self.qos_profile = QosProfile(initial_time=implementation.service_time)
        self._queue: Store = Store(self.env)
        #: True while the worker is mid-request (autoscaler drain marker).
        self._busy = False
        self._delegations: Dict[int, _Delegation] = {}
        self._delegation_ids = itertools.count(1)
        #: Coordinator-side load ledger: per-member outstanding counts +
        #: last reported QoS snapshot, feeding the dispatch policy and
        #: admission control.  Reset whenever our coordinator term moves
        #: (counts from a previous term would be stale).
        self._member_load: Dict[PeerId, MemberLoad] = {}
        self._ledger_epoch: Optional[Epoch] = None
        self._worker = None
        self._republisher = None
        #: Advertisements this peer keeps alive on the network.
        self.published_advertisements = []

        #: The group protocol (DESIGN.md §6.7): payload mode -> handler.
        self._group_handlers = {
            "direct": self._on_direct,
            "relay": self._on_relay,
            "relay-reply": self._on_relay_reply,
            "report": self._on_report,
            "journal": self._on_journal,
            "journal-push": self._on_journal_push,
            "journal-pull": self._on_journal_pull,
            "journal-sync-reply": self._on_journal_sync_reply,
            "intent": self._on_intent,
            "intent-reply": self._on_intent_reply,
            "intent-clear": self._on_intent_clear,
            "intent-status": self._on_intent_status,
            "intent-status-reply": self._on_intent_status_reply,
        }
        self.endpoint.register_listener(PROTO_EXEC, self._on_exec)
        self.groups.register_group_listener(PROTO_DELEGATE, self._on_delegate)
        self.resolver.register_handler(COORD_HANDLER, self._on_coordinator_query)
        # Journal-transfer handshake: whenever a new coordinator is
        # announced, members ship it their replicated DONE entries so the
        # takeover answers retried calls from the journal.
        self.coordinator_mgr.elector.on_coordinator_elected(
            self._on_coordinator_announced
        )
        node.on_crash(lambda _node: self._on_crash())
        node.on_restart(lambda _node: self._on_restart())
        self._rendezvous: Optional[Peer] = None

    # -- lifecycle --------------------------------------------------------------------

    def start(self, rendezvous: Peer) -> None:
        """Attach to the network, join the group, start serving."""
        self._rendezvous = rendezvous
        self.attach_to(rendezvous)
        self.publish_self(remote=True)
        self.groups.join(self.group_id, self.group_name)
        self._worker = self.node.spawn(self._work_loop(), name=f"bpeer:{self.name}")
        if self._republisher is None or not self._republisher.is_alive:
            self._republisher = self.node.spawn(
                self._republish_loop(), name=f"bpeer-republish:{self.name}"
            )

    def keep_published(self, advertisement, remote: bool = True) -> None:
        """Publish now and republish periodically (survives SRDI loss)."""
        self.published_advertisements.append((advertisement, remote))
        self.discovery.publish(advertisement, remote=remote)

    def _republish_loop(self):
        try:
            while True:
                yield self.env.timeout(REPUBLISH_PERIOD)
                for advertisement, remote in self.published_advertisements:
                    self.discovery.publish(advertisement, remote=remote)
        except Interrupt:
            return

    def _on_restart(self) -> None:
        """Recover after a crash+restart: re-attach, re-join, re-serve."""
        if self._rendezvous is not None:
            self.start(self._rendezvous)
            for advertisement, remote in self.published_advertisements:
                self.discovery.publish(advertisement, remote=remote)

    def shutdown(self) -> None:
        """Gracefully leave the group (planned maintenance).

        Unlike a crash, a graceful departure *announces* itself: the leave
        propagates, surviving members clear the coordinator immediately and
        elect a successor without waiting out the failure detector — so
        planned maintenance costs an election (sub-second), not a
        detection period (seconds).
        """
        self.coordinator_mgr.monitor.stop()
        self.coordinator_mgr.elector.coordinator = None
        self.groups.leave(self.group_id)
        for process in (self._worker, self._republisher, self._sync_proc):
            self._interrupt(process, "shutdown")
        self._forget_serving_state()
        self._bounce_sync_parked()

    def _forget_serving_state(self) -> None:
        """What a peer that stops serving (leave or crash) no longer has:
        its processes, queued work, parked retries, push/sync progress."""
        self._worker = self._republisher = self._sync_proc = None
        self._queue.items.clear()
        self._parked.clear()
        self._journal_pushed = None
        self._sync_epoch = None
        self._sync_answered = set()

    def _interrupt(self, process, reason: str) -> None:
        """Interrupt a running ``process`` of ours — unless it is the caller."""
        if process is not None and process.is_alive:
            if process is not self.env.active_process:
                process.interrupt(reason)

    def bootstrap_election(self) -> None:
        """Trigger the group's first election (call on one member)."""
        self.coordinator_mgr.bootstrap()

    @property
    def is_coordinator(self) -> bool:
        return self.coordinator_mgr.is_coordinator

    @property
    def coordinator(self) -> Optional[PeerId]:
        return self.coordinator_mgr.coordinator

    # -- inbound requests --------------------------------------------------------------

    def _on_exec(self, message: EndpointMessage) -> None:
        request: ExecRequest = message.payload
        if request.group_id != self.group_id or not self.node.up:
            return
        self.endpoint.add_route(request.reply_to, request.reply_addr)
        if request.observed_epoch is not None and self.epoch_fencing:
            # Client-carried fencing token: a coordinator whose term is
            # below it re-elects (minting above it) instead of serving
            # results the proxy would have to discard as stale.
            self.coordinator_mgr.elector.observe_external_epoch(
                request.observed_epoch
            )
        if self._journal_answer(request):
            # A retried invocation this group already completed: replay
            # the canonical result — any member holding the replicated
            # entry can answer, coordinator or not, under any epoch (the
            # result is committed; re-deriving it is what we must avoid).
            return
        if not self.is_coordinator:
            # §4.2: "the b-peer found may not be the coordinator. Therefore,
            # additional processing may need to be done to find the current
            # coordinator" — we hand the proxy a forward pointer.
            self._redirect(request)
            return
        current = self.coordinator_mgr.epoch
        if self.epoch_fencing and request.epoch is not None and request.epoch < current:
            # Fencing: the proxy is bound to a term this group has moved
            # past (e.g. we crashed/partitioned and were re-elected under a
            # fresh epoch).  Even though we ARE the coordinator, serving a
            # stale-term request could mask an interleaved takeover — bounce
            # it so the proxy re-binds under the current epoch.
            self.stale_epoch_rejections += 1
            self.node.network.obs.metrics.inc("bpeer.stale_epoch_rejections")
            self._redirect(request, value="stale-epoch")
            return
        if self._park_if_in_flight(request):
            return
        if self._park_for_sync(request):
            return
        self._admit(request)

    # -- exactly-once: journal replay, parking, replication -----------------------------

    def _journal_done(self, request: ExecRequest) -> Optional[ExecReply]:
        """The replayed canonical reply for a completed invocation, or None."""
        if not self.journal_enabled:
            return None
        entry = self.journal.lookup(request.invocation_id)
        if entry is None or not entry.done:
            return None
        self.journal.record_hit()
        self.node.network.obs.metrics.inc("bpeer.journal_hits")
        return self._replay_reply(entry, request)

    def _journal_answer(self, request: ExecRequest) -> bool:
        """Reply a completed invocation's canonical result; True if done."""
        replayed = self._journal_done(request)
        if replayed is None:
            return False
        self._reply(request, replayed)
        return True

    @staticmethod
    def _replay_reply(entry: JournalEntry, request: ExecRequest) -> ExecReply:
        """The stored reply, re-stamped for this attempt's request id."""
        return replace(
            entry.reply,
            request_id=request.request_id,
            invocation_id=request.invocation_id,
            deduped=True,
        )

    def _park_if_in_flight(self, request: ExecRequest) -> bool:
        """Park a retry whose invocation is executing here; True if parked.

        The in-flight execution's completion answers every parked copy
        from the journal.  A backstop timer converts a stuck park (lost
        completion report) into a ``busy`` reply — the proxy backs off
        and retries, still never executing the duplicate concurrently.
        """
        if not self.journal_enabled:
            return False
        if not self.implementation.mutating:
            # Re-executing a read-only operation is harmless, and parking
            # it would trade availability for a guarantee it does not
            # need — only side-effecting services park (CAP-style: safety
            # over liveness, but only where a duplicate would corrupt).
            return False
        entry = self.journal.lookup(request.invocation_id)
        if entry is None or entry.done:
            return False
        invocation_id = request.invocation_id
        self._parked.setdefault(invocation_id, []).append(request)
        self.requests_parked += 1
        self.node.network.obs.metrics.inc("bpeer.parked")
        if entry.origin is not None and entry.origin != self.peer_id:
            # The in-flight marker is another peer's write intent
            # (commit barrier).  Ask the origin what became of it — a
            # DONE answer replays to this parked retry, an "abandoned"
            # answer clears the intent so the next retry may execute.
            self._resolve_intent(invocation_id, entry.origin)
        timer = self.env.timeout(PARK_TIMEOUT)
        timer.add_callback(lambda _event: self._expire_parked(invocation_id, request))
        return True

    def _expire_parked(self, invocation_id: str, request: ExecRequest) -> None:
        waiting = self._parked.get(invocation_id)
        if not waiting or request not in waiting or not self.node.up:
            return
        waiting.remove(request)
        if not waiting:
            del self._parked[invocation_id]
        self._reply(request, self._busy_reply(request))

    def _serve_parked(self, invocation_id: str) -> None:
        """Answer every retry parked behind a now-completed invocation."""
        entry = self.journal.lookup(invocation_id)
        if entry is None or not entry.done:
            return
        for parked in self._parked.pop(invocation_id, []):
            self.journal.record_hit()
            self.node.network.obs.metrics.inc("bpeer.journal_hits")
            self._reply(parked, self._replay_reply(entry, parked))

    def _flush_parked(self, invocation_id: str, reply: ExecReply) -> None:
        """Answer parked retries with a non-result (the attempt failed)."""
        for parked in self._parked.pop(invocation_id, []):
            self._reply(parked, replace(reply, request_id=parked.request_id))

    def _journal_complete(self, request: ExecRequest, reply: ExecReply) -> ExecReply:
        """Record an execution's outcome in the journal.

        Results become the invocation's canonical ``DONE`` entry (first
        result wins — completing an already-done entry suppresses the
        duplicate and replays the stored value instead).  Non-results
        abandon the in-flight marker so a retry may execute afresh.
        """
        if not self.journal_enabled:
            return reply
        if reply.deduped:
            # Already a journal replay — the canonical entry exists.
            return reply
        invocation_id = request.invocation_id
        if reply.kind != "result":
            self.journal.abandon(invocation_id)
            if self.implementation.mutating:
                # Members recorded our write intent at the barrier;
                # withdraw it so a retry is not blocked behind a marker
                # for an attempt that applied nothing.
                self._clear_intent(invocation_id, self.peer_id)
            self._flush_parked(invocation_id, reply)
            return reply
        epoch = reply.epoch if reply.epoch is not None else self.coordinator_mgr.epoch
        canonical = replace(reply, invocation_id=invocation_id, epoch=epoch)
        entry, first = self._commit_result(invocation_id, canonical, epoch)
        return canonical if first else self._replay_reply(entry, request)

    def _commit_result(self, invocation_id: str, reply: ExecReply, epoch):
        """First result wins: make ``reply`` the invocation's DONE entry —
        replicated, parked retries answered — unless one exists already
        (a duplicate execution raced the canonical one through the
        delegation fallback; its value is suppressed in favour of the
        stored result).  Returns ``(entry, first)``."""
        entry, first = self.journal.complete(
            invocation_id, reply, epoch=epoch, now=self.env.now
        )
        if first:
            self._replicate_entry(entry)
            self._serve_parked(invocation_id)
        else:
            self.node.network.obs.metrics.inc("bpeer.duplicate_suppressed")
        return entry, first

    def _replicate_entry(self, entry: JournalEntry) -> None:
        """Eagerly replicate a mutating invocation's DONE entry group-wide.

        Read-only results stay local (re-executing them is harmless), so
        the steady-state message overhead of the journal is zero for
        lookup workloads; mutating results are broadcast at completion —
        atomically with the backend effect in simulation time — so a
        takeover coordinator can answer the retry instead of re-applying.
        """
        if not self.implementation.mutating:
            return
        view = self.groups.groups.get(self.group_id)
        members = view.sorted_members() if view is not None else []
        shipped = entry.replicable()
        for member in members:
            if member == self.peer_id:
                continue
            if self._tell(member, ("journal", shipped), "bpeer-journal", 288):
                self.node.network.obs.metrics.inc("bpeer.journal_replicated")

    def _on_coordinator_announced(self, coordinator: PeerId) -> None:
        """Journal-transfer handshake: ship DONE entries to a new winner."""
        if not self.journal_enabled:
            return
        if coordinator == self.peer_id:
            # We are the winner: pull the group's journal state into our
            # fresh term (the push below cannot help us — members that
            # never heard our announcement never push).
            if self.implementation.mutating:
                self._start_journal_sync()
            return
        # Only mutating results are replicated knowledge worth shipping —
        # a read-only entry replays locally at best, and pushing it would
        # tax every election on the Figure-4 read path.
        if not self.implementation.mutating:
            return
        if not self.node.up:
            return
        term = (coordinator, self.coordinator_mgr.epoch)
        if self._journal_pushed == term:
            return
        entries = self.journal.export()
        if not entries:
            return
        push = ("journal-push", entries)
        if self._tell(coordinator, push, "bpeer-journal", 96 + 288 * len(entries)):
            self._journal_pushed = term
            self.node.network.obs.metrics.inc("bpeer.journal_pushes")

    # -- exactly-once: takeover journal sync (pull side) --------------------------------
    #
    # The eager replication and the member push above are both
    # announcement-driven, so they share a blind spot: a coordinator whose
    # COORDINATOR message never reached the group (elected alone inside a
    # partition, winning after the heal because its epoch is highest)
    # takes over without ever being offered the entries the other side
    # completed meanwhile.  The takeover sync closes it from the other
    # direction — the new coordinator *pulls* from every member of its
    # current view, keeps re-pulling members that have not answered
    # (including ones that re-appear after a heal), and gates retried
    # mutations it does not recognise until the view is covered.

    def _start_journal_sync(self) -> None:
        """Begin (or continue) pulling journal state for our new term."""
        epoch = self.coordinator_mgr.epoch
        if self._sync_epoch == epoch:
            return
        self._sync_epoch = epoch
        self._sync_answered = set()
        self._interrupt(self._sync_proc, "superseded")
        self._sync_proc = self.node.spawn(
            self._journal_sync_loop(epoch), name=f"bpeer-journal-sync:{self.name}"
        )

    def _journal_sync_loop(self, epoch: Epoch):
        """Pull DONE entries from unanswered view members until covered."""
        try:
            while (
                self.node.up
                and self.coordinator_mgr.is_coordinator
                and self.coordinator_mgr.epoch == epoch
            ):
                pending = self._sync_pending()
                if not pending:
                    # View covered *now*; parked retries are answerable.
                    # Keep watching: a member re-joining the view (heal,
                    # restart) re-opens the pull until it answers too.
                    self._drain_sync_parked()
                else:
                    for member in pending:
                        self._tell(member, ("journal-pull", epoch), "bpeer-journal", 64)
                    self.node.network.obs.metrics.inc("bpeer.journal_pulls")
                yield self.env.timeout(JOURNAL_SYNC_PERIOD)
        except Interrupt:
            return
        # Term over (deposed or higher epoch seen): bounce what we gated
        # so the proxy re-binds and retries under the current coordinator.
        self._bounce_sync_parked()

    def _on_roster_change(self, group_id: PeerGroupId, peer_id: PeerId, change: str) -> None:
        if group_id != self.group_id:
            return
        if change == "joined":
            self._sync_roster.add(peer_id)
        elif change == "left":
            # Graceful departure: the leaver flushed its state and owes no
            # answer.  ("removed" — believed dead — stays in the roster.)
            self._sync_roster.discard(peer_id)
            self._sync_answered.discard(peer_id)

    def _sync_pending(self) -> List[PeerId]:
        """Roster members that have not answered our pull for this term.

        The pending set is the all-time roster, not the live view: a
        member the failure detector evicted may hold the only copy of an
        effect applied just before it vanished, so the sync is complete
        only when that member answers too (after its restart or heal).
        """
        return self._commit_cohort(exclude=self._sync_answered)

    def _park_for_sync(self, request: ExecRequest) -> bool:
        """Gate a retried mutation behind the takeover sync; True if parked.

        Only *retries* (attempt > 1) of mutating invocations we have no
        journal knowledge of are gated — a first attempt cannot have been
        applied anywhere yet, so fresh traffic never waits.  The gate is
        bounded: the sync covers the view within a round-trip when its
        members are reachable, unreachable members are evicted by the
        failure detector, and the park backstop converts anything stuck
        into a ``busy`` bounce.
        """
        if not self.journal_enabled:
            return False
        if not self.implementation.mutating or request.attempt <= 1:
            return False
        if self._sync_epoch != self.coordinator_mgr.epoch or not self._sync_pending():
            return False
        if self.journal.lookup(request.invocation_id) is not None:
            return False
        self._sync_parked.append(request)
        self.requests_parked += 1
        self.node.network.obs.metrics.inc("bpeer.sync_parked")
        timer = self.env.timeout(PARK_TIMEOUT)
        timer.add_callback(lambda _event: self._expire_sync_parked(request))
        return True

    def _expire_sync_parked(self, request: ExecRequest) -> None:
        if request not in self._sync_parked or not self.node.up:
            return
        self._sync_parked.remove(request)
        self._reply(request, self._busy_reply(request))

    def _drain_sync_parked(self) -> None:
        """Answer the gated retries now that the roster's journals merged.

        Replay or bounce — NEVER execute.  A parked copy may have been
        abandoned by the proxy long ago (it retries sequentially and
        moves on after its per-attempt timeout), and two rival
        coordinators can each hold such a copy of the same invocation:
        executing from the drain lets both apply it.  Bouncing ``busy``
        instead means execution only ever happens on the direct-arrival
        path, for the proxy's single *live* attempt — giving per-invocation
        mutual exclusion for free from the proxy's sequential retries.
        """
        if not self._sync_parked:
            return
        parked, self._sync_parked = self._sync_parked, []
        for request in parked:
            if self._journal_answer(request):
                continue
            self._reply(request, self._busy_reply(request, retry_after=0.0))

    def _bounce_sync_parked(self) -> None:
        parked, self._sync_parked = self._sync_parked, []
        for request in parked:
            self._reply(request, self._busy_reply(request))

    def _merge_journal_entries(self, entries: List[JournalEntry]) -> None:
        for entry in entries:
            if self.journal.merge(entry, now=self.env.now):
                self.node.network.obs.metrics.inc("bpeer.journal_merges")
            # Retries parked behind this invocation (it raced the
            # replication) are answerable now.
            self._serve_parked(entry.invocation_id)

    def _on_journal(self, payload, src_peer: PeerId) -> None:
        # Eager replication of a mutating invocation's result.
        if self.journal_enabled:
            self._merge_journal_entries([payload[1]])

    def _on_journal_push(self, payload, src_peer: PeerId) -> None:
        # Bulk journal transfer to a freshly elected coordinator.
        if self.journal_enabled:
            self._merge_journal_entries(payload[1])

    def _on_journal_pull(self, payload, src_peer: PeerId) -> None:
        # A takeover coordinator asks for our DONE entries.  Always
        # answer — an empty reply is still the "view member covered"
        # signal the puller's gate is waiting on.
        if self.journal_enabled:
            entries = self.journal.export()
            reply = ("journal-sync-reply", payload[1], entries)
            self._tell(src_peer, reply, "bpeer-journal", 96 + 288 * len(entries))

    def _on_journal_sync_reply(self, payload, src_peer: PeerId) -> None:
        # A member answered our takeover pull: merge its entries and,
        # once the whole view has answered for this term, open the
        # gate for the retries parked behind the sync.
        if self.journal_enabled:
            _mode, epoch, entries = payload
            self._merge_journal_entries(entries)
            if self._sync_epoch == epoch and epoch == self.coordinator_mgr.epoch:
                self._sync_answered.add(src_peer)
                if not self._sync_pending():
                    self._drain_sync_parked()

    # -- exactly-once: commit barrier (quorum write intent) ------------------------------
    #
    # The journal replication above is completion-driven, which leaves a
    # split-brain window: a coordinator isolated *after* applying an
    # effect cannot ship the DONE entry, and a rival coordinator (live
    # majority, or a deposed term the proxy fell back to) executes the
    # retry afresh — a double application no amount of after-the-fact
    # syncing can undo.  The commit barrier closes the window *before*
    # the effect: a mutating invocation executes only after a majority of
    # the group has durably recorded the coordinator's write intent.
    # Majorities intersect, so whichever coordinator reaches quorum
    # first is visible to any rival's barrier — the rival sees the
    # intent ("held"), bounces the retry, and the in-doubt question
    # "did the origin apply it?" is answered by the origin itself (its
    # apply + journal ``complete`` are atomic in simulation time), never
    # by a timeout.

    def _commit_cohort(self, exclude=frozenset()) -> List[PeerId]:
        """Peers whose acks count toward the commit quorum (not us, nor
        ``exclude``), refreshed from the live view, in canonical order.

        The all-time roster, not the live view: sizing the quorum to the
        failure detector's view lets an isolated minority shrink its
        denominator until it can "reach quorum" alone — the exact
        split-brain the barrier exists to prevent.
        """
        view = self.groups.groups.get(self.group_id)
        if view is not None:
            self._sync_roster.update(view.members)
        peers = self._sync_roster - {self.peer_id} - exclude
        return sorted(peers, key=lambda member: member.uuid_hex)

    def _commit_barrier(self, request: ExecRequest):
        """Quorum write intent before a mutating effect.

        Returns ``None`` when execution may proceed, or the
        :class:`ExecReply` to answer instead (a journal replay when a
        member already holds the result, else a ``busy`` bounce).
        """
        if not self.journal_enabled:
            return None
        if not self.implementation.mutating:
            return None
        cohort = self._commit_cohort()
        needed = _majority_acks(len(cohort))
        if needed <= 0:
            # Single-replica group: we are our own majority — no
            # messages, identical timing to the pre-barrier path.
            return None
        invocation_id = request.invocation_id
        epoch = self.coordinator_mgr.epoch
        token = next(self._intent_tokens)
        wait = _IntentWait(needed=needed, done=self.env.event(), held=set())
        self._intent_waits[token] = wait
        intent = ("intent", token, invocation_id, epoch, self.peer_id)
        for member in cohort:
            if self._tell(member, intent, "bpeer-journal", 96):
                wait.sent += 1
        self.node.network.obs.metrics.inc("bpeer.commit_intents")
        if wait.sent >= needed:
            yield Wait(self.env, wait.done, INTENT_TIMEOUT)
        self._intent_waits.pop(token, None)
        if wait.done_entry is not None:
            # Someone already holds the canonical result: replay, never
            # re-execute.
            self.journal.merge(wait.done_entry, now=self.env.now)
            self._serve_parked(invocation_id)
            replayed = self._journal_done(request)
            if replayed is not None:
                return replayed
        if wait.acks >= needed:
            return None
        # Blocked: no quorum (partitioned/deposed/rival intent).  Bounce
        # the proxy; it backs off, re-binds, and retries elsewhere.
        self.node.network.obs.metrics.inc("bpeer.commit_blocked")
        if self.epoch_fencing and wait.max_seen is not None:
            # A refusing member knew a fresher term — stand for
            # re-election above it instead of limping on deposed.
            self.coordinator_mgr.elector.observe_external_epoch(wait.max_seen)
        for origin in wait.held:
            self._resolve_intent(invocation_id, origin)
        entry = self.journal.lookup(invocation_id)
        if entry is not None and not entry.done and (
            entry.origin is None or entry.origin == self.peer_id
        ):
            # Our own intent: we know we did not apply — withdraw it so
            # a later attempt (here or at a rival) may execute afresh.
            self.journal.abandon(invocation_id)
            self._clear_intent(invocation_id, self.peer_id)
        busy = self._busy_reply(request)
        self._flush_parked(invocation_id, busy)
        return busy

    def _resolve_intent(self, invocation_id: str, origin: Optional[PeerId]) -> None:
        """Ask an in-doubt intent's origin whether the effect was applied.

        The origin's answer is authoritative: a DONE entry means applied
        (we merge and replay), no entry means abandoned (we clear the
        intent group-wide so a retry may execute).  No answer — origin
        crashed or partitioned — keeps the invocation blocked until the
        origin is reachable again; guessing here is the double-apply.
        """
        if origin is None or origin == self.peer_id:
            return
        if invocation_id in self._intent_resolving:
            return
        self._intent_resolving.add(invocation_id)
        probe = ("intent-status", invocation_id, self.peer_id)
        if not self._tell(origin, probe, "bpeer-journal", 64):
            self._intent_resolving.discard(invocation_id)
            return
        timer = self.env.timeout(INTENT_RESOLVE_TIMEOUT)
        timer.add_callback(
            lambda _event: self._intent_resolving.discard(invocation_id)
        )

    def _clear_intent(self, invocation_id: str, origin: PeerId) -> None:
        """Best-effort broadcast: drop the origin's abandoned intent."""
        clear = ("intent-clear", invocation_id, origin)
        for member in self._commit_cohort():
            self._tell(member, clear, "bpeer-journal", 64)

    def _on_intent(self, payload, src_peer: PeerId) -> None:
        # A coordinator asks us to record its write intent before it
        # applies a mutating effect (commit barrier).
        _mode, token, invocation_id, epoch, origin = payload
        status: str = "ok"
        extra: Any = None
        seen: Optional[Epoch] = None
        if self.journal_enabled:
            max_seen = self.coordinator_mgr.elector.max_epoch_seen
            if self.epoch_fencing and epoch is not None and max_seen > epoch:
                # Fencing: the asker's term is already superseded —
                # deny it quorum and tell it what we know.
                status, seen = "stale", max_seen
            else:
                entry = self.journal.lookup(invocation_id)
                if entry is not None and entry.done:
                    status, extra = "done", entry.replicable()
                elif entry is not None:
                    # A rival's intent (or the asker's own earlier
                    # one) is already on file: report who holds it.
                    status, extra = "held", entry.origin
                else:
                    self.journal.begin(
                        invocation_id, epoch=epoch, now=self.env.now, origin=origin
                    )
                    self.node.network.obs.metrics.inc("bpeer.intents_recorded")
        reply = ("intent-reply", token, status, extra, seen)
        size_bytes = 96 if status != "done" else 96 + 288
        self._tell(src_peer, reply, "bpeer-journal", size_bytes)

    def _on_intent_reply(self, payload, src_peer: PeerId) -> None:
        _mode, token, status, extra, seen = payload
        wait = self._intent_waits.get(token)
        if wait is not None:
            wait.responses += 1
            if status == "ok":
                wait.acks += 1
            elif status == "done":
                wait.done_entry = extra
            elif status == "held":
                if extra == self.peer_id:
                    # The member still holds OUR earlier intent — we
                    # are its origin and know it was withdrawn, so it
                    # counts as an ack.
                    wait.acks += 1
                else:
                    wait.held.add(extra)
            elif status == "stale":
                if seen is not None and (wait.max_seen is None or seen > wait.max_seen):
                    wait.max_seen = seen
            if wait.decided() and not wait.done.triggered:
                wait.done.succeed()

    def _on_intent_clear(self, payload, src_peer: PeerId) -> None:
        # An intent's origin (or a resolver acting on its authority)
        # withdrew it: the invocation was never applied there.
        _mode, invocation_id, origin = payload
        if self.journal_enabled:
            entry = self.journal.lookup(invocation_id)
            if entry is not None and not entry.done and entry.origin == origin:
                self.journal.abandon(invocation_id)

    def _on_intent_status(self, payload, src_peer: PeerId) -> None:
        # In-doubt resolution: only we can say whether our intent's
        # effect was applied (apply + complete are atomic here).
        _mode, invocation_id, asker = payload
        if self.journal_enabled:
            entry = self.journal.lookup(invocation_id)
            if entry is not None and entry.done:
                outcome: Any = entry.replicable()
            elif entry is not None and entry.origin == self.peer_id:
                outcome = "pending"  # still executing — keep waiting
            else:
                outcome = None  # abandoned (or never ours): not applied
            reply = ("intent-status-reply", invocation_id, outcome)
            self._tell(src_peer, reply, "bpeer-journal", 96)

    def _on_intent_status_reply(self, payload, src_peer: PeerId) -> None:
        _mode, invocation_id, outcome = payload
        self._intent_resolving.discard(invocation_id)
        if self.journal_enabled and outcome != "pending":
            if outcome is None:
                # The origin abandoned the intent: clear it here and
                # group-wide so a retry may execute afresh.
                entry = self.journal.lookup(invocation_id)
                if entry is not None and not entry.done and entry.origin == src_peer:
                    self.journal.abandon(invocation_id)
                self._clear_intent(invocation_id, src_peer)
            else:
                if self.journal.merge(outcome, now=self.env.now):
                    self.node.network.obs.metrics.inc("bpeer.journal_merges")
                self._serve_parked(invocation_id)

    # -- admission control & dispatch (coordinator-side) -------------------------------

    def _admit(self, request: ExecRequest) -> None:
        """Admission control: enqueue with a dispatch target, or shed.

        The dispatch decision is made here, at arrival, so the bound is
        checked against the member that would actually serve the request
        (least-outstanding sheds only when the *whole group* is full;
        blind round-robin sheds whenever its rotation lands on a full
        member — that difference is the policies' throughput gap under
        heterogeneous backends).
        """
        if self._ledger_epoch != self.coordinator_mgr.epoch:
            self._member_load.clear()
            self._ledger_epoch = self.coordinator_mgr.epoch
        target = self._dispatch_target()
        state = self._load_for(target)
        if self.queue_bound is not None and state.outstanding >= self.queue_bound:
            self._shed(request)
            return
        if self.journal_enabled:
            # In-flight marker: a retry arriving while this runs is parked
            # (never concurrently executed); the delegation-timeout
            # fallback reconciles late results against it (first wins).
            self.journal.begin(
                request.invocation_id,
                request=request,
                epoch=self.coordinator_mgr.epoch,
                now=self.env.now,
                origin=self.peer_id,
            )
        state.outstanding += 1
        self.node.network.obs.metrics.observe(
            "bpeer.queue_depth", self._total_outstanding(), bounds=QUEUE_DEPTH_BUCKETS
        )
        self._queue.push((self._serve, (request, target)))

    def _dispatch_members(self) -> List[PeerId]:
        """Members eligible for dispatch (ourselves when not load-sharing).

        Members the failure detector has removed from the group view (a
        crashed coordinator, silent election candidates) are skipped by
        every policy; their ledger entries are dropped here so leaked
        counts cannot poison admission.  Crashed followers are *not*
        detected — the proxy's timeout-and-retry masks them instead.
        """
        if not self.load_sharing:
            return [self.peer_id]
        view = self.groups.groups.get(self.group_id)
        members = view.sorted_members() if view is not None else []
        if not members:
            return [self.peer_id]
        current = set(members)
        for member in list(self._member_load):
            if member not in current:
                del self._member_load[member]
        return members

    def _dispatch_target(self) -> PeerId:
        members = self._dispatch_members()
        if len(members) == 1:
            return members[0]
        choice = self.dispatch.choose(members, self._member_load)
        return choice if choice is not None else self.peer_id

    def _load_for(self, member: PeerId) -> MemberLoad:
        state = self._member_load.get(member)
        if state is None:
            state = self._member_load[member] = MemberLoad()
        return state

    def _release_load(self, member: PeerId) -> None:
        state = self._member_load.get(member)
        if state is not None and state.outstanding > 0:
            state.outstanding -= 1

    def _total_outstanding(self) -> int:
        return sum(state.outstanding for state in self._member_load.values())

    def _shed(self, request: ExecRequest) -> None:
        """Refuse the request with a ``busy`` reply + retry-after hint."""
        self.requests_shed += 1
        self.node.network.obs.metrics.inc("bpeer.shed")
        self._reply(request, self._busy_reply(request))

    def _busy_reply(
        self, request: ExecRequest, retry_after: Optional[float] = None
    ) -> ExecReply:
        """The one ``busy`` bounce (shed, park expiry, sync drain/bounce,
        barrier blocked): hint defaults to the least-loaded member's ETA."""
        if retry_after is None:
            retry_after = self._retry_after_hint()
        return ExecReply(
            request_id=request.request_id,
            kind="busy",
            retry_after=retry_after,
            epoch=self.coordinator_mgr.epoch,
            invocation_id=request.invocation_id,
        )

    def _retry_after_hint(self) -> float:
        """ETA (seconds) until the least-loaded member frees a slot."""
        best: Optional[float] = None
        for member in self._dispatch_members():
            state = self._member_load.get(member)
            outstanding = state.outstanding if state is not None else 0
            per_request = (
                state.qos.time
                if state is not None and state.qos is not None
                else self.implementation.service_time
            )
            eta = per_request * max(1, outstanding)
            if best is None or eta < best:
                best = eta
        return best if best is not None else self.implementation.service_time

    def _redirect(self, request: ExecRequest, value: Any = None) -> None:
        """Answer ``not-coordinator`` with a forward pointer (``value``
        names the reason when it is not plain mis-binding)."""
        self.requests_redirected += 1
        self._reply(
            request,
            ExecReply(
                request_id=request.request_id,
                kind="not-coordinator",
                value=value,
                coordinator=self._coordinator_pointer(),
            ),
        )

    def _coordinator_pointer(self) -> Optional[Tuple]:
        """Forward pointer ``(peer, address, epoch)`` for redirects."""
        coordinator = self.coordinator
        if coordinator is None:
            return None
        if coordinator == self.peer_id:
            address: Optional[Address] = self.endpoint.address
        else:
            address = self.endpoint.route_for(coordinator)
        return (coordinator, address, self.coordinator_mgr.epoch)

    # -- the worker (one request at a time, like a single-threaded JVM peer) -------------

    def _work_loop(self):
        try:
            while True:
                serve, item = yield self._queue.get()
                # Mid-execution marker: the autoscaler's drain must not
                # retire this peer between dequeue and completion.
                self._busy = True
                try:
                    yield from serve(*item)
                finally:
                    self._busy = False
        except Interrupt:
            return

    def _serve(self, request: ExecRequest, target: PeerId):
        blocked = yield from self._commit_barrier(request)
        if blocked is not None:
            self._reply(request, blocked)
            self._release_load(target)
            return
        if target != self.peer_id:
            # Spread load: the member executes and answers the proxy; its
            # completion report releases the ledger slot.
            self.requests_delegated += 1
            if self._tell(target, ("direct", request), "bpeer-delegate", 512):
                return
            # Fall through to local execution; move the accounting.
            self._release_load(target)
            self._load_for(self.peer_id).outstanding += 1
        if not self._fire_pre_commit(request):
            return
        reply = yield from self._execute_or_delegate(request)
        reply = self._journal_complete(request, reply)
        self._reply(request, reply)
        self._release_load(self.peer_id)
        self._load_for(self.peer_id).qos = self.qos_profile.snapshot()

    def _fire_pre_commit(self, request: ExecRequest) -> bool:
        """Fire the pre-commit decision point; True when execution may
        proceed.  A hook that crashes this node aborts the request before
        its side effect — the canonical crash-between-admission-and-commit
        window the exactly-once machinery must tolerate."""
        if self.pre_commit_hook is not None:
            self.pre_commit_hook(self, request)
        return self.node.up

    def _execute_or_delegate(self, request: ExecRequest):
        """Try locally; on backend unavailability, try each other member."""
        reply = yield from self._execute_local(request)
        if reply.kind != "cannot-serve":
            return reply
        # §4.1: a semantically equivalent peer transparently takes over.
        for member in self.groups.groups[self.group_id].sorted_members():
            if member == self.peer_id:
                continue
            replayed = self._journal_done(request)
            if replayed is not None:
                # The result landed via replication or a late relay-reply
                # while we waited out a delegation — stop fanning out.
                return replayed
            delegated = yield from self._delegate_to(member, request)
            if delegated is not None and delegated.kind != "cannot-serve":
                return delegated
        return reply  # everyone's backend is down

    def _execute_local(self, request: ExecRequest):
        obs = self.node.network.obs
        started = self.env.now
        yield self.env.timeout(self.implementation.service_time)
        backend = self.implementation.backend
        writes_before = backend.writes
        try:
            value = self.implementation.invoke(request.arguments)
        except BackendUnavailable:
            self.qos_profile.record_failure()
            obs.metrics.inc("bpeer.backend_unavailable")
            return ExecReply(request_id=request.request_id, kind="cannot-serve")
        except Exception as error:  # the client's mistake, else an implementation bug
            self._ledger_effect(request, backend, writes_before)
            obs.metrics.inc("bpeer.faults")
            client = isinstance(error, (RecordNotFound, ValueError))
            return ExecReply(
                request_id=request.request_id,
                kind="fault",
                fault_code="Client" if client else "Server",
                value=str(error) if client else f"{type(error).__name__}: {error}",
            )
        self._ledger_effect(request, backend, writes_before)
        self.requests_executed += 1
        self.qos_profile.record_success(self.env.now - started)
        obs.metrics.inc("bpeer.executed")
        obs.observe_phase("execute", self.env.now - started)
        return ExecReply(
            request_id=request.request_id,
            kind="result",
            value=value,
            served_by=self.implementation.name,
        )

    def _ledger_effect(self, request: ExecRequest, backend, writes_before: int) -> None:
        """Audit trail: ledger the write batch this execution applied.

        Recorded even with the journal disabled — the at-least-once
        baseline must expose its duplicate applications to the campaign's
        duplicate-execution audit, not hide them.
        """
        if backend.writes > writes_before:
            backend.record_effect(request.invocation_id, self.name)

    # -- delegation (coordinator -> member) -----------------------------------------------

    def _delegate_to(self, member: PeerId, request: ExecRequest):
        delegation_id = next(self._delegation_ids)
        delegation = _Delegation(request=request, done=self.env.event())
        self._delegations[delegation_id] = delegation
        relay = ("relay", delegation_id, self.peer_id, request)
        if not self._tell(member, relay, "bpeer-delegate", 512):
            del self._delegations[delegation_id]
            return None
        self.requests_delegated += 1
        yield Wait(self.env, delegation.done, DELEGATION_TIMEOUT)
        self._delegations.pop(delegation_id, None)
        return delegation.reply

    def _on_delegate(self, payload, src_peer: PeerId, group_id: PeerGroupId) -> None:
        """Every group-protocol message lands here: one lookup by mode."""
        if group_id != self.group_id or not self.node.up:
            return
        handler = self._group_handlers.get(payload[0])
        if handler is not None:
            handler(payload, src_peer)

    def _on_direct(self, payload, src_peer: PeerId) -> None:
        # Load-sharing: execute and answer the proxy ourselves; the
        # sending coordinator gets a completion report afterwards so
        # its load ledger stays truthful.
        _mode, request = payload
        self.endpoint.add_route(request.reply_to, request.reply_addr)
        self._queue.push((self._serve_delegated, (None, src_peer, request)))

    def _on_relay(self, payload, src_peer: PeerId) -> None:
        _mode, delegation_id, coordinator, request = payload
        self._queue.push((self._serve_delegated, (delegation_id, coordinator, request)))

    def _on_relay_reply(self, payload, src_peer: PeerId) -> None:
        _mode, delegation_id, reply = payload
        delegation = self._delegations.get(delegation_id)
        if delegation is not None:
            delegation.reply = reply
            if not delegation.done.triggered:
                delegation.done.succeed()
        else:
            self._reconcile_late_reply(reply)

    def _on_report(self, payload, src_peer: PeerId) -> None:
        # A member finished a direct-dispatched request: release its
        # ledger slot and refresh its QoS snapshot (feeds the
        # least-outstanding and QoS-weighted policies).  Since PR 4 the
        # report piggybacks the member's DONE journal entry — free
        # replication back to the dispatching coordinator.
        _mode, member, qos, entry = payload
        self._release_load(member)
        self._load_for(member).qos = qos
        if entry is not None and self.journal_enabled:
            self._merge_journal_entries([entry])

    def _reconcile_late_reply(self, reply: ExecReply) -> None:
        """Reconcile a member's answer that arrived after its delegation
        timed out.  The fallback may have moved on to another member; the
        in-flight journal entry (tombstone) already guards against a
        concurrent retry, and committing the first result here means any
        slower duplicate is suppressed at completion time (first result
        wins) instead of double-delivered."""
        if not self.journal_enabled or reply.invocation_id is None:
            return
        if reply.kind != "result" or reply.deduped:
            return
        _entry, first = self._commit_result(reply.invocation_id, reply, reply.epoch)
        if first:
            self.node.network.obs.metrics.inc("bpeer.late_replies_reconciled")

    def _serve_delegated(self, delegation_id, coordinator, request: ExecRequest):
        """Serve work a coordinator handed us (``delegation_id`` is None
        for a load-sharing ``direct`` dispatch, set for a ``relay``)."""
        direct = delegation_id is None
        reply = self._journal_done(request)
        if reply is None:
            if not self._fire_pre_commit(request):
                return
            if direct:
                # Load-sharing: we answer the proxy ourselves — but if our
                # own backend is down, chain through the group like a
                # coordinator would (§4.1's transparent takeover applies
                # here too).
                reply = yield from self._execute_or_delegate(request)
            else:
                # Relay mode: execute locally only (the *coordinator* owns
                # the delegation chain; a delegate that also delegated
                # could loop).
                reply = yield from self._execute_local(request)
            reply = self._journal_complete(request, reply)
        if direct:
            self._reply(request, reply)
            self._report_to(coordinator, entry=self._piggyback_entry(request, reply))
        else:
            relay_reply = ("relay-reply", delegation_id, reply)
            self._tell(coordinator, relay_reply, "bpeer-delegate", 512)

    def _report_to(
        self, coordinator: Optional[PeerId], entry: Optional[JournalEntry] = None
    ) -> None:
        """Completion report to the dispatching coordinator (+ journal entry)."""
        if coordinator is None or coordinator == self.peer_id:
            return
        report = ("report", self.peer_id, self.qos_profile.snapshot(), entry)
        size_bytes = 96 if entry is None else 96 + 288
        self._tell(coordinator, report, "bpeer-load-report", size_bytes)

    def _piggyback_entry(
        self, request: ExecRequest, reply: ExecReply
    ) -> Optional[JournalEntry]:
        """The DONE entry a completion report should carry, if any."""
        if not self.journal_enabled:
            return None
        if reply.kind != "result":
            return None
        entry = self.journal.lookup(request.invocation_id)
        if entry is None or not entry.done:
            return None
        return entry.replicable()

    # -- coordinator discovery (proxy-side resolver queries) ---------------------------------

    def _on_coordinator_query(self, query) -> Optional[Any]:
        group_id = query.payload
        if group_id != self.group_id or not self.node.up:
            return None
        # ``(peer, address, epoch)``, or None while there is no coordinator
        # — the epoch lets a proxy facing conflicting answers (split-brain)
        # prefer the freshest claim.
        return self._coordinator_pointer()

    # -- plumbing ----------------------------------------------------------------------------

    def _tell(self, member: PeerId, payload: Tuple, category: str, size_bytes: int) -> bool:
        """Send one group-protocol message (DESIGN.md §6.7); False when
        ``member`` is unresolvable (no route) — nothing was sent, and every
        caller treats that like a lost message."""
        try:
            self.groups.send_to_member(
                self.group_id,
                member,
                PROTO_DELEGATE,
                payload,
                category=category,
                size_bytes=size_bytes,
            )
        except UnresolvablePeerError:
            return False
        return True

    def _reply(self, request: ExecRequest, reply: ExecReply) -> None:
        if reply.epoch is None and reply.kind in ("result", "fault"):
            # Stamp the term the work was done under so the proxy can
            # discard results that raced with a takeover.
            reply.epoch = self.coordinator_mgr.epoch
        try:
            self.endpoint.send(
                request.reply_to,
                PROTO_EXEC_REPLY,
                reply,
                category="bpeer-reply",
                size_bytes=768,
            )
        except UnresolvablePeerError:
            pass

    def _on_crash(self) -> None:
        self._delegations.clear()
        self._member_load.clear()
        self._ledger_epoch = None
        # Exactly-once state: DONE entries model durable storage (like the
        # persisted election epoch) and survive the crash; in-flight
        # markers and parked retries are memory and do not — a restarted
        # peer may execute those invocations afresh.
        self._forget_serving_state()
        self._sync_parked.clear()
        self._intent_waits.clear()
        self._intent_resolving.clear()
        self.journal.drop_executing()

    def __repr__(self) -> str:
        role = "coordinator" if self.is_coordinator else "member"
        return f"<BPeer {self.name} {role} of {self.group_name}>"
