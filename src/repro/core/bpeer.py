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
:class:`~repro.core.dispatch.DispatchPolicy` (blind round-robin or
least-outstanding); with a ``queue_bound`` set, the
coordinator additionally runs admission control — when every eligible
member is at its bound the request is *shed* with a ``busy`` reply
carrying a retry-after hint, instead of queueing without limit.

One implementation per concern: ``_tell`` sends every group-protocol
message and ``_on_delegate`` receives them through one ``{mode: handler}``
lookup (the protocol table is DESIGN.md §6.7); ``_reply`` answers the
proxy, ``_busy_reply`` / ``_redirect`` build the ``busy`` and
``not-coordinator`` bounces.  Exactly-once has no off switch and lives in
one object, ``self.exactly_once`` (:class:`~repro.core.journal.ExactlyOnce`,
DESIGN.md §6.20): the b-peer asks it to answer, park, begin, pass the
commit barrier and complete each request, and hands it the nine journal
modes; the b-peer keeps admission, dispatch, delegation and execution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
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
from .journal import ENTRY_BYTES, ExactlyOnce, JournalEntry

__all__ = ["BPeer", "ExecRequest", "ExecReply"]

PROTO_EXEC = "whisper:exec"
PROTO_EXEC_REPLY = "whisper:exec-reply"
PROTO_DELEGATE = "whisper:delegate"
COORD_HANDLER = "whisper:coordinator"

#: How long a coordinator waits for a delegated member to answer.
DELEGATION_TIMEOUT = 1.0

#: Period of semantic-advertisement republication (JXTA republishes
#: advertisements periodically; this is what repopulates the rendezvous'
#: SRDI index after a rendezvous restart).
REPUBLISH_PERIOD = 10.0

#: Histogram bounds for the coordinator's queue-depth metric (requests
#: outstanding across the group at admission time — counts, not seconds).
QUEUE_DEPTH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


@dataclass(slots=True)
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


@dataclass(slots=True)
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
    done: Any  # simulation event
    reply: Optional[ExecReply] = None


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
        )
        #: The exactly-once protocol (DESIGN.md §6.20): the dedup journal,
        #: the park table, the commit barrier and the takeover sync.
        self.exactly_once = ExactlyOnce(
            node, self.peer_id, self.coordinator_mgr,
            view=partial(self.groups.groups.get, group_id),
            tell=partial(self._tell, category="bpeer-journal"),
            reply=self._reply, busy=self._busy_reply,
            mutating=implementation.mutating, capacity=config.journal_capacity,
        )  # fmt: skip
        self.journal = self.exactly_once.journal
        self.groups.on_membership_change(self._on_roster_change)
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
            **self.exactly_once.handlers,
        }
        self.endpoint.register_listener(PROTO_EXEC, self._on_exec)
        self.groups.register_group_listener(PROTO_DELEGATE, self._on_delegate)
        self.resolver.register_handler(COORD_HANDLER, self._on_coordinator_query)
        # Journal-transfer handshake: whenever a new coordinator is
        # announced, members ship it their replicated DONE entries so the
        # takeover answers retried calls from the journal.
        self.coordinator_mgr.elector.on_coordinator_elected(self.exactly_once.start_term)
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
        for process in (self._worker, self._republisher):
            self._interrupt(process, "shutdown")
        self.exactly_once.reset(crash=False)
        self._worker = self._republisher = None
        self._queue.items.clear()

    def pending_work(self) -> Tuple[int, int]:
        """``(queued or executing, parked)`` requests — what a retirement
        drain waits on before this peer may leave."""
        queued = len(self._queue.items) + (1 if self._busy else 0)
        return queued, self.exactly_once.parked_count()

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
        if request.observed_epoch is not None:
            # Client-carried fencing token: a coordinator whose term is
            # below it re-elects (minting above it) instead of serving
            # results the proxy would have to discard as stale.
            self.coordinator_mgr.elector.observe_external_epoch(
                request.observed_epoch
            )
        if self.exactly_once.answer(request):
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
        if request.epoch is not None and request.epoch < current:
            # Fencing: the proxy is bound to a term this group has moved
            # past (e.g. we crashed/partitioned and were re-elected under a
            # fresh epoch).  Even though we ARE the coordinator, serving a
            # stale-term request could mask an interleaved takeover — bounce
            # it so the proxy re-binds under the current epoch.
            self.stale_epoch_rejections += 1
            self.node.network.obs.metrics.inc("bpeer.stale_epoch_rejections")
            self._redirect(request, value="stale-epoch")
            return
        if not self.exactly_once.park(request):
            self._admit(request)

    def _on_roster_change(self, group_id: PeerGroupId, peer_id: PeerId, change: str) -> None:
        if group_id == self.group_id:
            self.exactly_once.on_roster_change(peer_id, change)

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
        # In-flight marker (mutating groups): a retry arriving while this
        # runs is parked (never concurrently executed); a duplicate result
        # the delegation fallback produces is suppressed at completion
        # (first wins).
        self.exactly_once.begin(request)
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
        """The one ``busy`` bounce (shed, park expiry, sync drain, parked
        bounce, barrier blocked): hint defaults to the least-loaded
        member's ETA."""
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
        blocked = yield from self.exactly_once.barrier(request)
        if blocked is not None:
            self._reply(request, blocked)
            self._release_load(target)
            return
        if target != self.peer_id:
            # Spread load: the member executes and answers the proxy; its
            # completion report releases the ledger slot.
            self.requests_delegated += 1
            if self._tell(target, ("direct", request), 512, "bpeer-delegate"):
                return
            # Fall through to local execution; move the accounting.
            self._release_load(target)
            self._load_for(self.peer_id).outstanding += 1
        if not self._fire_pre_commit(request):
            return
        reply = yield from self._execute_or_delegate(request)
        reply = self.exactly_once.complete(request, reply)
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
            replayed = self.exactly_once.replay(request)
            if replayed is not None:
                # The result landed via replication (a timed-out relay
                # delegate broadcasts its DONE entry) while we waited out
                # a delegation — stop fanning out.
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

        Recorded per execution, not per journal entry — so an invocation
        the journal failed to dedup (e.g. its DONE entry was evicted) shows
        up twice in the exactly-once audit rather than hiding.
        """
        if backend.writes > writes_before:
            backend.record_effect(request.invocation_id, self.name)

    # -- delegation (coordinator -> member) -----------------------------------------------

    def _delegate_to(self, member: PeerId, request: ExecRequest):
        delegation_id = next(self._delegation_ids)
        delegation = _Delegation(done=self.env.event())
        self._delegations[delegation_id] = delegation
        relay = ("relay", delegation_id, self.peer_id, request)
        if not self._tell(member, relay, 512, "bpeer-delegate"):
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

    def _on_report(self, payload, src_peer: PeerId) -> None:
        # A member finished a direct-dispatched request: release its
        # ledger slot and refresh its QoS snapshot (feeds the
        # least-outstanding policy and the busy reply's retry-after
        # hint).  A mutating request's report piggybacks the member's DONE
        # journal entry — free replication back to the dispatching
        # coordinator; a read's result stays on the member that served it.
        _mode, member, qos, entry = payload
        self._release_load(member)
        self._load_for(member).qos = qos
        if entry is not None:
            self.exactly_once.merge([entry])

    def _serve_delegated(self, delegation_id, coordinator, request: ExecRequest):
        """Serve work a coordinator handed us (``delegation_id`` is None
        for a load-sharing ``direct`` dispatch, set for a ``relay``)."""
        direct = delegation_id is None
        reply = self.exactly_once.replay(request)
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
            reply = self.exactly_once.complete(request, reply)
        if direct:
            self._reply(request, reply)
            self._report_to(coordinator, self.exactly_once.report_entry(request, reply))
        else:
            relay_reply = ("relay-reply", delegation_id, reply)
            self._tell(coordinator, relay_reply, 512, "bpeer-delegate")

    def _report_to(self, coordinator: Optional[PeerId], entry: Optional[JournalEntry]) -> None:
        """Completion report to the dispatching coordinator (+ a mutating
        request's DONE entry)."""
        if coordinator is None or coordinator == self.peer_id:
            return
        report = ("report", self.peer_id, self.qos_profile.snapshot(), entry)
        size_bytes = 96 if entry is None else 96 + ENTRY_BYTES
        self._tell(coordinator, report, size_bytes, "bpeer-load-report")

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

    def _tell(self, member: PeerId, payload: Tuple, size_bytes: int, category: str) -> bool:
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
        self._worker = self._republisher = None
        self._queue.items.clear()
        self.exactly_once.reset(crash=True)

    def __repr__(self) -> str:
        role = "coordinator" if self.is_coordinator else "member"
        return f"<BPeer {self.name} {role} of {self.group_name}>"
