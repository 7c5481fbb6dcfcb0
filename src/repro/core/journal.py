"""Exactly-once invocation across failover: the dedup journal and the
protocol around it (DESIGN.md §6.16, §6.20).

The recovery stack is at-least-once by construction — the proxy re-sends
after every timeout and the coordinator's delegation fallback tries the
next member while the first may still be executing.  For read-only
lookups that is merely wasteful; for the paper's B2B operations with side
effects (§1: purchase orders, enrollment) a retried call can mutate the
backend twice.

Following the group-replicated service state of Jan et al. ("Exploiting
peer group concept for adaptive and highly available services",
PAPERS.md), every b-peer keeps a bounded :class:`DedupJournal` keyed by
the proxy-minted *invocation id* (idempotency key):

* ``EXECUTING`` — the invocation is in flight here; a retried copy is
  *parked* until the in-flight execution finishes, instead of executing
  again;
* ``DONE`` — the invocation completed; the canonical
  :class:`~repro.core.bpeer.ExecReply` is replayed to any retry without
  touching the backend.

:class:`ExactlyOnce` is one b-peer's side of the protocol, in three parts:

* *Replication.*  A mutating invocation's ``DONE`` entry is broadcast at
  completion and piggybacked on load-sharing reports, so every member
  can answer a retried call from the journal instead of re-executing it.
  A read-only group's entries do neither: nothing is recorded before a
  read executes, and its ``DONE`` entry stays on the peer that served it.
* *Takeover sync.*  Broadcast misses a member that was down or cut off
  when the entry went out.  So a new coordinator *pulls* the group's
  ``DONE`` entries from every member of the all-time roster, re-pulling
  until each has answered, and gates retried mutations it does not
  recognise until then.  The pull is the only transfer at the start of a
  term: it also reaches a coordinator whose announcement never reached
  the group (elected alone inside a partition, winning after the heal on
  epoch height).
* *Commit barrier.*  Replication is completion-driven, so a coordinator
  isolated *after* applying an effect cannot ship its entry and a rival
  would apply the retry again.  A mutating invocation therefore executes
  only after a majority of the roster recorded the coordinator's write
  intent.  Majorities intersect, so a rival's barrier sees the intent
  ("held") and bounces the retry; whether the effect was applied is asked
  of the intent's origin (its apply and ``complete`` are atomic in
  simulation time), never guessed from a timeout.

Entries are epoch-aware (they record the coordinator term that produced
the result) and the journal is bounded: once ``capacity`` is exceeded the
oldest ``DONE`` entries are evicted — an evicted entry degrades that
invocation back to at-least-once, which the exactly-once audit surfaces
(the negative control of ``tests/core/test_exactly_once.py``), so
capacity is sized well above the retry horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import count
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..simnet.events import Interrupt, Wait

if TYPE_CHECKING:
    from .bpeer import ExecReply, ExecRequest

__all__ = [
    "DedupJournal", "ExactlyOnce", "JournalEntry", "JournalStats", "EXECUTING", "DONE",
]

#: Entry states.
EXECUTING = "executing"
DONE = "done"

#: Modelled wire size of one replicated entry (reply and value included).
ENTRY_BYTES = 288

#: Evictions between two rebuilds of a journal's dict (``_evict``).
COMPACT_EVERY = 512


@dataclass(slots=True)
class JournalEntry:
    """One invocation's dedup record.

    ``reply`` is the canonical :class:`~repro.core.bpeer.ExecReply` once
    the entry is ``DONE`` (replayed, re-stamped, to every retry).  A
    ``DONE`` entry is born ``DONE`` and never written again, so it is
    shipped as itself and the group holds one object per invocation.
    """

    invocation_id: str
    state: str = EXECUTING
    reply: Optional[Any] = None
    #: Coordinator epoch the execution ran under (fencing/audit context).
    epoch: Optional[Any] = None
    #: For ``EXECUTING`` entries: the peer that holds the write intent —
    #: the only peer whose journal can say whether the effect was applied
    #: (its apply + ``complete`` are atomic).  An in-doubt intent is
    #: resolved by asking the origin, never by timing it out.
    origin: Optional[Any] = None

    @property
    def done(self) -> bool:
        return self.state == DONE


@dataclass
class JournalStats:
    """Operational counters, folded into campaign/bench reports."""

    #: Retries answered from a ``DONE`` entry without executing.
    hits: int = 0
    #: Replicated entries accepted from other peers.
    merges: int = 0
    #: ``complete`` calls that found the entry already ``DONE`` — a
    #: duplicate execution result that was suppressed, not delivered.
    duplicates_suppressed: int = 0
    #: ``DONE`` entries dropped to keep the journal bounded.
    evictions: int = 0


class DedupJournal:
    """Bounded, epoch-aware dedup/result journal for one peer."""

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("journal capacity must be >= 1")
        self.capacity = capacity
        #: Insertion-ordered: the head is the oldest entry.
        self._entries: Dict[str, JournalEntry] = {}
        #: Evictions since ``_entries`` was last rebuilt.
        self._holes = 0
        self.stats = JournalStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, invocation_id: str) -> bool:
        return invocation_id in self._entries

    def lookup(self, invocation_id: str) -> Optional[JournalEntry]:
        return self._entries.get(invocation_id)

    def begin(
        self,
        invocation_id: str,
        epoch: Optional[Any] = None,
        origin: Optional[Any] = None,
    ) -> JournalEntry:
        """Mark an invocation in flight (idempotent; never demotes DONE)."""
        entry = self._entries.get(invocation_id)
        if entry is not None:
            if entry.state == EXECUTING and entry.origin is None:
                entry.origin = origin
            return entry
        entry = self._entries[invocation_id] = JournalEntry(
            invocation_id, EXECUTING, epoch=epoch, origin=origin
        )
        self._evict()
        return entry

    def complete(
        self, invocation_id: str, reply: Any, epoch: Optional[Any] = None
    ) -> Tuple[JournalEntry, bool]:
        """Record the invocation's canonical result.

        Returns ``(entry, first)``.  ``first`` is False when the entry was
        already ``DONE`` — the caller holds a *duplicate* result whose
        delivery must be suppressed in favour of the stored one (first
        result wins).  A new ``DONE`` entry replaces the ``EXECUTING``
        placeholder at the tail, the newest end.
        """
        entry = self._entries.get(invocation_id)
        if entry is not None and entry.done:
            self.stats.duplicates_suppressed += 1
            return entry, False
        if entry is not None:
            del self._entries[invocation_id]
        entry = self._entries[invocation_id] = JournalEntry(invocation_id, DONE, reply, epoch)
        self._evict()
        return entry, True

    def abandon(self, invocation_id: str) -> None:
        """Drop an ``EXECUTING`` entry (the attempt failed; a retry may
        legitimately execute again).  ``DONE`` entries are never dropped
        this way."""
        entry = self._entries.get(invocation_id)
        if entry is not None and not entry.done:
            del self._entries[invocation_id]

    def merge(self, entry: JournalEntry) -> bool:
        """Fold in a replicated ``DONE`` entry from another peer.

        Returns True when the entry was new knowledge: the entry itself is
        installed at the tail, replacing a local ``EXECUTING`` placeholder
        if there is one.  An already-``DONE`` local entry wins (first
        result wins) and the merge is a no-op.
        """
        if not entry.done:
            return False
        invocation_id = entry.invocation_id
        local = self._entries.get(invocation_id)
        if local is not None:
            if local.done:
                return False
            del self._entries[invocation_id]
        self._entries[invocation_id] = entry
        self.stats.merges += 1
        self._evict()
        return True

    def drop_executing(self, owner: Optional[Any] = None) -> int:
        """Crash cleanup: ``owner``'s in-flight markers (and origin-less
        ones) are memory, not storage — a restarted peer may execute those
        invocations afresh.  ``DONE`` entries survive (the same durable
        storage as the persisted election epoch), and so do intents recorded
        for another origin: a commit barrier counted them, and losing one
        lets a rival's barrier pass beside an applied effect.  Returns how
        many markers were dropped."""
        stale = [
            invocation_id
            for invocation_id, entry in self._entries.items()
            if not entry.done and entry.origin in (None, owner)
        ]
        for invocation_id in stale:
            del self._entries[invocation_id]
        return len(stale)

    def export(self) -> List[JournalEntry]:
        """Every ``DONE`` entry — what a member answers a takeover pull."""
        return [entry for entry in self._entries.values() if entry.done]

    def _evict(self) -> None:
        """Evict oldest ``DONE`` entries past capacity (never in-flight).

        Steady state *is* the full journal (a long-lived peer evicts one
        entry per insertion) with a ``DONE`` entry at the head, the only one
        touched.  The walk goes on from the head past in-flight markers,
        in place, and touches only them and the victims, never the rest.

        A dict's iteration also steps over the slots its deletions left, and
        they pile up at the head until the dict next resizes: a full journal
        of 4 096 would walk thousands per eviction.  Rebuilding the dict
        every ``COMPACT_EVERY`` evictions keeps that walk short, and keeps
        the table at the size its live entries need."""
        entries = self._entries
        excess = len(entries) - self.capacity
        if excess <= 0:
            return
        victims = []
        for key, entry in entries.items():
            if entry.state == DONE:
                victims.append(key)
                if len(victims) == excess:
                    break
        for key in victims:
            del entries[key]
        self.stats.evictions += len(victims)
        self._holes += len(victims)
        if self._holes >= COMPACT_EVERY:
            self._entries = dict(self._entries)
            self._holes = 0


# -- the protocol ------------------------------------------------------------------------

#: Backstop for requests parked behind an in-flight duplicate (twice the
#: b-peer's delegation timeout): if the original execution has not
#: completed by then (e.g. its completion report was lost), the parked
#: retry is answered ``busy`` so the proxy backs off and retries — never
#: re-executed concurrently.
PARK_TIMEOUT = 2.0

#: The park-table key of retried mutations gated behind the takeover
#: journal sync (every other key is an invocation id, never ``None``).
SYNC_GATE = None

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
    max_seen: Optional[Any] = None

    def decided(self) -> bool:
        replied = self.acks >= self.needed or self.responses >= self.sent
        return replied or self.done_entry is not None


def _majority_acks(cohort: int) -> int:
    """Remote acks that, with our own vote, make a strict majority of the
    group's ``cohort + 1`` replicas: ``(cohort + 1) // 2 + 1`` minus us."""
    return (cohort + 1) // 2


def _replayed(entry: JournalEntry, request: "ExecRequest") -> "ExecReply":
    """The stored reply, re-stamped for this attempt's request id."""
    return replace(entry.reply, request_id=request.request_id,
                   invocation_id=request.invocation_id, deduped=True)


class ExactlyOnce:
    """One b-peer's exactly-once protocol (DESIGN.md §6.20).

    It reaches back only through ``node`` (clock, liveness, spawn,
    metrics), the ``GroupCoordinator``, ``view()`` (the current group view
    or None), ``tell(member, payload, size_bytes)`` (one ``bpeer-journal``
    datagram; False when nothing was sent), ``reply(request, reply)`` and
    ``busy(request, retry_after=None)`` (whose hint needs the b-peer's
    dispatch ledger).
    """

    def __init__(self, node, peer_id, coordinator_mgr, view, tell, reply, busy, *,
                 mutating: bool, capacity: int):  # fmt: skip
        self.node = node
        self.env = node.env
        self.metrics = node.network.obs.metrics
        self.peer_id = peer_id
        self.coordinator_mgr = coordinator_mgr
        self.view = view
        self.tell = tell
        self.reply = reply
        self.busy = busy
        self.mutating = mutating
        self.journal = DedupJournal(capacity=capacity)
        #: The park table: retries parked behind an in-flight duplicate
        #: (keyed by invocation id) or gated behind the takeover sync
        #: (keyed by ``SYNC_GATE``).
        self._parked: Dict[Optional[str], List["ExecRequest"]] = {}
        #: Retries parked, either way (total).
        self.requests_parked = 0
        #: Takeover sync: the term being synced, the members that
        #: answered our pull for it, and the pull loop driving it.
        self._sync_epoch = None
        self._sync_answered: set = set()
        self._sync_proc = None
        #: Every member ever observed in the group (graceful leavers are
        #: pruned, failure-detector evictions are NOT): the sync must hear
        #: from peers *believed dead* too, because a partitioned or
        #: crashed ex-coordinator may be the only holder of an applied
        #: effect — executing its retries before it answers (post-heal /
        #: post-restart) is exactly the duplicate we gate against.
        self._roster: set = set()
        #: Commit barrier: outstanding write-intent rounds keyed by token,
        #: and invocations whose in-doubt foreign intent we are asking the
        #: origin about (one probe outstanding per invocation).
        self._intent_waits: Dict[int, _IntentWait] = {}
        self._intent_tokens = count(1)
        self._intent_resolving: set = set()
        #: The protocol's eight group modes (DESIGN.md §6.7): mode -> handler.
        self.handlers = {
            "journal": self._on_journal,
            "journal-pull": self._on_journal_pull,
            "journal-sync-reply": self._on_journal_sync_reply,
            "intent": self._on_intent,
            "intent-reply": self._on_intent_reply,
            "intent-clear": self._on_intent_clear,
            "intent-status": self._on_intent_status,
            "intent-status-reply": self._on_intent_status_reply,
        }

    # -- journal answer, park table ---------------------------------------------------

    def replay(self, request: "ExecRequest") -> Optional["ExecReply"]:
        """The replayed canonical reply for a completed invocation, or None."""
        entry = self.journal.lookup(request.invocation_id)
        if entry is None or not entry.done:
            return None
        self.journal.stats.hits += 1
        self.metrics.inc("bpeer.journal_hits")
        return _replayed(entry, request)

    def answer(self, request: "ExecRequest") -> bool:
        """Reply a completed invocation's canonical result; True if done."""
        replayed = self.replay(request)
        if replayed is not None:
            self.reply(request, replayed)
        return replayed is not None

    def park(self, request: "ExecRequest") -> bool:
        """Park a retry behind its in-flight execution (whose completion
        answers it from the journal), or gate it behind the takeover sync;
        True if parked.  Only *retries* (attempt > 1) of invocations we
        know nothing of are gated — a first attempt cannot have been
        applied anywhere yet, so fresh traffic never waits.  Either way the
        park backstop bounces anything stuck ``busy``; the proxy backs off
        and retries, and the duplicate never executes concurrently.
        """
        if not self.mutating:
            # Re-executing a read-only operation is harmless, and parking
            # it would trade availability for a guarantee it does not
            # need — only side-effecting services park (CAP-style: safety
            # over liveness, but only where a duplicate would corrupt).
            return False
        entry = self.journal.lookup(request.invocation_id)
        if entry is not None and not entry.done:
            if entry.origin is not None and entry.origin != self.peer_id:
                # The in-flight marker is another peer's write intent
                # (commit barrier).  Ask the origin what became of it — a
                # DONE answer replays to this parked retry, an "abandoned"
                # answer clears the intent so the next retry may execute.
                self._resolve_intent(request.invocation_id, entry.origin)
            self._park(request.invocation_id, request, "bpeer.parked")
            return True
        if (request.attempt <= 1 or self._sync_epoch != self.coordinator_mgr.epoch
                or not self._sync_pending() or entry is not None):
            return False
        self._park(SYNC_GATE, request, "bpeer.sync_parked")
        return True

    def _park(self, key: Optional[str], request: "ExecRequest", counter: str) -> None:
        """Hold ``request`` under ``key`` (its invocation id, or
        ``SYNC_GATE``) until answered; a backstop timer bounces it
        ``busy`` if nothing has by ``PARK_TIMEOUT``."""
        self._parked.setdefault(key, []).append(request)
        self.requests_parked += 1
        self.metrics.inc(counter)
        timer = self.env.timeout(PARK_TIMEOUT)
        timer.add_callback(lambda _event: self._expire_parked(key, request))

    def _expire_parked(self, key: Optional[str], request: "ExecRequest") -> None:
        waiting = self._parked.get(key)
        if not waiting or request not in waiting or not self.node.up:
            return
        waiting.remove(request)
        if not waiting:
            del self._parked[key]
        self.reply(request, self.busy(request))

    def _serve_parked(self, invocation_id: str) -> None:
        """Replay a now-completed invocation to every retry parked behind it."""
        entry = self.journal.lookup(invocation_id)
        if entry is not None and entry.done:
            for parked in self._parked.pop(invocation_id, []):
                self.answer(parked)

    def _flush_parked(self, invocation_id: str, reply: "ExecReply") -> None:
        """Answer parked retries with a non-result (the attempt failed)."""
        for parked in self._parked.pop(invocation_id, []):
            self.reply(parked, replace(reply, request_id=parked.request_id))

    def _bounce_parked(self, keys) -> None:
        """Answer ``busy`` to every retry parked under ``keys``."""
        for key in keys:
            for parked in self._parked.pop(key, []):
                self.reply(parked, self.busy(parked))

    def bounce_all(self) -> None:
        """Answer ``busy`` to every parked retry, in parking order of keys."""
        self._bounce_parked(list(self._parked))

    def parked_count(self) -> int:
        """Retries parked now (what a retirement drain still waits on)."""
        return sum(len(waiting) for waiting in self._parked.values())

    # -- begin, complete, replicate ---------------------------------------------------

    def begin(self, request: "ExecRequest") -> None:
        """Mark an admitted mutating request in flight here (a retry parks
        behind it).  A read-only group records nothing before execution:
        its retries never park, and a load-shared read's marker would sit
        on the dispatching coordinator with nothing to clear it."""
        if not self.mutating:
            return
        epoch = self.coordinator_mgr.epoch
        self.journal.begin(request.invocation_id, epoch=epoch, origin=self.peer_id)

    def complete(self, request: "ExecRequest", reply: "ExecReply") -> "ExecReply":
        """Record an execution's outcome; returns the reply to deliver.

        A result becomes the canonical ``DONE`` entry — replicated, parked
        retries answered — unless one exists: first result wins, and a
        duplicate execution's value is suppressed for the stored one.  A
        non-result abandons the in-flight marker so a retry may execute.
        """
        if reply.deduped:
            # Already a journal replay — the canonical entry exists.
            return reply
        invocation_id = request.invocation_id
        if reply.kind != "result":
            self.journal.abandon(invocation_id)
            if self.mutating:
                # Members recorded our write intent at the barrier;
                # withdraw it so a retry is not blocked behind a marker
                # for an attempt that applied nothing.
                self._clear_intent(invocation_id, self.peer_id)
            self._flush_parked(invocation_id, reply)
            return reply
        epoch = reply.epoch if reply.epoch is not None else self.coordinator_mgr.epoch
        # A direct copy: a relayed reply is the member's own journal object.
        canonical = type(reply)(reply.request_id, reply.kind, reply.value, reply.fault_code,
                                reply.coordinator, reply.served_by, epoch, reply.retry_after,
                                invocation_id, reply.deduped)  # fmt: skip
        entry, first = self.journal.complete(invocation_id, canonical, epoch=epoch)
        if not first:
            self.metrics.inc("bpeer.duplicate_suppressed")
            return _replayed(entry, request)
        self._replicate_entry(entry)
        self._serve_parked(invocation_id)
        return canonical

    def _replicate_entry(self, entry: JournalEntry) -> None:
        """Eagerly replicate a mutating invocation's DONE entry group-wide.

        Read-only results stay local (re-executing them is harmless), so
        the steady-state message overhead of the journal is zero for
        lookup workloads; mutating results are broadcast at completion —
        atomically with the backend effect in simulation time — so a
        takeover coordinator can answer the retry instead of re-applying.
        """
        if not self.mutating:
            return
        view = self.view()
        members = view.sorted_members() if view is not None else []
        # One payload for the whole fan-out: receivers only iterate it.
        payload = ("journal", [entry])
        for member in members:
            if member == self.peer_id:
                continue
            if self.tell(member, payload, ENTRY_BYTES):
                self.metrics.inc("bpeer.journal_replicated")

    def report_entry(self, request: "ExecRequest", reply: "ExecReply") -> Optional[JournalEntry]:
        """The DONE entry a load-sharing completion report carries back to
        the dispatching coordinator: a mutating result's, never a read's
        (the coordinator marked no read in flight and would never replay
        it — a retried read re-executes harmlessly)."""
        if not self.mutating or reply.kind != "result":
            return None
        entry = self.journal.lookup(request.invocation_id)
        if entry is None or not entry.done:
            return None
        return entry

    def merge(self, entries: List[JournalEntry]) -> None:
        """Fold in replicated DONE entries and answer what was parked
        behind them (it raced the replication)."""
        for entry in entries:
            if self.journal.merge(entry):
                self.metrics.inc("bpeer.journal_merges")
            self._serve_parked(entry.invocation_id)

    # -- term start: takeover pull, sync gate ---------------------------------------

    def start_term(self, coordinator) -> None:
        """A coordinator was announced: if it is us and the group mutates,
        pull the group's journal state into our fresh term."""
        if coordinator == self.peer_id and self.mutating:
            self._start_sync()

    def _start_sync(self) -> None:
        """Begin (or continue) pulling journal state for our new term."""
        epoch = self.coordinator_mgr.epoch
        if self._sync_epoch == epoch:
            return
        self._sync_epoch = epoch
        self._sync_answered = set()
        self._stop_sync("superseded")
        self._sync_proc = self.node.spawn(
            self._sync_loop(epoch), name=f"bpeer-journal-sync:{self.node.name}"
        )

    def _stop_sync(self, reason: str) -> None:
        """Interrupt the pull loop — unless it is the caller."""
        process = self._sync_proc
        if process is not None and process.is_alive and process is not self.env.active_process:
            process.interrupt(reason)

    def _sync_loop(self, epoch):
        """Pull DONE entries from unanswered roster members until covered."""
        try:
            while (
                self.node.up
                and self.coordinator_mgr.is_coordinator
                and self.coordinator_mgr.epoch == epoch
            ):
                pending = self._sync_pending()
                if not pending:
                    # Roster covered *now*; parked retries are answerable.
                    # Keep watching: a member re-joining the view (heal,
                    # restart) re-opens the pull until it answers too.
                    self._drain_sync_gate()
                else:
                    for member in pending:
                        self.tell(member, ("journal-pull", epoch), 64)
                    self.metrics.inc("bpeer.journal_pulls")
                yield self.env.timeout(JOURNAL_SYNC_PERIOD)
        except Interrupt:
            return
        # Term over (deposed or higher epoch seen): bounce what we gated
        # so the proxy re-binds and retries under the current coordinator.
        self._bounce_parked([SYNC_GATE])

    def on_roster_change(self, peer_id, change: str) -> None:
        """Track the all-time roster from the group's membership events."""
        if change == "joined":
            self._roster.add(peer_id)
        elif change == "left":
            # Graceful departure: the leaver flushed its state and owes no
            # answer.  ("removed" — believed dead — stays in the roster.)
            self._roster.discard(peer_id)
            self._sync_answered.discard(peer_id)

    def _sync_pending(self) -> List[Any]:
        """Roster members that have not answered our pull for this term.

        The pending set is the all-time roster, not the live view: a
        member the failure detector evicted may hold the only copy of an
        effect applied just before it vanished, so the sync is complete
        only when that member answers too (after its restart or heal).
        """
        return self._commit_cohort(exclude=self._sync_answered)

    def _drain_sync_gate(self) -> None:
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
        for request in self._parked.pop(SYNC_GATE, []):
            if not self.answer(request):
                self.reply(request, self.busy(request, retry_after=0.0))

    def _on_journal(self, payload, src_peer) -> None:
        # A mutating result's eager replication.
        self.merge(payload[1])

    def _on_journal_pull(self, payload, src_peer) -> None:
        # A takeover coordinator asks for our DONE entries.  Always
        # answer — an empty reply is still the "roster member covered"
        # signal the puller's gate is waiting on.
        entries = self.journal.export()
        reply = ("journal-sync-reply", payload[1], entries)
        self.tell(src_peer, reply, 96 + ENTRY_BYTES * len(entries))

    def _on_journal_sync_reply(self, payload, src_peer) -> None:
        # A member answered our takeover pull: merge its entries and,
        # once the whole roster has answered for this term, open the
        # gate for the retries parked behind the sync.
        _mode, epoch, entries = payload
        self.merge(entries)
        if self._sync_epoch == epoch and epoch == self.coordinator_mgr.epoch:
            self._sync_answered.add(src_peer)
            if not self._sync_pending():
                self._drain_sync_gate()

    # -- commit barrier (quorum write intent), intent resolution ----------------------

    def _commit_cohort(self, exclude=frozenset()) -> List[Any]:
        """Peers whose acks count toward the commit quorum (not us, nor
        ``exclude``), refreshed from the live view, in canonical order.

        The all-time roster, not the live view: sizing the quorum to the
        failure detector's view lets an isolated minority shrink its
        denominator until it can "reach quorum" alone — the exact
        split-brain the barrier exists to prevent.
        """
        view = self.view()
        if view is not None:
            self._roster.update(view.members)
        peers = self._roster - {self.peer_id} - exclude
        return sorted(peers, key=lambda member: member.uuid_hex)

    def barrier(self, request: "ExecRequest"):
        """Quorum write intent before a mutating effect (a generator).

        Returns ``None`` when execution may proceed, or the reply to
        answer instead (a journal replay when a member already holds the
        result, else a ``busy`` bounce).
        """
        if not self.mutating:
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
            if self.tell(member, intent, 96):
                wait.sent += 1
        self.metrics.inc("bpeer.commit_intents")
        if wait.sent >= needed:
            yield Wait(self.env, wait.done, INTENT_TIMEOUT)
        self._intent_waits.pop(token, None)
        if wait.done_entry is not None:
            # Someone already holds the canonical result: replay, never
            # re-execute.
            self.journal.merge(wait.done_entry)
            self._serve_parked(invocation_id)
            replayed = self.replay(request)
            if replayed is not None:
                return replayed
        if wait.acks >= needed:
            return None
        # Blocked: no quorum (partitioned/deposed/rival intent).  Bounce
        # the proxy; it backs off, re-binds, and retries elsewhere.
        self.metrics.inc("bpeer.commit_blocked")
        if wait.max_seen is not None:
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
        busy = self.busy(request)
        self._flush_parked(invocation_id, busy)
        return busy

    def _resolve_intent(self, invocation_id: str, origin) -> None:
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
        if not self.tell(origin, probe, 64):
            self._intent_resolving.discard(invocation_id)
            return
        timer = self.env.timeout(INTENT_RESOLVE_TIMEOUT)
        timer.add_callback(
            lambda _event: self._intent_resolving.discard(invocation_id)
        )

    def _clear_intent(self, invocation_id: str, origin) -> None:
        """Best-effort broadcast: drop the origin's abandoned intent."""
        clear = ("intent-clear", invocation_id, origin)
        for member in self._commit_cohort():
            self.tell(member, clear, 64)

    def _on_intent(self, payload, src_peer) -> None:
        # A coordinator asks us to record its write intent before it
        # applies a mutating effect (commit barrier).
        _mode, token, invocation_id, epoch, origin = payload
        status: str = "ok"
        extra: Any = None
        seen = None
        max_seen = self.coordinator_mgr.elector.max_epoch_seen
        entry = self.journal.lookup(invocation_id)
        if epoch is not None and max_seen > epoch:
            # Fencing: the asker's term is already superseded — deny it
            # quorum and tell it what we know.
            status, seen = "stale", max_seen
        elif entry is not None and entry.done:
            status, extra = "done", entry
        elif entry is not None:
            # A rival's intent (or the asker's own earlier one) is
            # already on file: report who holds it.
            status, extra = "held", entry.origin
        else:
            self.journal.begin(invocation_id, epoch=epoch, origin=origin)
            self.metrics.inc("bpeer.intents_recorded")
        reply = ("intent-reply", token, status, extra, seen)
        self.tell(src_peer, reply, 96 if status != "done" else 96 + ENTRY_BYTES)

    def _on_intent_reply(self, payload, src_peer) -> None:
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

    def _on_intent_clear(self, payload, src_peer) -> None:
        # An intent's origin (or a resolver acting on its authority)
        # withdrew it: the invocation was never applied there.
        _mode, invocation_id, origin = payload
        self._abandon_intent(invocation_id, origin)

    def _abandon_intent(self, invocation_id: str, origin) -> None:
        """Drop ``origin``'s in-flight intent for the invocation, if on file."""
        entry = self.journal.lookup(invocation_id)
        if entry is not None and not entry.done and entry.origin == origin:
            self.journal.abandon(invocation_id)

    def _on_intent_status(self, payload, src_peer) -> None:
        # In-doubt resolution: only we can say whether our intent's
        # effect was applied (apply + complete are atomic here).
        _mode, invocation_id, asker = payload
        entry = self.journal.lookup(invocation_id)
        if entry is not None and entry.done:
            outcome: Any = entry
        elif entry is not None and entry.origin == self.peer_id:
            outcome = "pending"  # still executing — keep waiting
        else:
            outcome = None  # abandoned (or never ours): not applied
        self.tell(src_peer, ("intent-status-reply", invocation_id, outcome), 96)

    def _on_intent_status_reply(self, payload, src_peer) -> None:
        _mode, invocation_id, outcome = payload
        self._intent_resolving.discard(invocation_id)
        if outcome is None:
            # The origin abandoned the intent: clear it here and
            # group-wide so a retry may execute afresh.
            self._abandon_intent(invocation_id, src_peer)
            self._clear_intent(invocation_id, src_peer)
        elif outcome != "pending":
            self.merge([outcome])

    # -- leave and crash --------------------------------------------------------------

    def reset(self, crash: bool) -> None:
        """Forget what a peer that stops serving (leave or crash) no longer has.

        A leave answers every parked retry ``busy``, so its proxy retries
        at the successor now, not after its per-attempt timeout.  A crash
        (the node already interrupted the pull loop) also loses memory:
        its own in-flight markers, intent rounds and probes, so a restarted
        peer may execute those afresh.  ``DONE`` entries and the intents it
        recorded for others are durable storage.
        """
        if crash:
            self._intent_waits.clear()
            self._intent_resolving.clear()
            self.journal.drop_executing(owner=self.peer_id)
        else:
            self._stop_sync("shutdown")
            self.bounce_all()
        self._parked.clear()
        self._sync_proc = self._sync_epoch = None
        self._sync_answered = set()
