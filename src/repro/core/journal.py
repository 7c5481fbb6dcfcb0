"""The dedup/result journal: exactly-once invocation across failover.

The recovery stack is at-least-once by construction — the proxy re-sends
after every timeout and the coordinator's delegation fallback tries the
next member while the first may still be executing.  For read-only
lookups that is merely wasteful; for the paper's B2B operations with side
effects (§1: purchase orders, enrollment) a retried call can mutate the
backend twice.

Following the group-replicated service state of Jan et al. ("Exploiting
peer group concept for adaptive and highly available services",
PAPERS.md), every coordinator keeps a bounded journal keyed by the
proxy-minted *invocation id* (idempotency key):

* ``EXECUTING`` — the invocation is in flight here; a retried copy is
  *parked* until the in-flight execution finishes, instead of executing
  again;
* ``DONE`` — the invocation completed; the canonical
  :class:`~repro.core.bpeer.ExecReply` is replayed to any retry without
  touching the backend.

``DONE`` entries are replicated to the other members (piggybacked on
delegate/report traffic, eagerly broadcast for mutating operations, and
bulk-transferred to a freshly elected coordinator), so the replacement
coordinator answers retried calls from the journal instead of
re-executing them.

Entries are epoch-aware (they record the coordinator term that produced
the result) and the journal is bounded: once ``capacity`` is exceeded the
oldest ``DONE`` entries are evicted — an evicted entry degrades that
invocation back to at-least-once, which the exactly-once audit surfaces
(the negative control of ``tests/core/test_exactly_once.py``), so
capacity is sized well above the retry horizon.

Steady state *is* the full journal: a long-lived peer evicts one entry per
insertion for the rest of its life.  Eviction therefore walks the entry map
from its head and touches only its victims (plus any in-flight markers
parked before them), never the ``capacity`` keys behind them.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from typing import Any, List, Optional, Tuple

__all__ = ["DedupJournal", "JournalEntry", "JournalStats", "EXECUTING", "DONE"]

#: Entry states.
EXECUTING = "executing"
DONE = "done"


@dataclass(slots=True)
class JournalEntry:
    """One invocation's dedup record.

    ``reply`` is the canonical :class:`~repro.core.bpeer.ExecReply` once
    the entry is ``DONE`` (replayed, re-stamped, to every retry).
    ``request`` is transient coordinator-local state — the proxy request
    an in-flight execution will answer — and is never replicated.
    """

    invocation_id: str
    state: str = EXECUTING
    reply: Optional[Any] = None
    #: Coordinator epoch the execution ran under (fencing/audit context).
    epoch: Optional[Any] = None
    recorded_at: float = 0.0
    #: Transient: the pending request a late-reconciled result must answer.
    request: Optional[Any] = None
    #: For ``EXECUTING`` entries: the peer that holds the write intent —
    #: the only peer whose journal can say whether the effect was applied
    #: (its apply + ``complete`` are atomic).  An in-doubt intent is
    #: resolved by asking the origin, never by timing it out.
    origin: Optional[Any] = None

    @property
    def done(self) -> bool:
        return self.state == DONE

    def replicable(self) -> "JournalEntry":
        """A copy safe to ship to other peers (transient state stripped)."""
        return JournalEntry(
            invocation_id=self.invocation_id,
            state=self.state,
            reply=self.reply,
            epoch=self.epoch,
            recorded_at=self.recorded_at,
            origin=self.origin,
        )


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
        self._entries: "OrderedDict[str, JournalEntry]" = OrderedDict()
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
        request: Optional[Any] = None,
        epoch: Optional[Any] = None,
        now: float = 0.0,
        origin: Optional[Any] = None,
    ) -> JournalEntry:
        """Mark an invocation in flight (idempotent; never demotes DONE)."""
        entry = self._entries.get(invocation_id)
        if entry is not None:
            if entry.state == EXECUTING and request is not None:
                entry.request = request
            if entry.state == EXECUTING and entry.origin is None:
                entry.origin = origin
            return entry
        entry = JournalEntry(
            invocation_id=invocation_id,
            state=EXECUTING,
            epoch=epoch,
            recorded_at=now,
            request=request,
            origin=origin,
        )
        self._entries[invocation_id] = entry
        self._evict()
        return entry

    def complete(
        self,
        invocation_id: str,
        reply: Any,
        epoch: Optional[Any] = None,
        now: float = 0.0,
    ) -> Tuple[JournalEntry, bool]:
        """Record the invocation's canonical result.

        Returns ``(entry, first)``.  ``first`` is False when the entry was
        already ``DONE`` — the caller holds a *duplicate* result whose
        delivery must be suppressed in favour of the stored one (first
        result wins).
        """
        entry = self._entries.get(invocation_id)
        if entry is not None and entry.done:
            self.stats.duplicates_suppressed += 1
            return entry, False
        if entry is None:
            entry = JournalEntry(invocation_id=invocation_id)
            self._entries[invocation_id] = entry
        entry.state = DONE
        entry.reply = reply
        entry.epoch = epoch
        entry.recorded_at = now
        entry.request = None
        entry.origin = None
        self._entries.move_to_end(invocation_id)
        self._evict()
        return entry, True

    def abandon(self, invocation_id: str) -> None:
        """Drop an ``EXECUTING`` entry (the attempt failed; a retry may
        legitimately execute again).  ``DONE`` entries are never dropped
        this way."""
        entry = self._entries.get(invocation_id)
        if entry is not None and not entry.done:
            del self._entries[invocation_id]

    def record_hit(self) -> None:
        self.stats.hits += 1

    def merge(self, entry: JournalEntry, now: float = 0.0) -> bool:
        """Fold in a replicated ``DONE`` entry from another peer.

        Returns True when the entry was new knowledge (installed or
        upgraded a local ``EXECUTING`` placeholder); an already-``DONE``
        local entry wins (first result wins) and the merge is a no-op.
        """
        if not entry.done:
            return False
        local = self._entries.get(entry.invocation_id)
        if local is not None and local.done:
            return False
        if local is None:
            self._entries[entry.invocation_id] = entry.replicable()
        else:
            local.state = DONE
            local.reply = entry.reply
            local.epoch = entry.epoch
            local.recorded_at = now or entry.recorded_at
            local.request = None
            local.origin = None
        self.stats.merges += 1
        self._entries.move_to_end(entry.invocation_id)
        self._evict()
        return True

    def drop_executing(self) -> int:
        """Crash cleanup: in-flight markers are memory, not storage.

        ``DONE`` entries survive a crash (they model the same durable
        storage as the persisted election epoch); ``EXECUTING`` markers do
        not — a restarted peer may legitimately execute those invocations
        afresh.  Returns how many markers were dropped.
        """
        stale = [
            invocation_id
            for invocation_id, entry in self._entries.items()
            if not entry.done
        ]
        for invocation_id in stale:
            del self._entries[invocation_id]
        return len(stale)

    def export(self) -> List[JournalEntry]:
        """Every ``DONE`` entry, stripped of transient state — the payload
        of the journal-transfer handshake after an election."""
        return [entry.replicable() for entry in self._entries.values() if entry.done]

    def _evict(self) -> None:
        """Evict oldest ``DONE`` entries past capacity (never in-flight)."""
        excess = len(self._entries) - self.capacity
        if excess <= 0:
            return
        done = (key for key, entry in self._entries.items() if entry.done)
        # The head of the dict is walked in place; only the victims are copied.
        for key in list(islice(done, excess)):
            del self._entries[key]
            self.stats.evictions += 1
