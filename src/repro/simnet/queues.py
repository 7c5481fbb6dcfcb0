"""Inter-process communication primitives: FIFO stores.

A :class:`Store` is an unbounded queue of items.  ``put`` and ``get``
return events; processes yield them to block until the operation
completes.  These stores are the building block for message inboxes in the
simulated network.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from .events import PENDING, Event

__all__ = ["Store", "StorePut", "StoreGet"]


class StorePut(Event):
    """Event that fires once the item has been accepted by the store: at
    once, scheduled before the getter the item feeds."""

    __slots__ = ()

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        store.items.append(item)
        self.succeed()
        store._trigger()


class StoreGet(Event):
    """Event that fires with the retrieved item."""

    __slots__ = ("cancelled",)

    def __init__(self, store: "Store"):
        self.env = env = store.env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self.defused = False
        self.cancelled = False
        if not store._get_waiters:
            # Nobody queued ahead: what ``_trigger`` would do for this one
            # getter — take the head item or park.
            if store.items:
                self._value = store.items.popleft()
                env.schedule(self)
            else:
                store._get_waiters.append(self)
            return
        store._get_waiters.append(self)
        store._trigger()

    def cancel(self) -> None:
        """Withdraw this get so no item is handed to a dead waiter.

        Without cancellation an interrupted process (a crashed host's
        worker blocked on its request queue) leaves an untriggered getter
        behind; the next ``put`` would succeed that orphan and the item
        would vanish — a request admitted but never served.  The process
        machinery cancels its abandoned target on interrupt detach.
        Cancellation is a tombstone flag, not a ``deque.remove``: crashing a
        host interrupts every waiter parked on its inboxes, and a linear
        removal per waiter makes crash-heavy campaigns quadratic.
        :meth:`Store._trigger` discards the tombstone when it surfaces.
        """
        if not self.triggered:
            self.cancelled = True


class Store:
    """An unbounded FIFO queue usable from simulated processes.

    Example::

        inbox = Store(env)
        inbox.put(message)          # returns an event; may be ignored
        item = yield inbox.get()    # inside a process
    """

    def __init__(self, env):
        self.env = env
        self.items: Deque[Any] = deque()
        self._get_waiters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Queue ``item``; the returned event fires (at once) when accepted."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Request an item; the returned event fires with it."""
        return StoreGet(self)

    def push(self, item: Any) -> None:
        """Fire-and-forget :meth:`put` for callers that ignore its event.

        A put always lands at once, so the item goes straight to the first
        parked getter (or the item queue) and no ``StorePut`` event — which
        nobody would listen to — is scheduled.  Under a
        :class:`~repro.simnet.environment.TiebreakPolicy` every scheduled
        event draws an ordering key, so there this is exactly ``put``.
        """
        if self.env.tiebreak is not None:
            self.put(item)
            return
        getters = self._get_waiters
        while getters and not self.items:
            getter = getters.popleft()
            if getter._value is PENDING and not getter.cancelled:
                getter._value = item
                self.env.schedule(getter)
                return
        self.items.append(item)
        if getters:
            self._trigger()

    def push_resumes_next(self) -> bool:
        """Whether :meth:`push` would wake a live parked getter as the very
        next event dispatched: no policy installed, nothing else queued for
        the current instant (every heap entry lies later), no backlog.  A
        caller that would only run the getter's waiter may then run it in
        place, one event fewer and nothing reordered (DESIGN.md §6.9)."""
        env = self.env
        if (
            env.tiebreak is not None
            or env._now_urgent
            or env._now_normal
            or self.items
        ):
            return False
        getters = self._get_waiters
        return bool(getters) and getters[0]._value is PENDING and not getters[0].cancelled

    # -- internals -------------------------------------------------------------

    def _trigger(self) -> None:
        """Hand queued items to pending gets, in order.

        Cancelled getters (tombstones left by :meth:`StoreGet.cancel`) are
        discarded as they reach the head of the line, which keeps
        cancellation O(1) without ever serving a dead waiter.
        """
        items, getters = self.items, self._get_waiters
        while getters:
            get_event = getters[0]
            if get_event.triggered or get_event.cancelled:
                getters.popleft()
                continue
            if not items:
                break
            getters.popleft()
            get_event.succeed(items.popleft())
