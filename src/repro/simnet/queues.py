"""Inter-process communication primitives: FIFO stores.

A :class:`Store` is an unbounded (or bounded) queue of items.  ``put`` and
``get`` return events; processes yield them to block until the operation
completes.  These stores are the building block for message inboxes in the
simulated network.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from .events import PENDING, Event

__all__ = ["Store", "StorePut", "StoreGet"]

_UNBOUNDED = float("inf")


class StorePut(Event):
    """Event that fires once the item has been accepted by the store."""

    __slots__ = ("item", "cancelled")

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        self.cancelled = False
        store._put_waiters.append(self)
        store._trigger()

    def cancel(self) -> None:
        """Withdraw this put: the waiting process died before it landed.

        Cancellation is a tombstone flag, not a ``deque.remove``: crashing
        a host interrupts every waiter parked on its deep inboxes, and a
        linear removal per waiter makes crash-heavy campaigns quadratic.
        :meth:`Store._trigger` skips (and drops) tombstoned waiters when
        they reach the head of the line.
        """
        if not self.triggered:
            self.cancelled = True


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
        if type(store) is Store and not store._get_waiters and not store._put_waiters:
            # Nobody queued ahead on a plain store: what ``_trigger``
            # would do for this one getter — take the head item or park.
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
        machinery cancels its abandoned target on interrupt detach.  Like
        :meth:`StorePut.cancel` this only tombstones the event (O(1));
        :meth:`Store._trigger` discards it when it surfaces.
        """
        if not self.triggered:
            self.cancelled = True


class Store:
    """An unbounded/bounded FIFO queue usable from simulated processes.

    Example::

        inbox = Store(env)
        inbox.put(message)          # returns an event; may be ignored
        item = yield inbox.get()    # inside a process
    """

    def __init__(self, env, capacity: float = _UNBOUNDED):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._put_waiters: Deque[StorePut] = deque()
        self._get_waiters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Queue ``item``; the returned event fires when accepted."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Request an item; the returned event fires with it."""
        return StoreGet(self)

    def push(self, item: Any) -> None:
        """Fire-and-forget :meth:`put` for callers that ignore its event.

        On a plain unbounded store a put always lands at once, so the
        item goes straight to the first parked getter (or the item queue)
        and no ``StorePut`` event — which nobody would listen to — is
        scheduled.  Under a :class:`~repro.simnet.environment.TiebreakPolicy`
        every scheduled event draws an ordering key, so there, and on
        bounded stores, this is exactly ``put``.
        """
        if self.env.tiebreak is not None or self.capacity != _UNBOUNDED:
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
            or self.capacity != _UNBOUNDED
        ):
            return False
        getters = self._get_waiters
        return bool(getters) and getters[0]._value is PENDING and not getters[0].cancelled

    # -- internals -------------------------------------------------------------

    def _do_put(self, event: StorePut) -> bool:
        if len(self.items) < self.capacity:
            self.items.append(event.item)
            event.succeed()
            return True
        return False

    def _do_get(self, event: StoreGet) -> bool:
        if self.items:
            event.succeed(self.items.popleft())
            return True
        return False

    def _trigger(self) -> None:
        """Match pending puts with capacity and pending gets with items.

        Cancelled waiters (tombstones left by :meth:`StorePut.cancel` /
        :meth:`StoreGet.cancel`) are discarded as they reach the head of
        their line, which keeps cancellation O(1) without ever serving a
        dead waiter.
        """
        progressed = True
        while progressed:
            progressed = False
            while self._put_waiters:
                put_event = self._put_waiters[0]
                if put_event.triggered or put_event.cancelled:
                    self._put_waiters.popleft()
                    continue
                if self._do_put(put_event):
                    self._put_waiters.popleft()
                    progressed = True
                else:
                    break
            while self._get_waiters:
                get_event = self._get_waiters[0]
                if get_event.triggered or get_event.cancelled:
                    self._get_waiters.popleft()
                    continue
                if self._do_get(get_event):
                    self._get_waiters.popleft()
                    progressed = True
                else:
                    break

