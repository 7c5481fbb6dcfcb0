"""The simulation environment: clock + event queue + run loop.

One scheduler, one contract: events are processed in ``(time, urgency,
tiebreak, seq)`` order.  Every future event sits in one ``heapq`` of
``(time, priority, tiebreak, seq, event)`` tuples.  One rule selects how
the *current* instant is handled:

* while no :class:`TiebreakPolicy` is installed, same-timestamp events
  are drained out of the heap once per instant into plain FIFO deques,
  and events scheduled *at the current instant* (the overwhelming
  majority: every ``Event.succeed``, process resume, and store handshake)
  bypass the heap entirely — no per-event 5-tuple, no re-heapify while a
  timestamp's run is processed;
* under a policy every event goes through the heap, because a policy may
  rank a newly scheduled event *before* already-drained peers.

Both forms produce the *identical* event order when the policy is FIFO:
``tests/simnet/test_scheduler_equivalence.py`` runs full deployments with
no policy and under ``FifoTiebreak()`` and requires the same traces,
message records, RNG states and final clock, so replay files and seeded
benchmarks do not depend on which form ran.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Deque, Generator, List, Optional, Tuple

from .events import PENDING, Event, SimulationError, Timeout, Wait
from .process import Process

__all__ = [
    "Environment",
    "StopSimulation",
    "EmptySchedule",
    "TiebreakPolicy",
]


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Environment.run` at ``until``."""


class EmptySchedule(Exception):
    """Raised when the event queue runs dry before ``until`` is reached."""


#: Events scheduled with ``priority=True`` (interrupts) sort before normal
#: events at the same timestamp.
_URGENT = 0
_NORMAL = 1

#: Stands in the event position of a :class:`Wait` deadline's heap entry
#: (``(time, _NORMAL, 0, seq, _DEADLINE, wait)``); see
#: :meth:`Environment.schedule_deadline`.
_DEADLINE = object()

#: Dead deadline entries the heap may carry however few live ones it holds.
_DEAD_SLACK = 64


def _is_dead(entry: Tuple[Any, ...]) -> bool:
    """Whether a heap entry is the deadline of an answered :class:`Wait`."""
    return entry[4] is _DEADLINE and entry[5]._value is not PENDING


class TiebreakPolicy:
    """How same-timestamp events are ordered relative to one another.

    The default (``None`` on the environment) is FIFO: events scheduled at
    the same instant are processed in scheduling order.  A policy replaces
    that single ordering with a *chosen* one — the schedule-exploration
    checker (:mod:`repro.check`) uses seeded shuffles and adversarial
    delays to sample many legal interleavings of one scenario.  Whatever
    the policy returns, ordering stays deterministic: the key only
    reorders events within the same ``(time, urgency)`` class, and the
    scheduling sequence number remains the final tiebreaker.
    """

    def key(self, env: "Environment", urgent: bool, event: Event) -> int:
        """Sort key for one event among its same-timestamp peers."""
        raise NotImplementedError


class Environment:
    """Coordinates simulated time and event processing.

    The heap holds ``(time, priority, tiebreak, seq, event)`` tuples.
    ``seq`` is a monotonically increasing counter so that events scheduled
    at the same instant are processed in FIFO order by default, which
    makes every simulation fully deterministic.  ``tiebreak`` (0 unless a
    :class:`TiebreakPolicy` is installed) lets a checker perturb the order
    of same-timestamp events without ever reordering across timestamps.

    While no policy is installed, events landing at the *current* instant
    skip the heap: they append straight onto one of two FIFO deques
    (urgent / normal).  That is order-equivalent to the heap because any
    event scheduled now carries a larger ``seq`` than everything already
    queued for this instant, and deque order is append order.
    """

    def __init__(
        self,
        initial_time: float = 0.0,
        tiebreak: Optional[TiebreakPolicy] = None,
    ):
        #: Current simulated time.
        self.now = float(initial_time)
        self._queue: List[Tuple[Any, ...]] = []
        self._seq = itertools.count()
        self._active_process: Optional[Process] = None
        #: Pluggable same-timestamp ordering (``None`` = FIFO).
        self.tiebreak = tiebreak
        #: Current-instant runs, drained from the heap (or scheduled at
        #: ``now``) and processed without re-heapifying.  Urgent before
        #: normal, FIFO within each — exactly the heap's total order.
        self._now_urgent: Deque[Event] = deque()
        self._now_normal: Deque[Event] = deque()
        #: Events processed since construction (perf accounting).
        self.events_processed = 0
        #: Queued deadline entries whose :class:`Wait` has been answered.
        self._dead_deadlines = 0

    # -- clock ----------------------------------------------------------------

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (None between steps)."""
        return self._active_process

    # -- event factories --------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    # -- scheduling --------------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0, priority: bool = False) -> None:
        """Queue ``event`` to be processed ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        when = self.now + delay
        if self.tiebreak is None and when == self.now:
            # Current-instant fast path: a new event always outranks
            # nothing and underranks everything already queued for this
            # instant (its seq would be the largest), so FIFO append is
            # the exact heap order — no tuple, no sift.
            if priority:
                self._now_urgent.append(event)
            else:
                self._now_normal.append(event)
            return
        tiebreak = 0
        if self.tiebreak is not None:
            tiebreak = self.tiebreak.key(self, priority, event)
        heapq.heappush(
            self._queue,
            (
                when,
                _URGENT if priority else _NORMAL,
                tiebreak,
                next(self._seq),
                event,
            ),
        )

    def schedule_deadline(self, wait: Wait, delay: float) -> bool:
        """Arm ``wait``'s deadline ``delay`` time units from now.

        With no :class:`TiebreakPolicy` installed the deadline is a bare
        heap entry, not an event: it takes the heap position (and ``seq``)
        the guard ``Timeout`` would have taken, and :meth:`_pop_heap` drops
        it unseen if the wait was answered first — removing an event with
        no effect reorders nothing.  Under a policy (or when the deadline
        falls in the current instant, which stays off the heap) it is that
        ``Timeout``: one event and one tiebreak key draw for one, so a
        checker explores the same interleavings.  Returns whether the entry
        is bare (the wait then reports to :meth:`deadline_answered`).
        """
        when = self.now + delay
        if self.tiebreak is None and when > self.now:
            heapq.heappush(
                self._queue, (when, _NORMAL, 0, next(self._seq), _DEADLINE, wait)
            )
            return True
        Timeout(self, delay).callbacks.append(wait._expire)
        return False

    def deadline_answered(self) -> None:
        """A wait whose bare deadline entry is still queued was answered.

        The entry is dead weight that pins the wait and its reply.  Once
        such entries are the majority of the heap (and over ``_DEAD_SLACK``)
        it is rebuilt from the live ones: ≤ 2 × live + slack, amortised
        O(1).  Entries pop in the order of their unique keys and a dead
        one's pop dispatches nothing, so no event moves; the latest dead
        entry stays, so a schedule run dry leaves the clock where the last
        deadline fell (DESIGN.md §6.11).
        """
        self._dead_deadlines = count = self._dead_deadlines + 1
        queue = self._queue
        if count <= _DEAD_SLACK or count * 2 <= len(queue):
            return
        last = max(filter(_is_dead, queue), default=None)
        live = [entry for entry in queue if entry is last or not _is_dead(entry)]
        self._dead_deadlines -= len(queue) - len(live)
        heapq.heapify(live)
        queue[:] = live

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._now_urgent or self._now_normal:
            return self.now
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def _deadline_event(self, wait: Wait) -> Optional[Event]:
        """The event a popped deadline entry stands for (``None``: dropped)."""
        if wait._value is not PENDING:
            self._dead_deadlines -= 1
            return None
        deadline = Event(self)
        deadline._value = None
        deadline.callbacks.append(wait._expire)
        return deadline

    def _pop_heap(self) -> Optional[Event]:
        """Advance the clock to the next heap entry and return its event.

        ``None`` when that entry was the deadline of an answered
        :class:`Wait`; the caller just looks again.
        """
        queue = self._queue
        if not queue:
            raise EmptySchedule()
        entry = heapq.heappop(queue)
        self.now = when = entry[0]
        event = entry[4]
        if event is _DEADLINE:
            event = self._deadline_event(entry[5])
        if self.tiebreak is None:
            # Drain this timestamp's entire run: the pops come out in
            # (priority, tiebreak, seq) order, so appending preserves
            # it, and no later insert can outrank them (any event
            # scheduled from now on carries a larger seq, and with no
            # tiebreak policy seq is the only same-class ordering).
            urgent, normal = self._now_urgent, self._now_normal
            while queue and queue[0][0] == when:
                entry = heapq.heappop(queue)
                if entry[1] == _URGENT:
                    urgent.append(entry[4])
                elif entry[4] is _DEADLINE:
                    # Still an entry, not an event: whether its wait has
                    # been answered is decided at its turn, as on the heap.
                    normal.append(entry)
                else:
                    normal.append(entry[4])
        return event

    def step(self) -> None:
        """Process the single next event.

        A failed :class:`~repro.simnet.process.Process` that nothing waits
        on re-raises its exception here: a crashed background process must
        surface as a simulation error, not as a silent hang.
        """
        # Urgency classes are strict at one timestamp — every urgent event
        # precedes every normal one — so checking the urgent deque first
        # is the heap's order, even for urgents scheduled a moment ago by
        # a normal event at this same instant.
        event = None
        while event is None:
            if self._now_urgent:
                event = self._now_urgent.popleft()
            elif self._now_normal:
                event = self._now_normal.popleft()
                if event.__class__ is tuple:
                    event = self._deadline_event(event[5])
            else:
                event = self._pop_heap()
        self.events_processed += 1
        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if not callbacks and not event._ok and not event.defused:
            if isinstance(event, Process):
                raise event._value

    # -- run loop ----------------------------------------------------------------

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the event queue is empty;
        * a number — run until simulated time reaches that value;
        * an :class:`Event` — run until that event is processed, returning
          its value (re-raising its exception if it failed).
        """
        stop_value: Any = None
        if until is None:
            stop_event: Optional[Event] = None
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:
                # Already processed.
                if not stop_event._ok:
                    raise stop_event._value
                return stop_event._value
            stop_event.add_callback(self._stop_callback)
        else:
            at = float(until)
            if at < self.now:
                raise ValueError(
                    f"until={at} lies in the past (now={self.now})"
                )
            stop_event = Event(self)
            stop_event._ok = True
            stop_event._value = None
            stop_event.callbacks.append(self._stop_callback)
            self.schedule(stop_event, delay=at - self.now, priority=True)

        # :meth:`step`, unrolled: one loop iteration per event instead of
        # one method call.
        urgent, normal = self._now_urgent, self._now_normal
        try:
            while True:
                if urgent:
                    event = urgent.popleft()
                elif normal:
                    event = normal.popleft()
                    if event.__class__ is tuple:
                        event = self._deadline_event(event[5])
                        if event is None:
                            continue
                else:
                    event = self._pop_heap()
                    if event is None:
                        continue
                self.events_processed += 1
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not callbacks and not event._ok and not event.defused:
                    if isinstance(event, Process):
                        raise event._value
        except StopSimulation as stop:
            stop_value = stop.args[0] if stop.args else None
        except EmptySchedule:
            if isinstance(until, Event) and not until.triggered:
                raise SimulationError(
                    "run(until=event): queue ran dry before the event fired"
                )
            return None

        if isinstance(until, Event):
            if not until._ok:
                raise until._value
            return until._value
        return stop_value

    @staticmethod
    def _stop_callback(event: Event) -> None:
        raise StopSimulation(event._value)
