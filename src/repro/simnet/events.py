"""Core event primitives for the discrete-event simulation kernel.

The kernel follows the classic event/process pattern (as popularised by
SimPy, reimplemented here from scratch): an :class:`Event` is a one-shot
container for a value or an exception, and callbacks attached to the event
fire when the environment processes it.  Processes (see
:mod:`repro.simnet.process`) are generators that yield events; the kernel
resumes them when the yielded event fires.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

__all__ = [
    "PENDING",
    "EXPIRED",
    "Event",
    "Timeout",
    "Wait",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "SimulationError",
]


class _PendingType:
    """Sentinel for "this event has not yet been given a value"."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "<PENDING>"


PENDING = _PendingType()


class _ExpiredType:
    """Sentinel a :class:`Wait` fires with when its deadline came first."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "<EXPIRED>"


EXPIRED = _ExpiredType()


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel itself."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`repro.simnet.process.Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:
        return f"Interrupt(cause={self.cause!r})"


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event moves through three states:

    * *not triggered*: freshly created, no value.
    * *triggered*: given a value via :meth:`succeed`/:meth:`fail` and
      scheduled with the environment.
    * *processed*: the environment popped it off the queue and invoked its
      callbacks.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment"):  # noqa: F821 - forward ref
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        #: Set True to suppress the "unhandled failed process" re-raise.
        self.defused: bool = False

    # -- state inspection ---------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (callbacks list is discarded)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded, False if it failed."""
        if not self.triggered:
            raise SimulationError("event value is not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        A failed event re-raises ``exception`` inside every process waiting
        on it.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (for chaining)."""
        if self._value is not PENDING:
            return
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self)

    # -- misc ---------------------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Attach ``callback`` to run when the event is processed."""
        if self.callbacks is None:
            raise SimulationError(f"{self!r} has already been processed")
        self.callbacks.append(callback)

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])


class Timeout(Event):
    """An event that fires automatically ``delay`` time units from now."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):  # noqa: F821
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self.defused = False
        self.delay = delay
        env.schedule(self, delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class Wait(Event):
    """``source``, or a deadline ``delay`` from now, whichever is first.

    Fires with the source's value (a failed source re-raises in the
    waiter), or with :data:`EXPIRED` when the deadline is processed while
    the source is still pending.  Either way the waiter resumes two hops
    after the deciding event, as with ``AnyOf(env, [source, timeout])``;
    unlike it, an answered wait leaves no timer to dispatch
    (:meth:`Environment.schedule_deadline`) nor, for long, a heap entry
    that pins its reply (:meth:`Environment.deadline_answered`).  Like
    ``AnyOf`` it cannot be cancelled: an abandoned wait still fires, with
    nobody listening.
    """

    __slots__ = ("_bare",)

    def __init__(self, env: "Environment", source: Event, delay: float):  # noqa: F821
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        if source.env is not env:
            raise SimulationError("cannot mix events from different environments")
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self.defused = False
        # Deadline first, then the source: the scheduling order of
        # ``timer = env.timeout(delay); AnyOf(env, [source, timer])``.
        self._bare = env.schedule_deadline(self, delay)
        if source.callbacks is None:
            self.trigger(source)
        else:
            source.callbacks.append(self.trigger)

    def trigger(self, event: Event) -> None:
        if self._value is PENDING:
            self._ok = event._ok
            self._value = event._value
            self.env.schedule(self)
            if self._bare:
                self.env.deadline_answered()

    def _expire(self, _deadline: Event) -> None:
        if self._value is PENDING:
            self._value = EXPIRED
            self.env.schedule(self)


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("events", "_completed")

    def __init__(self, env: "Environment", events):  # noqa: F821
        super().__init__(env)
        self.events = list(events)
        self._completed: List[Event] = []
        if not self.events:
            self.succeed(_ConditionValue({}))
            return
        for event in self.events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")
            if event.callbacks is None:
                self._check(event)
            else:
                event.add_callback(self._check)

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._completed.append(event)
        if not event._ok:
            self.fail(event._value)
        elif self._satisfied():
            # Only events already *processed* when the condition fires are
            # part of its value (a scheduled-but-pending Timeout is not).
            self.succeed(
                _ConditionValue({e: e._value for e in self._completed})
            )


class _ConditionValue(dict):
    """Mapping of triggered events to their values for AnyOf/AllOf."""


class AnyOf(_Condition):
    """Fires as soon as any of its events fires."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return len(self._completed) >= 1


class AllOf(_Condition):
    """Fires once all of its events have fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return len(self._completed) >= len(self.events)
