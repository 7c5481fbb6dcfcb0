"""Generator-based simulated processes.

A process wraps a Python generator.  Whenever the generator yields an
:class:`~repro.simnet.events.Event`, the process suspends until that event
fires; the event's value (or exception) is sent (or thrown) back into the
generator.  A :class:`Process` is itself an event that fires when the
generator returns, which lets processes wait on each other.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from .events import PENDING, Event, Interrupt, SimulationError

__all__ = ["Process"]


class Process(Event):
    """A running simulated activity driven by a generator.

    The process fires (as an event) with the generator's return value when
    the generator finishes, or fails with the exception that escaped it.
    """

    __slots__ = ("_generator", "_target", "name", "_started")

    def __init__(
        self,
        env: "Environment",  # noqa: F821 - forward ref
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self._started = False
        self.name = name or getattr(generator, "__name__", "process")
        # Kick-start the process via an immediately-scheduled init event.
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        env.schedule(init)

    # -- public API ----------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process.

        The process stops waiting on its current target and must handle the
        interrupt (or die with it).  Interrupting a finished process is an
        error; interrupting yourself is also an error.
        """
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise SimulationError("a process is not allowed to interrupt itself")

        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.callbacks.append(self._resume)
        self.env.schedule(interrupt_event, priority=True)

    # -- internal ------------------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        if self._value is not PENDING:
            # The process terminated while an interrupt was in flight.
            return
        env = self.env

        if not event._ok and not self._started:
            # Interrupted before the generator ever ran (e.g. the host
            # crashed in the same instant the process was spawned).  A
            # throw would surface at the function's first line, outside any
            # try block — just terminate the never-started process.
            self._generator.close()
            self._ok = False
            self._value = event._value
            self.defused = True
            env.schedule(self)
            return
        self._started = True

        env._active_process = self

        # Detach from the old target: if this resume is an interrupt, the
        # previous target may still fire later and must not resume us twice.
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
            if not target.callbacks:
                # Nobody else is waiting: withdraw cancellable targets
                # (store gets/puts) so they cannot later consume an item
                # on behalf of this no-longer-waiting process.
                cancel = getattr(target, "cancel", None)
                if cancel is not None:
                    cancel()
        self._target = None

        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            self._ok = True
            self._value = stop.value
            env.schedule(self)
            return
        except BaseException as exc:
            self._ok = False
            self._value = exc
            env.schedule(self)
            return
        finally:
            env._active_process = None

        if not isinstance(next_event, Event):
            raise SimulationError(
                f"process {self.name!r} yielded a non-event: {next_event!r}"
            )
        if next_event.callbacks is None:
            # Already processed: resume immediately on the next step.
            immediate = Event(env)
            immediate._ok = next_event._ok
            immediate._value = next_event._value
            immediate.callbacks.append(self._resume)
            env.schedule(immediate)
            self._target = immediate
        else:
            next_event.callbacks.append(self._resume)
            self._target = next_event

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "finished"
        return f"<Process {self.name!r} {state}>"
