"""Simulated hosts.

A :class:`Node` models one machine of the paper's testbed (one of the nine
P4 PCs).  It owns a transport (port-addressed inboxes), a liveness flag, and
a registry of crash/restart hooks so that higher layers (peers, services)
can participate in failure injection.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from .process import Process

__all__ = ["Node"]

#: Finished processes a host may list beyond twice its live ones.
_PRUNE_SLACK = 16


class Node:
    """One simulated machine."""

    def __init__(self, network: "Network", name: str):  # noqa: F821
        self.network = network
        self.env = network.env
        self.name = name
        self.up = True
        self.crash_count = 0
        self._processes: List[Process] = []
        self._prune_at = _PRUNE_SLACK
        self._crash_hooks: List[Callable[["Node"], None]] = []
        self._restart_hooks: List[Callable[["Node"], None]] = []
        # Set by the network when the host is added.
        self.transport: Optional["Transport"] = None  # noqa: F821

    # -- process management ---------------------------------------------------

    def spawn(self, generator, name: Optional[str] = None) -> Process:
        """Start a process that dies when this host crashes.

        The host lists it for :meth:`crash` to interrupt and forgets it
        once finished: whenever the list has doubled since the last prune
        the finished ones are dropped (spawn order kept) — amortised O(1),
        at most twice the live processes plus ``_PRUNE_SLACK`` listed.  Not
        a completion callback, which would make a failed process look
        waited-on and silence the re-raise in :meth:`Environment.step`.
        """
        process = self.env.process(generator, name=name or f"{self.name}/proc")
        self._processes.append(process)
        if len(self._processes) >= self._prune_at:
            self._processes = [p for p in self._processes if p.is_alive]
            self._prune_at = 2 * len(self._processes) + _PRUNE_SLACK
        return process

    def on_crash(self, hook: Callable[["Node"], None]) -> None:
        """Register a hook invoked when the host crashes."""
        self._crash_hooks.append(hook)

    def on_restart(self, hook: Callable[["Node"], None]) -> None:
        """Register a hook invoked when the host restarts."""
        self._restart_hooks.append(hook)

    # -- failure actions --------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop this host: kill its processes, drop its traffic."""
        if not self.up:
            return
        self.up = False
        self.crash_count += 1
        for process in self._processes:
            if process.is_alive and process is not self.env.active_process:
                process.interrupt("crash")
        self._processes = [p for p in self._processes if p.is_alive]
        if self.transport is not None:
            self.transport.flush()
        for hook in list(self._crash_hooks):
            hook(self)

    def restart(self) -> None:
        """Bring the host back up; restart hooks re-create its services."""
        if self.up:
            return
        self.up = True
        for hook in list(self._restart_hooks):
            hook(self)

    def __repr__(self) -> str:
        state = "up" if self.up else "down"
        return f"<Node {self.name} {state}>"
