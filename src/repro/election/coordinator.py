"""Group coordination: glue between election and failure detection.

Each b-peer runs one :class:`GroupCoordinator` per group.  It owns a
:class:`~repro.election.bully.BullyElector` and a
:class:`~repro.election.detector.HeartbeatMonitor`, and closes the loop:

* when a coordinator is elected, every other member starts monitoring it;
* when the monitor suspects the coordinator, the member removes it from
  its group view and starts a Bully election;
* the winner announces itself; monitors re-target; the group is healthy
  again.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..p2p.ids import PeerGroupId, PeerId
from ..p2p.peergroup import GroupService
from .bully import BullyElector
from .detector import HeartbeatMonitor

__all__ = ["GroupCoordinator"]


class GroupCoordinator:
    """Fault-tolerant coordinator tracking for one peer in one group."""

    def __init__(
        self,
        groups: GroupService,
        group_id: PeerGroupId,
        heartbeat_interval: float = 1.0,
        miss_threshold: int = 3,
    ):
        self.groups = groups
        self.group_id = group_id
        self.elector = BullyElector(groups, group_id)
        self.monitor = HeartbeatMonitor(
            groups,
            group_id,
            interval=heartbeat_interval,
            miss_threshold=miss_threshold,
        )
        self._change_listeners: List[Callable[[Optional[PeerId]], None]] = []
        self.failovers = 0
        self._watchdog = None
        self.watchdog_interval = max(2.0, heartbeat_interval * 2)
        self.monitor.is_coordinator_check = lambda: self.elector.is_coordinator
        self.elector.on_coordinator_elected(self._on_elected)
        groups.endpoint.node.on_crash(lambda _node: self._on_crash())
        groups.endpoint.node.on_restart(lambda _node: self._start_watchdog())
        self._start_watchdog()

    # -- public API ------------------------------------------------------------------

    @property
    def coordinator(self) -> Optional[PeerId]:
        return self.elector.coordinator

    @property
    def epoch(self):
        """Fencing epoch of the currently accepted coordinator."""
        return self.elector.epoch

    @property
    def is_coordinator(self) -> bool:
        return self.elector.is_coordinator

    def on_change(self, listener: Callable[[Optional[PeerId]], None]) -> None:
        """Observe coordinator changes (listener receives the new id)."""
        self._change_listeners.append(listener)

    def bootstrap(self) -> None:
        """Start the first election for this group."""
        self.elector.start_election()

    # -- internal ---------------------------------------------------------------------

    def _start_watchdog(self) -> None:
        if self._watchdog is None or not self._watchdog.is_alive:
            self._watchdog = self.groups.endpoint.node.spawn(
                self._watchdog_loop(),
                name=f"coord-watchdog:{self.groups.endpoint.node.name}",
            )

    def _watchdog_loop(self):
        """Self-healing: elect whenever the group has no known coordinator.

        Covers the races a single explicit bootstrap cannot: members that
        joined after the first election, simultaneous coordinator and
        monitor loss, and restarts.  Concurrent elections are safe — the
        Bully ANSWER mechanism collapses them.
        """
        from ..simnet.events import Interrupt

        env = self.groups.endpoint.node.env
        try:
            while True:
                yield env.timeout(self.watchdog_interval)
                if not self.groups.is_member(self.group_id):
                    continue
                if self.elector.is_coordinator:
                    # Quiescent anti-entropy: keep re-advertising our term
                    # so a rival claimant from a healed partition is found
                    # (and fenced off) even with no client traffic at all.
                    self.elector.reaffirm()
                coordinator = self.elector.coordinator
                needs_election = coordinator is None or (
                    coordinator not in self.groups.members(self.group_id)
                )
                stale_monitor = (
                    coordinator is not None
                    and coordinator != self.groups.endpoint.peer_id
                    and not self.monitor.active
                )
                if needs_election:
                    self.elector.start_election()
                elif stale_monitor:
                    self.monitor.watch(coordinator, self._on_coordinator_failure)
        except Interrupt:
            return

    def _on_elected(self, coordinator: PeerId) -> None:
        if coordinator != self.groups.endpoint.peer_id:
            self.monitor.watch(coordinator, self._on_coordinator_failure)
        else:
            self.monitor.stop()
        for listener in self._change_listeners:
            listener(coordinator)

    def _on_coordinator_failure(self, failed: PeerId) -> None:
        """The monitored coordinator stopped answering: fail over."""
        self.failovers += 1
        self.groups.remove_member(self.group_id, failed)
        if self.elector.coordinator == failed:
            self.elector.coordinator = None
        self.elector.start_election()

    def _on_crash(self) -> None:
        self.monitor.stop()
        self.elector.coordinator = None
        self.elector.election_in_progress = False
        self._watchdog = None
