"""Failure injection: crashes, restarts, partitions, churn.

The paper motivates Whisper with *system* failures that SOAP/WSDL cannot
express (§1): host crashes that silently kill a service.  This module
schedules exactly those — fail-stop crashes with optional restarts, network
partitions with a fixed duration, and continuous crash/restart churn for
availability experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from .network import Network

__all__ = ["FailureInjector", "FailureEvent"]


@dataclass
class FailureEvent:
    """A record of one injected failure, for reporting."""

    time: float
    kind: str  # "crash" | "restart" | "partition" | "heal"
    target: str


@dataclass
class FailureInjector:
    """Schedules failures against a network on the simulation clock."""

    network: Network
    log: List[FailureEvent] = field(default_factory=list)

    # -- one-shot actions ---------------------------------------------------------

    def crash_at(self, time: float, host: str) -> None:
        """Fail-stop ``host`` at the given simulated time."""
        self._at(time, lambda: self._crash(host))

    def restart_at(self, time: float, host: str) -> None:
        """Bring ``host`` back up at the given simulated time."""
        self._at(time, lambda: self._restart(host))

    def crash_for(self, time: float, host: str, downtime: float) -> None:
        """Crash ``host`` at ``time`` and restart it ``downtime`` later."""
        self.crash_at(time, host)
        self.restart_at(time + downtime, host)

    def partition_at(
        self,
        time: float,
        side_a: Iterable[str],
        side_b: Iterable[str],
        duration: Optional[float] = None,
    ) -> None:
        """Split the network at ``time``; heal after ``duration`` if given.

        Only *this* partition is healed when the duration elapses —
        overlapping partitions scheduled with different lifetimes keep
        their own clocks (healing everything would end them early).
        """
        side_a, side_b = list(side_a), list(side_b)
        sides = f"{side_a}|{side_b}"

        def split() -> None:
            handle = self.network.partition(side_a, side_b)
            self.log.append(FailureEvent(self.network.env.now, "partition", sides))
            if duration is not None:
                self._at(
                    self.network.env.now + duration,
                    lambda: self._heal_one(handle, sides),
                )

        self._at(time, split)

    def partition_region_at(
        self,
        time: float,
        region: str,
        duration: Optional[float] = None,
    ) -> None:
        """Isolate an entire region at ``time``; heal after ``duration``.

        Region-scoped partitions ride the same handle machinery as host
        partitions, so overlapping region and host splits heal on their
        own clocks.
        """
        label = f"region:{region}"

        def split() -> None:
            handle = self.network.isolate_region(region)
            self.log.append(FailureEvent(self.network.env.now, "partition", label))
            if duration is not None:
                self._at(
                    self.network.env.now + duration,
                    lambda: self._heal_one(handle, label),
                )

        self._at(time, split)

    # -- churn ----------------------------------------------------------------------

    def churn(
        self,
        hosts: Iterable[str],
        mtbf: float,
        mttr: float,
        until: float,
    ) -> List[Tuple[float, float, str]]:
        """Exponential crash/restart churn over ``hosts`` until ``until``.

        ``mtbf`` is the mean time between failures of each host, ``mttr``
        the mean time to repair.  This drives the availability-vs-replication
        ablation (DESIGN.md, Ablation B).

        Each host's timeline strictly alternates crash/restart: the next
        time-between-failures is sampled from the *repair* time, never from
        inside the outage (a host cannot crash while already down).
        Returns the schedule as ``(crash_time, restart_time, host)`` tuples;
        every call draws from the registry's one ``churn`` stream.
        """
        rng = self.network.rng.stream("churn")
        env = self.network.env
        schedule: List[Tuple[float, float, str]] = []
        for host in hosts:
            clock = env.now
            while True:
                clock += rng.expovariate(1.0 / mtbf)
                if clock >= until:
                    break
                downtime = min(rng.expovariate(1.0 / mttr), until - clock)
                self.crash_for(clock, host, downtime)
                schedule.append((clock, clock + downtime, host))
                # Resume the uptime clock at the *repair* instant — sampling
                # the next crash from the crash time could schedule a crash
                # while the host is still down, and the pending restart
                # would then silently truncate the later outage.
                clock += downtime
        return schedule

    # -- internals -------------------------------------------------------------------

    def _at(self, time: float, action) -> None:
        env = self.network.env
        delay = time - env.now
        if delay < 0:
            raise ValueError(f"cannot schedule failure in the past (t={time})")
        timeout = env.timeout(delay)
        timeout.add_callback(lambda _event: action())

    def _crash(self, host: str) -> None:
        node = self.network.host(host)
        if node.up:
            node.crash()
            self.log.append(FailureEvent(self.network.env.now, "crash", host))

    def _restart(self, host: str) -> None:
        node = self.network.host(host)
        if not node.up:
            node.restart()
            self.log.append(FailureEvent(self.network.env.now, "restart", host))

    def _heal_one(self, handle, sides: str) -> None:
        if self.network.heal_partition(handle):
            self.log.append(FailureEvent(self.network.env.now, "heal", sides))

    # -- reporting -------------------------------------------------------------------

    def alternation_violations(self) -> List[str]:
        """Audit the log: per host, crash/restart events must strictly
        alternate starting with a crash (an invariant the fault campaign
        checks — the pre-fix churn scheduler violated it by crashing hosts
        that were still down)."""
        violations: List[str] = []
        expected: dict = {}
        for event in self.log:
            if event.kind not in ("crash", "restart"):
                continue
            want = expected.get(event.target, "crash")
            if event.kind != want:
                violations.append(
                    f"{event.target}: {event.kind} at t={event.time:.3f} "
                    f"(expected {want})"
                )
            expected[event.target] = "restart" if event.kind == "crash" else "crash"
        return violations
