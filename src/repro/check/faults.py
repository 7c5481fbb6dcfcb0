"""Decision-point fault injection.

The :class:`DecisionFaultInjector` turns a schedule's fault ops into
actual failures by observing the protocol's **decision points**:

* ``pre-send`` — a message involving a watched host is about to leave
  its source (network hook);
* ``pre-deliver`` — such a message is about to be handed to its
  destination, after the latency delay (network hook);
* ``pre-commit`` — a b-peer is about to apply a request's side effect
  (the :attr:`~repro.core.bpeer.BPeer.pre_commit_hook`).

Every observed decision increments one global counter; an op armed for
``at_decision`` fires at the first matching decision whose index reaches
it.  ``drop`` consumes the decision (the message vanishes, exercising
loss at an exact protocol step); ``crash``/``partition`` mutate the world
through the system's :class:`~repro.simnet.failure.FailureInjector` so
the usual failure log and alternation audit cover injected faults too.
Coordinator-targeted ops resolve their victim **at fire time** — the
live peer currently claiming coordination with the highest epoch — which
is what lets a two-op schedule depose a coordinator and then kill its
successor without naming either in advance.

All faults are bounded: crashes restart and partitions heal after the
op's ``duration``, so the post-schedule cooldown can always converge.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..simnet.message import Message
from .invariants import all_peers
from .schedule import FaultOp

__all__ = ["DecisionFaultInjector"]


class DecisionFaultInjector:
    """Fires one schedule's fault ops at protocol decision points."""

    def __init__(self, system, services: Sequence[Any], ops: Sequence[FaultOp]):
        self.system = system
        self.services = list(services)
        #: Hosts whose traffic defines the decision space: the b-peer
        #: replicas of every service, across every federated shard group.
        #: Probe/client and rendezvous chatter that never touches a
        #: replica is not a protocol decision worth perturbing.
        self.watched = {peer.node.name for peer in all_peers(self.services)}
        self._pending: List[FaultOp] = sorted(ops, key=lambda op: op.at_decision)
        #: Global decision counter (1-based after the first decision).
        self.decisions = 0
        #: Ops that actually fired: ``{op, decision, time, victim}``.
        self.fired: List[Dict[str, Any]] = []
        #: Ops that could not fire (no live coordinator to target).
        self.skipped: List[Dict[str, Any]] = []
        self._installed = False

    # -- wiring ------------------------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            return
        self.system.network.add_hook(self._network_hook)
        for peer in all_peers(self.services):
            peer.pre_commit_hook = self._pre_commit_hook
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        self.system.network.remove_hook(self._network_hook)
        for peer in all_peers(self.services):
            peer.pre_commit_hook = None
        self._installed = False

    # -- decision points ---------------------------------------------------------------

    def _network_hook(self, point: str, message: Message) -> Optional[str]:
        if message.src[0] not in self.watched and message.dst[0] not in self.watched:
            return None
        return self._advance(point)

    def _pre_commit_hook(self, peer, request) -> None:
        self._advance("pre-commit")

    def _advance(self, point: str) -> Optional[str]:
        self.decisions += 1
        if not self._pending:
            return None
        to_fire: List[FaultOp] = []
        still_armed: List[FaultOp] = []
        for op in self._pending:
            if op.at_decision <= self.decisions and op.point in ("any", point):
                to_fire.append(op)
            else:
                still_armed.append(op)
        # Disarm *before* firing: a scale-up spawns a peer whose joins and
        # publishes synchronously re-enter these hooks, and a still-armed
        # op would double-fire.
        self._pending = still_armed
        verdict: Optional[str] = None
        for op in to_fire:
            if self._fire(op) == "drop":
                verdict = "drop"
        return verdict

    # -- firing ------------------------------------------------------------------------

    def _fire(self, op: FaultOp) -> Optional[str]:
        now = self.system.env.now
        if op.action == "drop":
            self._record(op, victim="<message>")
            return "drop"
        if op.action == "partition-region":
            self.system.failures.partition_region_at(
                now, op.target, duration=op.duration
            )
            self._record(op, victim=f"region:{op.target}")
            return None
        if op.action in ("scale-up", "scale-down"):
            # Drive the autoscaling controller directly (bypassing its
            # cooldown, never its [min, max] bounds) so scale transitions
            # race the schedule's other faults.  Capacity scenarios only;
            # recorded as skipped when the deployment has no controller
            # or the bound/drain state refuses the transition.
            controller = next(
                (c for service in self.services for c in service.autoscalers), None
            )
            accepted = False
            if controller is not None:
                if op.action == "scale-up":
                    accepted = controller.force_scale_up()
                else:
                    accepted = controller.force_scale_down()
            if accepted:
                self._record(op, victim=f"group:{controller.group.name}")
            else:
                self.skipped.append(
                    {"op": op.to_dict(), "decision": self.decisions, "time": now}
                )
            return None
        if op.action in ("crash", "partition"):
            victim = op.target
        else:
            peer = self._resolve_coordinator()
            if peer is None:
                self.skipped.append(
                    {"op": op.to_dict(), "decision": self.decisions, "time": now}
                )
                return None
            victim = peer.node.name
        if op.action.startswith("crash"):
            self.system.failures.crash_for(now, victim, op.duration)
        else:
            others = [
                name for name in self.system.network.hosts if name != victim
            ]
            self.system.failures.partition_at(
                now, [victim], others, duration=op.duration
            )
        self._record(op, victim=victim)
        return None

    def _resolve_coordinator(self):
        """The live peer claiming coordination under the highest epoch.

        In sharded deployments every group has a coordinator; the highest
        epoch across all of them is still "the most recently legitimate
        authority" — directed schedules that must hit one specific shard
        group name its hosts with ``crash``/``partition`` targets instead.
        """
        best = None
        for peer in all_peers(self.services):
            if not (peer.node.up and peer.coordinator_mgr.is_coordinator):
                continue
            if best is None or peer.coordinator_mgr.epoch > best.coordinator_mgr.epoch:
                best = peer
        return best

    def _record(self, op: FaultOp, victim: str) -> None:
        self.fired.append(
            {
                "op": op.to_dict(),
                "decision": self.decisions,
                "time": self.system.env.now,
                "victim": victim,
            }
        )
