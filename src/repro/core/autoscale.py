"""Demand-driven b-peer group membership: the autoscaling controller.

The paper benchmarks fixed-size b-peer groups; bursty traffic either
over-provisions them (idle replica-hours) or melts them (sheds at the
queue bound).  Following the peer-group-adaptation argument of Jan et
al., this controller resizes a deployed group at run time:

* the **demand signal** is the coordinator's dispatch load ledger — the
  same per-member outstanding counts the dispatch policies and the
  `bpeer.queue_depth` gauge already observe — averaged over the live
  membership;
* **scale up** adds a member the way the initial deployment did
  (:meth:`~repro.core.bpeer_group.BPeerGroup.add_member`: new host, new
  :class:`BPeer`, join + publish the group advertisement) once pressure
  crosses ``high_watermark``;
* **scale down** retires the newest non-coordinating replica with an
  epoch-safe protocol: announce the leave first (the coordinator's
  dispatch view prunes leavers, so no new work arrives), *drain* the
  victim's queue and in-flight execution, deregister its advertisement
  (stop republishing + flush the local cache), and only then shut it
  down.  The drain outcome is journalled so the checker can audit "no
  in-flight work stranded by retirement" offline;
* **cooldown hysteresis** — at most one scale decision per ``cooldown``
  window, and a :class:`ScaleEvent` carries its decision instant — keeps
  the controller from flapping on noise.

The decision core lives in :class:`AutoscalePolicy`, a pure state
machine the property suite drives directly with Hypothesis-generated
traces; :class:`AutoscalingGroup` wires that policy to a live group on
a dedicated controller host (so checker-injected b-peer crashes never
take the control loop down with them).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional

__all__ = [
    "AutoscaleSpec",
    "AutoscalePolicy",
    "ScaleEvent",
    "RetirementRecord",
    "AutoscalingGroup",
]


@dataclass(frozen=True)
class AutoscaleSpec:
    """Tuning knobs, carried by ``ScenarioConfig(autoscale=...)``."""

    min_replicas: int = 2
    max_replicas: int = 8
    high_watermark: float = 3.0
    low_watermark: float = 0.5
    cooldown: float = 5.0
    interval: float = 1.0
    drain_grace: float = 0.05
    drain_timeout: float = 30.0
    #: The victim must be *continuously* idle this long before shutdown:
    #: the leave announcement propagates asynchronously, so a delegation
    #: issued from a stale dispatch view can still be on the wire after
    #: the victim's queue first reads empty.
    drain_settle: float = 0.25
    #: EWMA weight on the newest pressure sample (1.0 = no smoothing).
    #: Instantaneous queue samples are noisy — an idle instant under a
    #: bursty arrival process reads as pressure 0 and would flap the
    #: group down mid-burst; smoothing makes the watermarks compare
    #: against sustained demand instead.
    smoothing: float = 1.0

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ValueError("min_replicas must be >= 1")
        if self.max_replicas < self.min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        if self.low_watermark < 0 or self.high_watermark <= self.low_watermark:
            raise ValueError("need 0 <= low_watermark < high_watermark")
        if self.cooldown < 0 or self.interval <= 0:
            raise ValueError("cooldown must be >= 0 and interval > 0")
        if not 0.0 < self.smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")


@dataclass(frozen=True)
class ScaleEvent:
    #: When the scale action was *decided* — the clock the cooldown runs
    #: on (``AutoscalePolicy.last_scale_at``).  A scale-up completes in the
    #: same instant; a scale-down announces the leave then and drains for
    #: as long as it takes — :attr:`RetirementRecord.at` is its completion.
    at: float
    direction: str  # "up" | "down"
    replicas: int  # active replica count *after* the event
    pressure: float
    forced: bool = False


@dataclass(frozen=True)
class RetirementRecord:
    """Drain audit for one retired replica (checker invariant input)."""

    at: float
    peer: str
    queued_at_exit: int
    parked_at_exit: int
    drained: bool


class AutoscalePolicy:
    """The pure decision core: watermarks + cooldown hysteresis.

    Deliberately free of simnet types so property tests can drive it
    with millions of synthetic (pressure, active, now) samples.
    """

    def __init__(self, spec: AutoscaleSpec):
        self.spec = spec
        self.last_scale_at: Optional[float] = None
        #: EWMA of the pressure samples seen so far (None before any).
        self.smoothed: Optional[float] = None

    def decide(self, pressure: float, active: int, now: float) -> Optional[str]:
        """Return "up", "down", or None; commits the cooldown on a decision."""
        spec = self.spec
        if self.smoothed is None:
            self.smoothed = pressure
        else:
            self.smoothed += spec.smoothing * (pressure - self.smoothed)
        if self.last_scale_at is not None and now - self.last_scale_at < spec.cooldown:
            return None
        if self.smoothed >= spec.high_watermark and active < spec.max_replicas:
            self.last_scale_at = now
            return "up"
        if self.smoothed <= spec.low_watermark and active > spec.min_replicas:
            self.last_scale_at = now
            return "down"
        return None


class AutoscalingGroup:
    """Control loop resizing one deployed :class:`BPeerGroup`."""

    def __init__(
        self,
        network,
        rendezvous,
        group,
        replica_factory: Callable[[int], object],
        config,
    ):
        self.network = network
        self.rendezvous = rendezvous
        self.group = group
        self.replica_factory = replica_factory
        #: The group's ScenarioConfig: scale-up replicas get the same knobs.
        self.config = config
        self.spec: AutoscaleSpec = config.autoscale
        self.node = network.add_host(f"autoscale-{group.name}")
        self.env = self.node.env
        self.obs = network.obs
        self.policy = AutoscalePolicy(self.spec)
        #: Audit logs (newest last), bounded like ``SemanticResultCache.serves``;
        #: the ``autoscale.*`` counters are the running totals.
        self.events: Deque[ScaleEvent] = deque(maxlen=8192)
        self.retirements: Deque[RetirementRecord] = deque(maxlen=8192)
        #: Retired peers stay in ``group.peers`` so effect-ledger audits
        #: still cover them; this set tells the two populations apart.
        self._retired_ids: set = set()
        self.retired: List[object] = []
        self._retiring = None
        #: Replica-seconds integral (the bench's replica-hours numerator).
        self.replica_seconds = 0.0
        self._last_sample = self.env.now
        self._proc = None

    # -- lifecycle ---------------------------------------------------------------------

    def start(self) -> None:
        if self._proc is None or not self._proc.is_alive:
            self._proc = self.node.spawn(
                self._control_loop(), name=f"autoscale:{self.group.name}"
            )

    def stop(self) -> None:
        self._sample_replica_time()
        if self._proc is not None and self._proc.is_alive:
            proc, self._proc = self._proc, None
            if proc is not self.env.active_process:
                proc.interrupt("shutdown")

    # -- introspection -----------------------------------------------------------------

    def active_peers(self) -> List[object]:
        """Group members not (yet) retired — the population we manage."""
        return [p for p in self.group.peers if id(p) not in self._retired_ids]

    def pressure(self) -> float:
        """Average outstanding work per live member, from the ledger."""
        coordinator = self.group.coordinator_peer()
        alive = [p for p in self.active_peers() if p.node.up]
        if coordinator is None or not alive:
            return 0.0
        outstanding = coordinator._total_outstanding()
        queued = sum(len(p._queue.items) for p in alive)
        return max(outstanding, queued) / len(alive)

    def replica_seconds_total(self, now: Optional[float] = None) -> float:
        """The integral including the still-open tail."""
        now = self.env.now if now is None else now
        return self.replica_seconds + len(self.active_peers()) * max(0.0, now - self._last_sample)

    # -- checker hooks (bypass cooldown, respect bounds) -------------------------------

    def force_scale_up(self) -> bool:
        if len(self.active_peers()) >= self.spec.max_replicas:
            return False
        self._spawn_replica(forced=True)
        return True

    def force_scale_down(self) -> bool:
        """Begin a forced retirement (async drain); False if at the floor."""
        if self._retiring is not None or len(self.active_peers()) <= self.spec.min_replicas:
            return False
        if self._pick_victim() is None:
            return False
        self.node.spawn(
            self._retire_replica(forced=True), name=f"autoscale-retire:{self.group.name}"
        )
        return True

    # -- internals ---------------------------------------------------------------------

    def _control_loop(self):
        from ..simnet.events import Interrupt

        try:
            while True:
                yield self.env.timeout(self.spec.interval)
                self._sample_replica_time()
                if self._retiring is not None:
                    continue
                decision = self.policy.decide(
                    self.pressure(), len(self.active_peers()), self.env.now
                )
                if decision == "up":
                    self._spawn_replica()
                elif decision == "down":
                    yield from self._retire_replica()
        except Interrupt:
            return

    def _sample_replica_time(self) -> None:
        now = self.env.now
        self.replica_seconds += len(self.active_peers()) * max(0.0, now - self._last_sample)
        self._last_sample = now

    def _spawn_replica(self, forced: bool = False):
        self._sample_replica_time()
        pressure = self.pressure()
        # Retired peers stay in ``group.peers``, so its length is the next
        # replica index.
        bpeer = self.group.add_member(
            self.network,
            self.rendezvous,
            self.replica_factory(len(self.group.peers)),
            self.config,
        )
        self.events.append(
            ScaleEvent(
                at=self.env.now,
                direction="up",
                replicas=len(self.active_peers()),
                pressure=pressure,
                forced=forced,
            )
        )
        self.obs.metrics.inc("autoscale.scale_up")
        return bpeer

    def _pick_victim(self):
        """Newest live, non-coordinating, active replica (or None)."""
        for peer in reversed(self.active_peers()):
            if peer.node.up and not peer.coordinator_mgr.is_coordinator:
                return peer
        return None

    def _in_live_views(self, victim) -> bool:
        """Does any live sibling's group view still contain the victim?"""
        for peer in self.active_peers():
            if peer is victim or not peer.node.up:
                continue
            if victim.peer_id in peer.groups.members(victim.group_id):
                return True
        return False

    def _retire_replica(self, forced: bool = False):
        victim = self._pick_victim()
        if victim is None or self._retiring is not None:
            return
        self._retiring = victim
        try:
            if victim.coordinator_mgr.is_coordinator:
                return  # won an election since we picked it; abort
            pressure = self.pressure()
            decided_at = self.env.now
            # 1. Announce the leave: the coordinator's dispatch view
            #    prunes leavers, so no *new* work is routed to the victim
            #    (in-flight delegations still complete — it keeps serving).
            victim.groups.leave(victim.group_id)
            # 2. Wait for the leave to propagate: until every live
            #    member's view has pruned the victim, the coordinator may
            #    still delegate fresh work to it.  Bounded by the drain
            #    deadline — under message loss the rendezvous lease
            #    expiry prunes it eventually, and retries mask the rest.
            deadline = self.env.now + self.spec.drain_timeout
            while self._in_live_views(victim) and self.env.now < deadline:
                yield self.env.timeout(self.spec.drain_grace)
            # 3. Drain: queued work, the in-flight execution, and parked
            #    duplicate-retries must all clear — and *stay* clear for
            #    a settle window, because a delegation issued from a
            #    stale view can still be on the wire when the queue
            #    first reads empty.
            idle_since: Optional[float] = None
            while self.env.now < deadline:
                if any(victim.pending_work()):
                    idle_since = None
                elif idle_since is None:
                    idle_since = self.env.now
                elif self.env.now - idle_since >= self.spec.drain_settle:
                    break
                yield self.env.timeout(self.spec.drain_grace)
            queued, parked = victim.pending_work()
            self._sample_replica_time()
            # 4. Deregister the advertisement: stop republishing and flush
            #    the local cache (the surviving replicas keep the group
            #    advertisement alive on the rendezvous).
            victim.published_advertisements.clear()
            victim.discovery.flush(self.group.advertisement)
            # 5. Only now tear the peer down.
            victim.shutdown()
            self._retired_ids.add(id(victim))
            self.retired.append(victim)
            self.retirements.append(
                RetirementRecord(
                    at=self.env.now,
                    peer=victim.name,
                    queued_at_exit=queued,
                    parked_at_exit=parked,
                    drained=(queued == 0 and parked == 0),
                )
            )
            self.events.append(
                ScaleEvent(
                    at=decided_at,
                    direction="down",
                    replicas=len(self.active_peers()),
                    pressure=pressure,
                    forced=forced,
                )
            )
            self.obs.metrics.inc("autoscale.scale_down")
        finally:
            self._retiring = None
