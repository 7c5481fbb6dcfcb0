"""Fault schedules indexed by decision point.

A schedule is the *perturbation* half of one explored run: the tiebreak
spec that reorders same-timestamp events, plus a list of fault operations
fired at protocol **decision points** rather than wall-clock instants.
Decision points are the moments the injector observes — a message about
to leave a watched host (``pre-send``), about to arrive at one
(``pre-deliver``), or a b-peer about to apply a side effect
(``pre-commit``).  Counting decisions instead of seconds means a fault
keeps hitting the same *protocol step* even as tiebreak perturbations
shift its wall-clock time, which is what makes shrinking productive.

Schedules serialize to plain JSON (they are the bulk of a repro file) and
are generated by :func:`random_schedule` from a private
:class:`random.Random`, so the explorer's sampling never disturbs the
simulation's own seeded streams.

The other half of a run is its :class:`Scenario` (the deployment and
workload), and what a run produced is a :class:`RunRecord`; the two
checker scenarios subclass both, so the engine in
:mod:`repro.check.explorer` is written once against these bases.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Tuple

__all__ = ["FaultOp", "Schedule", "Scenario", "RunRecord", "random_schedule", "ACTIONS"]

#: What every checked deployment shares, whichever scenario it runs: a
#: fast failure detector (0.5 s heartbeats, suspicion after 2 misses), so
#: a fault's failover fits a short run, and an invariant audit after
#: every half second of simulated time.
HEARTBEAT_INTERVAL = 0.5
MISS_THRESHOLD = 2
SLICE_SECONDS = 0.5

#: Every fault action a schedule may carry.  ``drop`` consumes the
#: decision itself (the message is discarded); the rest mutate the world
#: and let the decision proceed.  ``*-coordinator`` resolve their victim
#: at fire time: the live peer that currently claims coordination with
#: the highest epoch — the most recently legitimate authority.
#: ``partition-region`` isolates a whole named region (multi-region
#: scenarios only): every host inside it, including its rendezvous, is
#: cut from the rest of the WAN until the op heals.
#: ``scale-up``/``scale-down`` drive the autoscaling controller
#: (capacity scenarios only): a forced spawn, or a forced drain-first
#: retirement, racing whatever other faults the schedule carries.
ACTIONS = (
    "drop",
    "crash",
    "partition",
    "crash-coordinator",
    "partition-coordinator",
    "partition-region",
    "scale-up",
    "scale-down",
)

#: Decision kinds a ``drop`` may target (dropping at pre-commit would be
#: meaningless — nothing is in flight there).
_NETWORK_POINTS = ("pre-send", "pre-deliver")


@dataclass(frozen=True)
class FaultOp:
    """One fault, armed to fire at the ``at_decision``-th decision point.

    ``point`` filters which decision kinds may trigger the op (``"any"``
    matches all three); the op fires at the first matching decision whose
    global index is >= ``at_decision``.  ``target`` names a host for
    ``crash``/``partition``; coordinator-targeted actions resolve their
    victim at fire time and leave it ``None``.  ``duration`` bounds the
    fault — crashed hosts restart and partitions heal after it, so every
    schedule eventually returns the system to a recoverable state.
    """

    at_decision: int
    action: str
    target: Optional[str] = None
    duration: float = 3.0
    point: str = "any"

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.action == "drop" and self.point not in _NETWORK_POINTS:
            raise ValueError("drop ops must target pre-send or pre-deliver")
        if self.at_decision < 1:
            raise ValueError("at_decision counts from 1")
        if self.duration <= 0:
            raise ValueError("fault duration must be positive")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "at_decision": self.at_decision,
            "action": self.action,
            "target": self.target,
            "duration": self.duration,
            "point": self.point,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultOp":
        return cls(
            at_decision=int(data["at_decision"]),
            action=data["action"],
            target=data.get("target"),
            duration=float(data.get("duration", 3.0)),
            point=data.get("point", "any"),
        )

    def describe(self) -> str:
        where = f"@{self.at_decision}" + ("" if self.point == "any" else f"/{self.point}")
        if self.target is not None:
            victim = self.target
        elif self.action == "partition-region":
            victim = "<region>"
        elif self.action in ("scale-up", "scale-down"):
            victim = "<group>"
        else:
            victim = "<coordinator>"
        return f"{self.action}({victim}, {self.duration:.1f}s) {where}"


@dataclass(frozen=True)
class Schedule:
    """One perturbation of a scenario: tiebreak spec + ordered fault ops."""

    tiebreak: Optional[Dict[str, Any]] = None
    ops: Tuple[FaultOp, ...] = ()
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tiebreak": self.tiebreak,
            "ops": [op.to_dict() for op in self.ops],
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Schedule":
        return cls(
            tiebreak=data.get("tiebreak"),
            ops=tuple(FaultOp.from_dict(op) for op in data.get("ops", ())),
            label=data.get("label", ""),
        )

    def describe(self) -> str:
        kind = (self.tiebreak or {}).get("kind", "fifo")
        if kind == "shuffle":
            kind = f"shuffle(seed={self.tiebreak['seed']})"
        elif kind == "adversarial":
            kind = f"adversarial({self.tiebreak['victim']})"
        ops = ", ".join(op.describe() for op in self.ops) or "no faults"
        label = f"[{self.label}] " if self.label else ""
        return f"{label}tiebreak={kind}; {ops}"


@dataclass(frozen=True)
class Scenario:
    """The fixed half of one check run (a :class:`Schedule` is the other).

    A subclass adds its own fields, its repro ``FORMAT`` string,
    ``run(schedule)`` returning its :class:`RunRecord`, and its sampling:
    ``baseline_schedule()`` and ``schedules(baseline, max_ops)``.
    """

    seed: int = 0

    #: The ``format`` field of this scenario's repro files.
    FORMAT: ClassVar[str] = ""

    def replace(self, **changes: Any) -> "Scenario":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})


@dataclass
class RunRecord:
    """Everything one check run produced, digestible for replay."""

    violations: List[str] = field(default_factory=list)
    violated_at: Optional[float] = None
    decisions: int = 0
    sim_time: float = 0.0
    effects_applied: int = 0
    fired: List[Dict[str, Any]] = field(default_factory=list)
    skipped: List[Dict[str, Any]] = field(default_factory=list)
    #: ``(sim_time, decision_count)`` at every slice boundary — the map
    #: directed schedules use to aim an op at a wall-clock moment.
    timeline: List[Tuple[float, int]] = field(default_factory=list)
    hosts: List[str] = field(default_factory=list)

    #: The scenario's own fields the digest covers besides the common ones.
    DIGESTED: ClassVar[Tuple[str, ...]] = ()

    def digest(self) -> str:
        """Fingerprint of the observable outcome; replays must match it."""
        names = ("violations", "violated_at", "decisions", "sim_time", "effects_applied", "fired")
        payload = {name: getattr(self, name) for name in names + self.DIGESTED}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: Sampling weights for :func:`random_schedule`.  Coordinator-targeted
#: faults carry half the mass: they are the ones that open split-brain
#: and stale-delivery windows, which is what the invariants watch for.
_ACTION_WEIGHTS = (
    ("drop", 0.30),
    ("crash", 0.15),
    ("partition", 0.10),
    ("crash-coordinator", 0.25),
    ("partition-coordinator", 0.20),
)


def _weighted_choice(rng: random.Random, weighted) -> str:
    roll = rng.random()
    acc = 0.0
    for value, weight in weighted:
        acc += weight
        if roll < acc:
            return value
    return weighted[-1][0]


def random_schedule(
    rng: random.Random,
    hosts: Sequence[str],
    decision_horizon: int,
    max_ops: int = 4,
    label: str = "",
    regions: Sequence[str] = (),
    scale_events: bool = False,
) -> Schedule:
    """Sample one schedule against ``hosts`` (the watched b-peer hosts).

    ``decision_horizon`` is the decision-point count of the unperturbed
    baseline run; ops are armed within its first three quarters so every
    fault has slack to fire (perturbed runs shift counts slightly) and
    the cooldown still has room to recover.  Passing ``regions`` (the
    topology's region names) adds whole-region isolation to the action
    pool; ``scale_events`` (capacity scenarios) adds forced
    scale-up/scale-down controller ops the same way.  Default
    exploration keeps the original pool — and the original sampling
    sequence — untouched.
    """
    if decision_horizon < 4:
        raise ValueError(f"decision horizon {decision_horizon} is too small")
    weights = list(_ACTION_WEIGHTS)
    if regions:
        weights = [(action, weight * 0.8) for action, weight in weights]
        weights.append(("partition-region", 0.2))
    if scale_events:
        weights = [(action, weight * 0.75) for action, weight in weights]
        weights.append(("scale-up", 0.10))
        weights.append(("scale-down", 0.15))
    tiebreak: Optional[Dict[str, Any]]
    roll = rng.random()
    if roll < 0.20:
        tiebreak = None
    elif roll < 0.75:
        tiebreak = {"kind": "shuffle", "seed": rng.randrange(1 << 30)}
    else:
        tiebreak = {"kind": "adversarial", "victim": rng.choice(list(hosts))}
    window = max(2, (decision_horizon * 3) // 4)
    ops: List[FaultOp] = []
    for _ in range(rng.randint(1, max_ops)):
        action = _weighted_choice(rng, weights)
        at = rng.randint(1, window)
        if action == "drop":
            ops.append(
                FaultOp(
                    at_decision=at,
                    action="drop",
                    point=rng.choice(list(_NETWORK_POINTS)),
                )
            )
        else:
            if action in ("crash", "partition"):
                target: Optional[str] = rng.choice(list(hosts))
            elif action == "partition-region":
                target = rng.choice(list(regions))
            else:
                # Coordinator-targeted and scale ops resolve at fire time.
                target = None
            ops.append(
                FaultOp(
                    at_decision=at,
                    action=action,
                    target=target,
                    duration=rng.uniform(1.5, 4.5),
                )
            )
    ops.sort(key=lambda op: op.at_decision)
    return Schedule(tiebreak=tiebreak, ops=tuple(ops), label=label)
