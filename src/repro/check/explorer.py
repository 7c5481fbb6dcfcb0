"""The one checker engine: sample schedules, shrink violations, replay them.

One **run** = one scenario executed under one
:class:`~repro.check.schedule.Schedule` (tiebreak perturbation + fault
ops), re-audited after every short slice so a transient violation (a
stale delivery that later self-corrects) is caught when it happens.
Two scenarios plug in: :class:`CheckScenario` (a small enroll deployment
with a mutating workload and an open-loop probe driver) and
:class:`~repro.check.saga.SagaCheckScenario` (loan sagas behind a
crashable orchestrator).  Both subclass
:class:`~repro.check.schedule.Scenario` (``replace`` / ``to_dict`` /
``from_dict``, a repro ``FORMAT`` string, ``run(schedule)``, and their
schedule sampling) and record their runs in a
:class:`~repro.check.schedule.RunRecord`; everything else here is
written once against those two bases.

On a violation the explorer shrinks the schedule — ddmin over the fault
ops, then an attempt to drop the tiebreak perturbation — to a minimal
counterexample, dumps a **repro file** (format + scenario + schedule +
expected violations + a run digest), and re-executes it to prove the
file replays byte-identically.  ``python -m repro check --replay FILE``
does the same standalone, picking the scenario from the ``format`` field.

:func:`self_test` and :func:`saga_self_test` are the checker's own
regression tests: each disables one protection (epoch fencing, saga
compensation), drives directed schedules until an invariant trips, and
requires the find/shrink/replay pipeline to succeed end to end — proof
the invariants have teeth, not just that quiet runs stay quiet.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.autoscale import AutoscaleSpec
from ..core.breaker import BreakerSpec
from ..core.config import ScenarioConfig
from ..core.rescache import ResultCacheSpec
from ..core.errors import WhisperError
from ..core.system import WhisperSystem
from ..core.topology import Topology
from ..simnet.events import Interrupt
from ..soap.fault import SoapFault
from .faults import DecisionFaultInjector
from .invariants import InvariantRegistry, effect_totals
from .saga import SagaCheckScenario
from .schedule import (
    HEARTBEAT_INTERVAL,
    MISS_THRESHOLD,
    SLICE_SECONDS,
    FaultOp,
    RunRecord,
    Scenario,
    Schedule,
    random_schedule,
)
from .tiebreak import build_tiebreak

__all__ = [
    "CheckScenario",
    "RunResult",
    "ExploreReport",
    "ScheduleExplorer",
    "run_schedule",
    "shrink_schedule",
    "save_repro",
    "load_repro",
    "replay_repro",
    "self_test",
    "saga_self_test",
]


#: The enroll deployment every :class:`CheckScenario` explores: three
#: replicas over 40 students, each member's admission capped at 4.
REPLICAS = 3
STUDENTS = 40
QUEUE_BOUND = 4
#: The open-loop probe driver: one EnrollStudent every 0.4 s, each attempt
#: timing out after 1.5 s inside an 8 s budget.
PROBE_PERIOD = 0.4
PROBE_TIMEOUT = 1.5
PROBE_BUDGET = 8.0


@dataclass(frozen=True)
class CheckScenario(Scenario):
    """The enroll deployment under one schedule.

    Small on purpose: three replicas and a dozen probes already contain
    every protocol interaction the invariants watch (election, dispatch,
    journalling, rebind), and a run must stay cheap — the explorer's
    power comes from how many orderings it visits, not from how big any
    one of them is.  ``load_sharing`` stays off so the queue-bound audit
    sees the coordinator-only admission ledger the bound governs.
    ``shards`` and ``regions`` are mutually exclusive axes (the system
    does not support sharded multi-region deployments).  What no caller
    varies is a module constant; ``settle``, ``probe_duration`` and
    ``cooldown`` are fields because tests shorten them.
    """

    settle: float = 6.0
    probe_duration: float = 12.0
    cooldown: float = 12.0
    #: ``False`` is the self-test's seeded defect: every b-peer's elector
    #: and the proxy's binding table drop their epoch fence (b-peers and
    #: journals stay fenced — fencing is the protocol, not an option).
    epoch_fencing: bool = True
    #: Federated shard groups for the enroll service; 1 keeps the
    #: deployment (and every existing repro file's digest) unchanged.
    shards: int = 1
    #: WAN regions the deployment spans; 1 keeps the flat single LAN.
    #: With more, the group is *span*-placed — one election domain whose
    #: replicas straddle the WAN — and schedules gain whole-region
    #: isolation ops, so election safety and exactly-once are audited
    #: across WAN splits and heals.
    regions: int = 1
    #: Adaptive-capacity exploration: the deployment gains an autoscaling
    #: controller, a proxy circuit breaker, and the semantic result cache,
    #: and schedules gain forced ``scale-up``/``scale-down`` ops — so
    #: retirements, breaker trips, and cache fencing race crashes,
    #: partitions, and drops while the capacity invariants (drained
    #: retirement, justified breaker opens, zero fenced-epoch serves)
    #: are audited every slice.  ``False`` keeps the deployment (and
    #: every existing repro file's digest) unchanged.
    capacity: bool = False

    #: The ``format`` field of this scenario's repro files.
    FORMAT: ClassVar[str] = "whisper-check/1"

    def region_names(self) -> List[str]:
        return [f"r{index}" for index in range(self.regions)]

    def run(self, schedule: Schedule) -> "RunResult":
        return run_schedule(self, schedule)

    def baseline_schedule(self) -> Schedule:
        """The unperturbed schedule an exploration of this seed starts from."""
        return Schedule(label="baseline")

    def schedules(self, baseline: "RunResult", max_ops: int) -> Iterator[Schedule]:
        """Endless random schedules for this seed, aimed at ``baseline``'s
        hosts and decision horizon (plus region-isolation / forced-scale
        ops on the axes that have them)."""
        rng = random.Random(f"check-schedules:{self.seed}")
        for index in itertools.count():
            yield random_schedule(
                rng,
                baseline.hosts,
                decision_horizon=baseline.decisions,
                max_ops=max_ops,
                label=f"seed{self.seed}/{index}",
                regions=self.region_names() if self.regions > 1 else (),
                scale_events=self.capacity,
            )


@dataclass
class RunResult(RunRecord):
    """One enroll run: the common record plus the probe driver's tally."""

    probes_ok: int = 0
    probes_failed: int = 0

    DIGESTED: ClassVar[Tuple[str, ...]] = ("probes_ok", "probes_failed")


# -- one run -----------------------------------------------------------------------


def _build_system(scenario: CheckScenario):
    """Deploy the check workload: §3's mutating EnrollStudent service,
    one independent operational store per replica (so the effect ledgers
    attribute every application unambiguously).  With ``shards > 1`` the
    same workload runs against federated shard groups — each a full
    replica set with its own stores — which is what lets a schedule
    crash one whole shard group and audit that exactly-once and election
    safety survive the ring handoff.  With ``regions > 1`` the group is
    instead *span*-placed over a WAN mesh (one election domain, replicas
    round-robin across regions), so region-isolation schedules audit the
    same invariants across WAN splits and heals."""
    topology = (
        Topology.mesh(scenario.region_names(), placement="span")
        if scenario.regions > 1
        else None
    )
    capacity_specs: Dict[str, Any] = {}
    if scenario.capacity:
        capacity_specs = dict(
            # Short cooldown/interval so forced and policy-driven scale
            # transitions both land inside the probe window; the breaker
            # re-closes well before the post-cooldown final probes, so a
            # trip mid-schedule never dooms eventual rebind.
            autoscale=AutoscaleSpec(
                min_replicas=2,
                max_replicas=REPLICAS + 2,
                cooldown=2.0,
                interval=0.5,
                drain_timeout=8.0,
            ),
            circuit_breaker=BreakerSpec(
                window=8,
                min_calls=4,
                failure_threshold=0.75,
                open_duration=1.0,
            ),
            result_cache=ResultCacheSpec(capacity=128, staleness_bound=2.0),
        )
    config = ScenarioConfig(
        seed=scenario.seed,
        heartbeat_interval=HEARTBEAT_INTERVAL,
        miss_threshold=MISS_THRESHOLD,
        queue_bound=QUEUE_BOUND,
        replicas=REPLICAS,
        students=STUDENTS,
        request_timeout=PROBE_TIMEOUT,
        deadline_budget=PROBE_BUDGET,
        shards=scenario.shards,
        topology=topology,
        **capacity_specs,
    )
    system = WhisperSystem(config)
    service = system.deploy_enrollment_service()
    if not scenario.epoch_fencing:
        for peer in service.all_peers():
            peer.coordinator_mgr.elector.epoch_fencing = False
        service.proxy.bindings.epoch_fencing = False
    return system, service


def run_schedule(scenario: CheckScenario, schedule: Schedule) -> RunResult:
    """Execute one (scenario, schedule) pair and audit it slice by slice."""
    system, service = _build_system(scenario)
    # Install the tiebreak before any perturbable traffic: deployment
    # events are already queued, but they precede the faulted window and
    # replays rebuild them identically either way.
    system.env.tiebreak = build_tiebreak(schedule.tiebreak)
    system.settle(scenario.settle)

    injector = DecisionFaultInjector(system, [service], schedule.ops)
    injector.install()
    registry = InvariantRegistry(queue_bound=QUEUE_BOUND)
    result = RunResult(hosts=sorted(injector.watched))

    env = system.env
    node = system.network.add_host("check-client")
    probes = {"ok": 0, "failed": 0}

    def one_probe(sequence: int):
        try:
            yield from service.invoke(
                "EnrollStudent",
                {
                    "ID": f"S{sequence % STUDENTS + 1:05d}",
                    "course": f"C{sequence:05d}",
                },
            )
        except (SoapFault, WhisperError):
            probes["failed"] += 1
        except Interrupt:
            return
        else:
            probes["ok"] += 1

    def driver():
        clock = 0.0
        sequence = 0
        while clock < scenario.probe_duration:
            node.spawn(one_probe(sequence), name=f"check-probe-{sequence}")
            sequence += 1
            yield env.timeout(PROBE_PERIOD)
            clock += PROBE_PERIOD

    node.spawn(driver(), name="check-driver")

    horizon = env.now + scenario.probe_duration + scenario.cooldown
    violations: List[str] = []
    while env.now < horizon:
        system.run_until(min(env.now + SLICE_SECONDS, horizon))
        result.timeline.append((env.now, injector.decisions))
        violations = registry.check_step([service])
        if violations:
            result.violated_at = env.now
            break
        # Ops fire at decision points, which can land deep inside the
        # cooldown window: convergence needs a full quiet cooldown AFTER
        # the last fault heals (membership anti-entropy alone takes an
        # announce period, then re-affirmation another watchdog tick), so
        # stretch the horizon accordingly.  Fired times are part of the
        # replayed trajectory, so the stretch is exactly reproducible.
        last_heal = max(
            (f["time"] + f["op"]["duration"] for f in injector.fired),
            default=0.0,
        )
        horizon = max(horizon, last_heal + scenario.cooldown)

    if not violations:
        violations = registry.check_final([service])
        if not violations:
            violations = _eventual_rebind_violations(system, service, node)
        if violations:
            result.violated_at = env.now

    injector.uninstall()
    result.violations = violations
    result.decisions = injector.decisions
    result.sim_time = env.now
    result.probes_ok = probes["ok"]
    result.probes_failed = probes["failed"]
    result.effects_applied = sum(effect_totals(service.all_peers()).values())
    result.fired = injector.fired
    result.skipped = injector.skipped
    return result


def _eventual_rebind_violations(system, service, node) -> List[str]:
    """Post-cooldown liveness: one probe must land within its budget.

    Every schedule is bounded (crashes restart, partitions heal), so
    after the cooldown the group must have re-elected and the proxy must
    be able to rebind and serve — if it cannot, recovery is broken even
    though no safety invariant tripped.
    """
    outcome: Dict[str, Any] = {}
    started = system.env.now

    def probe():
        try:
            yield from service.invoke(
                "EnrollStudent",
                {"ID": "S00001", "course": "C-rebind-final"},
            )
        except (SoapFault, WhisperError) as exc:
            outcome["error"] = f"{type(exc).__name__}: {exc}"

    system.env.run(until=node.spawn(probe(), name="check-rebind-probe"))
    elapsed = system.env.now - started
    if "error" in outcome:
        return [
            f"eventual-rebind: post-cooldown probe failed after "
            f"{elapsed:.3f}s ({outcome['error']})"
        ]
    if elapsed > PROBE_BUDGET:
        return [
            f"eventual-rebind: post-cooldown probe took {elapsed:.3f}s "
            f"(> budget {PROBE_BUDGET:.3f}s)"
        ]
    return []


# -- shrinking ----------------------------------------------------------------------


#: The most re-runs one shrink may spend.
MAX_SHRINK_RUNS = 48


def shrink_schedule(
    scenario: Scenario, schedule: Schedule
) -> Tuple[Schedule, RunRecord, int]:
    """ddmin the fault ops, then try dropping the tiebreak perturbation.

    The oracle is "the reduced schedule still violates *some* invariant"
    — a reduced schedule that trips a different checker is still a valid
    (and smaller) counterexample.  Returns the minimal schedule, its run
    result, and how many shrink runs were spent.
    """
    runs = 0
    best: Optional[RunRecord] = None

    def violates(candidate: Schedule) -> Optional[RunRecord]:
        nonlocal runs
        if runs >= MAX_SHRINK_RUNS:
            return None
        runs += 1
        outcome = scenario.run(candidate)
        return outcome if outcome.violations else None

    # Maybe the tiebreak alone already breaks it (no faults needed).
    if schedule.ops:
        bare = Schedule(tiebreak=schedule.tiebreak, ops=(), label=schedule.label)
        outcome = violates(bare)
        if outcome is not None:
            schedule, best = bare, outcome

    # ddmin over the op list: remove progressively smaller chunks.
    kept = list(range(len(schedule.ops)))
    granularity = 2
    while len(kept) >= 2 and runs < MAX_SHRINK_RUNS:
        chunk = max(1, len(kept) // granularity)
        reduced = False
        for start in range(0, len(kept), chunk):
            candidate_idx = kept[:start] + kept[start + chunk:]
            if not candidate_idx:
                continue
            candidate = Schedule(
                tiebreak=schedule.tiebreak,
                ops=tuple(schedule.ops[i] for i in candidate_idx),
                label=schedule.label,
            )
            outcome = violates(candidate)
            if outcome is not None:
                kept, best = candidate_idx, outcome
                granularity = max(2, granularity - 1)
                reduced = True
                break
        if not reduced:
            if chunk == 1:
                break
            granularity = min(len(kept), granularity * 2)
    minimal = Schedule(
        tiebreak=schedule.tiebreak,
        ops=tuple(schedule.ops[i] for i in kept),
        label=schedule.label,
    )

    # A counterexample that survives FIFO ordering is simpler still.
    if (minimal.tiebreak or {}).get("kind", "fifo") != "fifo" and runs < MAX_SHRINK_RUNS:
        fifo = Schedule(tiebreak=None, ops=minimal.ops, label=minimal.label)
        outcome = violates(fifo)
        if outcome is not None:
            minimal, best = fifo, outcome

    if best is None:
        # Nothing smaller violated (or the budget ran out on the first
        # probes): re-run the original to pin down its result.
        best = scenario.run(minimal)
        runs += 1
    return minimal, best, runs


# -- repro files --------------------------------------------------------------------


#: Repro ``format`` field -> the scenario class that replays the file.
_SCENARIOS = {cls.FORMAT: cls for cls in (CheckScenario, SagaCheckScenario)}


def save_repro(
    path: str,
    scenario: Scenario,
    schedule: Schedule,
    result: RunRecord,
) -> Dict[str, Any]:
    """Write a replayable counterexample file; returns its payload."""
    payload = {
        "format": scenario.FORMAT,
        "scenario": scenario.to_dict(),
        "schedule": schedule.to_dict(),
        "violations": result.violations,
        "violated_at": result.violated_at,
        "decisions": result.decisions,
        "sim_time": result.sim_time,
        "fired": result.fired,
        "digest": result.digest(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def load_repro(path: str) -> Tuple[Scenario, Schedule, Dict[str, Any]]:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    declared = payload.get("format") if isinstance(payload, dict) else None
    scenario_cls = _SCENARIOS.get(declared) if isinstance(declared, str) else None
    if scenario_cls is None:
        raise ValueError(
            f"{path}: not a repro file (format={declared!r}; "
            f"accepted: {', '.join(sorted(_SCENARIOS))})"
        )
    return (
        scenario_cls.from_dict(payload["scenario"]),
        Schedule.from_dict(payload["schedule"]),
        payload,
    )


def replay_repro(path: str) -> Tuple[bool, RunRecord, Dict[str, Any]]:
    """Re-execute a repro file; True iff the outcome digest matches."""
    scenario, schedule, expected = load_repro(path)
    result = scenario.run(schedule)
    return result.digest() == expected["digest"], result, expected


def _shrink_and_seal(
    scenario: Scenario,
    schedule: Schedule,
    result: RunRecord,
    repro_path: Optional[str],
) -> Tuple[Schedule, RunRecord, int, Optional[bool]]:
    """What every found violation goes through: shrink, save, replay.

    Returns the minimal schedule, its result, the shrink runs spent, and
    whether the saved file replayed to the same digest (``None`` when no
    ``repro_path`` was given, so nothing was saved).
    """
    shrunk, shrunk_result, shrink_runs = (
        shrink_schedule(scenario, schedule)
        if schedule.ops
        else (schedule, result, 0)
    )
    replay_ok = None
    if repro_path:
        save_repro(repro_path, scenario, shrunk, shrunk_result)
        replay_ok, _replayed, _expected = replay_repro(repro_path)
    return shrunk, shrunk_result, shrink_runs, replay_ok


# -- the explorer -------------------------------------------------------------------


@dataclass
class ExploreReport:
    """What one ``repro check`` invocation did and found."""

    seeds: List[int] = field(default_factory=list)
    schedules_per_seed: int = 0
    runs: int = 0
    shrink_runs: int = 0
    truncated: bool = False
    #: Set when a violation was found: seed, schedules, violations, paths.
    found: Optional[Dict[str, Any]] = None

    @property
    def clean(self) -> bool:
        return self.found is None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seeds": list(self.seeds),
            "schedules_per_seed": self.schedules_per_seed,
            "runs": self.runs,
            "shrink_runs": self.shrink_runs,
            "truncated": self.truncated,
            "clean": self.clean,
            "found": self.found,
        }

    def format(self) -> str:
        lines = [
            f"schedule exploration — seeds {self.seeds}, "
            f"{self.schedules_per_seed} schedules/seed, {self.runs} runs"
            + (" (wall-clock budget hit)" if self.truncated else ""),
        ]
        if self.found is None:
            lines.append("  invariants    : all hold on every explored schedule")
            return "\n".join(lines)
        found = self.found
        lines.append(
            f"  COUNTEREXAMPLE (seed={found['seed']}, "
            f"schedule #{found['schedule_index']})"
        )
        lines.append(f"  schedule      : {found['schedule']}")
        lines.append(
            f"  shrunk to     : {found['shrunk_schedule']} "
            f"({self.shrink_runs} shrink runs)"
        )
        for violation in found["violations"]:
            lines.append(f"    - {violation}")
        if found.get("repro_path"):
            replay = "verified" if found.get("replay_ok") else "FAILED TO REPLAY"
            lines.append(f"  repro file    : {found['repro_path']} ({replay})")
        return "\n".join(lines)


@dataclass
class ScheduleExplorer:
    """Run many perturbed schedules per root seed; shrink what breaks."""

    scenario: Scenario
    seeds: Sequence[int]
    schedules_per_seed: int
    max_ops: int = 4
    time_budget: Optional[float] = None
    repro_path: Optional[str] = None

    def explore(self) -> ExploreReport:
        report = ExploreReport(
            seeds=list(self.seeds), schedules_per_seed=self.schedules_per_seed
        )
        deadline = (
            time.monotonic() + self.time_budget
            if self.time_budget is not None
            else None
        )
        for seed in self.seeds:
            scenario = self.scenario.replace(seed=seed)
            unperturbed = scenario.baseline_schedule()
            baseline = scenario.run(unperturbed)
            report.runs += 1
            if baseline.violations:
                # The unperturbed run already violates: report it as a
                # counterexample with an empty schedule (nothing to shrink).
                self._record_found(report, scenario, unperturbed, baseline, -1)
                return report
            sampler = scenario.schedules(baseline, self.max_ops)
            for index in range(self.schedules_per_seed):
                if deadline is not None and time.monotonic() > deadline:
                    report.truncated = True
                    return report
                schedule = next(sampler)
                result = scenario.run(schedule)
                report.runs += 1
                if result.violations:
                    self._record_found(report, scenario, schedule, result, index)
                    return report
        return report

    def _record_found(
        self,
        report: ExploreReport,
        scenario: Scenario,
        schedule: Schedule,
        result: RunRecord,
        schedule_index: int,
    ) -> None:
        shrunk, shrunk_result, shrink_runs, replay_ok = _shrink_and_seal(
            scenario, schedule, result, self.repro_path
        )
        report.shrink_runs = shrink_runs
        report.runs += shrink_runs
        found: Dict[str, Any] = {
            "seed": scenario.seed,
            "schedule_index": schedule_index,
            "schedule": schedule.describe(),
            "shrunk_schedule": shrunk.describe(),
            "violations": shrunk_result.violations,
            "violated_at": shrunk_result.violated_at,
            "original_violations": result.violations,
        }
        if replay_ok is not None:
            found["repro_path"] = self.repro_path
            found["replay_ok"] = replay_ok
            report.runs += 1
        report.found = found


# -- the self-tests: seeded defects the checker must catch --------------------------


def _decision_near(timeline: Sequence[Tuple[float, int]], at_time: float) -> int:
    """The decision count just before ``at_time`` on a baseline timeline."""
    last = 0
    for when, count in timeline:
        if when > at_time:
            break
        last = count
    return max(1, last)


def _depose_then_kill(
    baseline: RunResult,
    probe_start: float,
    partition_offset: float,
    kill_gap: float,
    tiebreak_seed: Optional[int],
) -> Schedule:
    """The canonical split-brain schedule the fencing exists to stop.

    Partition the coordinator (the group elects a successor and the proxy
    starts delivering the successor's higher-epoch results), heal, then
    kill the successor: the unfenced proxy re-resolves first-answer-wins
    and can bind the deposed coordinator's stale claim, delivering an
    old-epoch result after a newer one.
    """
    partition_duration = 4.0
    partition_at = probe_start + partition_offset
    kill_at = partition_at + partition_duration + kill_gap
    tiebreak = (
        {"kind": "shuffle", "seed": tiebreak_seed}
        if tiebreak_seed is not None
        else None
    )
    return Schedule(
        tiebreak=tiebreak,
        ops=(
            FaultOp(
                at_decision=_decision_near(baseline.timeline, partition_at),
                action="partition-coordinator",
                duration=partition_duration,
            ),
            FaultOp(
                at_decision=_decision_near(baseline.timeline, kill_at),
                action="crash-coordinator",
                duration=6.0,
            ),
        ),
        label="depose-then-kill",
    )


def _prove_teeth(
    scenario: Scenario,
    variants: Callable[[RunRecord], Iterator[Schedule]],
    repro_path: Optional[str],
    time_budget: Optional[float],
) -> Dict[str, Any]:
    """The pipeline both self-tests run against their seeded defect.

    Baseline, then the directed ``variants`` (built from the baseline,
    so they can aim at its timeline) until an invariant trips; the
    violating schedule must then shrink and replay — through
    ``repro_path`` when given, in place otherwise.  ``ok`` is True only
    if a violation was found *and* replayed to the same digest.
    """
    deadline = (
        time.monotonic() + time_budget if time_budget is not None else None
    )
    schedule = Schedule(label="baseline")
    result = scenario.run(schedule)
    outcome: Dict[str, Any] = {
        "ok": False,
        "seed": scenario.seed,
        "tries": 0,
        "baseline_violations": result.violations,
    }
    if not result.violations:
        # The defect needs provoking: walk the directed schedules.
        for schedule in variants(result):
            if deadline is not None and time.monotonic() > deadline:
                outcome["truncated"] = True
                return outcome
            result = scenario.run(schedule)
            outcome["tries"] += 1
            if result.violations:
                break
        else:
            # Every variant ran clean: the checker has no teeth (ok=False).
            return outcome
    shrunk, shrunk_result, shrink_runs, replay_ok = _shrink_and_seal(
        scenario, schedule, result, repro_path
    )
    outcome["violations"] = result.violations
    outcome["schedule"] = schedule.describe()
    outcome["shrunk_schedule"] = shrunk.describe()
    outcome["shrunk_violations"] = shrunk_result.violations
    outcome["shrink_runs"] = shrink_runs
    if replay_ok is not None:
        outcome["repro_path"] = repro_path
        outcome["replay_ok"] = replay_ok
        outcome["ok"] = replay_ok
    else:
        # Replay in place of a file round-trip: same schedule, same digest.
        outcome["ok"] = scenario.run(shrunk).digest() == shrunk_result.digest()
    return outcome


def self_test(
    seed: int = 42,
    repro_path: Optional[str] = None,
    time_budget: Optional[float] = None,
) -> Dict[str, Any]:
    """Prove the checker catches what fencing prevents.

    Runs the scenario **with the electors' and the proxy's epoch fence
    disabled** under directed depose-then-kill schedules (varying timing
    offsets and shuffle seeds) until an invariant trips, then requires
    shrink + repro-file replay to succeed.  Returns a structured outcome;
    ``ok`` is True only if a violation was found, shrunk, and replayed
    byte-identically.
    """
    scenario = CheckScenario(seed=seed, epoch_fencing=False)
    partition_offsets = (1.0, 1.6, 2.2, 0.6)
    kill_gaps = (0.8, 1.6)
    tiebreak_seeds: Tuple[Optional[int], ...] = (None, 1, 2, 3, 5, 8, 13, 21, 34)

    def variants(baseline: RunResult) -> Iterator[Schedule]:
        for tb_seed in tiebreak_seeds:
            for offset in partition_offsets:
                for gap in kill_gaps:
                    yield _depose_then_kill(
                        baseline, scenario.settle, offset, gap, tb_seed
                    )

    return _prove_teeth(scenario, variants, repro_path, time_budget)


def saga_self_test(
    seed: int = 42,
    repro_path: Optional[str] = None,
    time_budget: Optional[float] = None,
) -> Dict[str, Any]:
    """Prove the atomicity audit catches what compensation prevents.

    Runs the loan scenario **with compensation disabled**: a failed saga
    abandons its partial effects (the registered-but-never-reserved loan
    stranded in the CRUD store), which the invariant must flag.  The
    insolvent submissions trip it on the unperturbed baseline already
    (saga 0 asks for more than its tier allows) — no faults needed, the
    defect is in the (disabled) recovery logic itself — so there is no
    directed walk: a quiet baseline is a checker without teeth.
    """
    scenario = SagaCheckScenario(seed=seed, compensation_enabled=False)
    return _prove_teeth(scenario, lambda _baseline: iter(()), repro_path, time_budget)
