"""Adaptive-capacity bench: a diurnal trace against elastic vs static.

The adaptive-capacity layer (ROADMAP item 5) claims three things at
once; this bench prices each of them on one reproducible diurnal trace —
quiet morning → ramp → wide-working-set peak → hot-key read-heavy
cool-down → quiet evening:

* **Elasticity pays.**  An autoscaled deployment (2..6 replicas, queue
  pressure watermarks) must burn at most ``0.6x`` the replica-hours of a
  statically max-provisioned one while giving up at most two points of
  availability and keeping success-latency p99 within ``1.5x``.
* **The semantic cache earns its keep where semantics repeat.**  During
  the peak the working set exceeds the cache, so replicas feel the load
  and scaling is honestly exercised; during the hot-key phase the cache
  must serve at least half the reads — and it must never serve a value
  from a fenced (pre-failover) epoch.
* **The breaker fails fast and heals.**  A drill crashes every replica,
  requires the breaker to trip (converting timeout storms into immediate
  rejections), then restarts them and requires a half-open probe to
  re-close it — with every trip justified by window evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..backend.datasets import student_database
from ..backend.services import ServiceImplementation, student_lookup_operational
from ..core.autoscale import AutoscaleSpec
from ..core.breaker import BreakerSpec
from ..core.config import ScenarioConfig
from ..core.errors import CircuitOpenError, WhisperError
from ..core.rescache import ResultCacheSpec
from ..core.system import DeployedService, WhisperSystem
from ..check.invariants import (
    autoscale_violations,
    breaker_violations,
    rescache_violations,
    retirement_violations,
)
from ..soap.fault import SoapFault
from ..wsdl.samples import student_management_wsdl
from .harness import Progress, bench_record, format_assertions, quiet
from .stats import percentile
from .workload import PoissonWorkload

__all__ = [
    "Phase",
    "build_capacity_system",
    "diurnal_phases",
    "format_record",
    "run_breaker_drill",
    "run_capacity",
    "run_diurnal",
]

#: Uniform replica service time: each replica's knee is ~100 req/s.
SERVICE_TIME = 0.010
#: Elastic band for the autoscaled deployment; the static baseline is
#: provisioned at the band's ceiling.
MIN_REPLICAS = 2
MAX_REPLICAS = 6
#: Student records in every operational store — the ceiling on distinct
#: lookup keys a phase may cycle through.
STUDENTS = 2000

AUTOSCALE = AutoscaleSpec(
    min_replicas=MIN_REPLICAS,
    max_replicas=MAX_REPLICAS,
    # Scale *early*: ~0.5 outstanding per replica is roughly 50%
    # utilisation, so growth triggers while queues are still shallow and
    # the diurnal ramp's steps never build a deep backlog.  The low
    # watermark sits far below it and the EWMA smooths instantaneous
    # idle samples, so a mid-burst lull never flaps the group down.
    high_watermark=0.5,
    low_watermark=0.15,
    cooldown=1.25,
    interval=0.5,
    smoothing=0.4,
)
BREAKER = BreakerSpec(window=16, min_calls=8, failure_threshold=0.75, open_duration=2.0)
CACHE = ResultCacheSpec(capacity=256, staleness_bound=2.0)


@dataclass(frozen=True)
class Phase:
    """One leg of the diurnal trace."""

    name: str
    rate: float
    duration: float
    #: Distinct student IDs the phase cycles through.  Wider than the
    #: cache during the peak (honest load), a handful during the
    #: read-heavy phase (the cache's home turf).
    key_space: int

    def arguments(self) -> Callable[[int], Dict[str, Any]]:
        span = self.key_space

        def factory(index: int) -> Dict[str, Any]:
            return {"ID": f"S{(index % span) + 1:05d}"}

        return factory


def diurnal_phases(scale: str = "full") -> Tuple[Phase, ...]:
    """The trace: quiet → stepped ramp → peak → read-heavy → quiet.

    The ramp rises in steps (as diurnal load does) rather than jumping
    straight to the peak: a reactive controller can only avoid deep
    queues if demand grows no faster than one scaling decision per step.
    Smoke halves only the heavy phases (peak, read-heavy): the ramp
    steps *are* the adaptation window, and the quiet phases are where
    elasticity pays — shrinking either skews the transient's weight or
    the replica-hours ratio, while costing almost nothing to keep.
    """
    stretch = 1.0 if scale == "full" else 0.5
    return (
        Phase("quiet-am", rate=30.0, duration=12.0, key_space=200),
        Phase("ramp-1", rate=80.0, duration=3.0, key_space=1000),
        Phase("ramp-2", rate=140.0, duration=3.0, key_space=1000),
        Phase("ramp-3", rate=200.0, duration=3.0, key_space=1000),
        Phase("peak", rate=250.0, duration=10.0 * stretch, key_space=STUDENTS),
        Phase("read-heavy", rate=80.0, duration=10.0 * stretch, key_space=8),
        Phase("quiet-pm", rate=30.0, duration=12.0, key_space=200),
    )


def build_capacity_system(
    mode: str,
    seed: int = 42,
    queue_bound: int = 8,
) -> Tuple[WhisperSystem, DeployedService]:
    """Deploy the uniform student-lookup service in one of two shapes.

    ``"autoscaled"`` starts at the elastic floor with the autoscaler,
    breaker, and semantic cache armed; ``"static-max"`` pins
    ``MAX_REPLICAS`` plain replicas (no capacity layer at all) — the
    provision-for-peak baseline the gates price the elastic mode against.
    """

    def implementation(index: int) -> ServiceImplementation:
        impl = student_lookup_operational(student_database(STUDENTS))
        impl.service_time = SERVICE_TIME
        return impl

    if mode not in ("autoscaled", "static-max"):
        raise ValueError(f"unknown capacity mode {mode!r}")
    elastic = mode == "autoscaled"
    replicas = MIN_REPLICAS if elastic else MAX_REPLICAS
    config = ScenarioConfig(
        seed=seed,
        replicas=replicas,
        students=STUDENTS,
        load_sharing=True,
        queue_bound=queue_bound,
        autoscale=AUTOSCALE if elastic else None,
        circuit_breaker=BREAKER if elastic else None,
        result_cache=CACHE if elastic else None,
    )
    system = WhisperSystem(config)
    service = system.deploy_service(
        student_management_wsdl(),
        [implementation(index) for index in range(replicas)],
        web_host="web0",
        replica_factory=implementation if elastic else None,
    )
    return system, service


def run_diurnal(
    mode: str,
    phases: Sequence[Phase],
    seed: int = 42,
    settle: float = 6.0,
    call_timeout: float = 10.0,
) -> Dict[str, Any]:
    """Drive the full trace against one deployment; return its ledger."""
    system, service = build_capacity_system(mode, seed=seed)
    system.settle(settle)
    controller = service.autoscalers[0] if service.autoscalers else None
    started = system.env.now
    replica_base = (
        controller.replica_seconds_total(started) if controller is not None else 0.0
    )
    cache = service.proxy.result_cache
    per_phase: List[Dict[str, Any]] = []
    latencies: List[float] = []
    totals = {"requests": 0, "successes": 0, "shed": 0, "faults": 0, "timeouts": 0}
    for phase in phases:
        hits0 = cache.hits if cache is not None else 0
        misses0 = cache.misses if cache is not None else 0
        workload = PoissonWorkload(
            system,
            service.address,
            service.path,
            "StudentInformation",
            rate=phase.rate,
            duration=phase.duration,
            call_timeout=call_timeout,
            arguments=phase.arguments(),
            rng_stream=f"capacity-{phase.name}",
        )
        result = workload.run()
        latencies.extend(result.latencies)
        for key in totals:
            totals[key] += getattr(result, key)
        hits = (cache.hits - hits0) if cache is not None else 0
        misses = (cache.misses - misses0) if cache is not None else 0
        lookups = hits + misses
        answered = bool(result.latencies)
        per_phase.append(
            {
                "phase": phase.name,
                "rate": phase.rate,
                "duration_s": phase.duration,
                "requests": result.requests,
                "availability": result.availability,
                "shed": result.shed,
                "p50_ms": percentile(result.latencies, 50) * 1000 if answered else 0.0,
                "p99_ms": percentile(result.latencies, 99) * 1000 if answered else 0.0,
                "cache_hits": hits,
                "cache_misses": misses,
                "cache_hit_ratio": (hits / lookups) if lookups else 0.0,
                "replicas_after": (
                    len(controller.active_peers())
                    if controller is not None
                    else len(service.group.peers)
                ),
            }
        )
    finished = system.env.now
    wall = finished - started
    if controller is not None:
        replica_seconds = controller.replica_seconds_total(finished) - replica_base
        violations = (
            autoscale_violations(service.autoscalers)
            + retirement_violations(service.autoscalers)
            + breaker_violations(service.proxy)
            + rescache_violations(service.proxy)
        )
        scale_events = [
            {"at": event.at - started, "direction": event.direction,
             "replicas": event.replicas}
            for event in controller.events
        ]
    else:
        replica_seconds = len(service.group.peers) * wall
        violations, scale_events = [], []
    requests = totals["requests"]
    return {
        "mode": mode,
        "wall_s": wall,
        "requests": requests,
        "availability": (totals["successes"] / requests) if requests else 1.0,
        "shed": totals["shed"],
        "faults": totals["faults"],
        "timeouts": totals["timeouts"],
        "p50_ms": percentile(latencies, 50) * 1000 if latencies else 0.0,
        "p99_ms": percentile(latencies, 99) * 1000 if latencies else 0.0,
        "replica_seconds": replica_seconds,
        "scale_events": scale_events,
        "stale_epoch_serves": cache.stale_epoch_serves if cache is not None else 0,
        "phases": per_phase,
        "invariant_violations": violations,
    }


def run_breaker_drill(seed: int = 42, settle: float = 6.0) -> Dict[str, Any]:
    """Trip the breaker on a dead group, then heal it through a probe."""
    system = WhisperSystem(
        ScenarioConfig(
            seed=seed,
            replicas=2,
            load_sharing=True,
            circuit_breaker=BreakerSpec(
                window=8, min_calls=2, failure_threshold=0.5, open_duration=2.0
            ),
            request_timeout=0.5,
            deadline_budget=2.0,
        )
    )
    service = system.deploy_student_service()
    system.settle(settle)
    node, _soap = system.add_client("drill-client")
    outcomes: List[str] = []

    def invoke(count: int, gap: float):
        for _ in range(count):
            try:
                yield from service.invoke("StudentInformation", {"ID": "S00001"})
            except CircuitOpenError:
                outcomes.append("rejected")
            except (SoapFault, WhisperError):
                outcomes.append("failed")
            else:
                outcomes.append("ok")
            yield system.env.timeout(gap)

    system.run_process(invoke(3, 0.2), node=node)
    for peer in service.group.peers:
        peer.node.crash()
    system.run_process(invoke(6, 0.3), node=node)
    tripped = "rejected" in outcomes
    for peer in service.group.peers:
        peer.node.restart()
    system.settle(6.0)
    system.run_process(invoke(3, 0.3), node=node)
    breaker = next(iter(service.proxy._breakers.values()))
    return {
        "outcomes": outcomes,
        "tripped": tripped,
        "rejections": system.obs.metrics.counter("breaker.rejected").value,
        "healed": outcomes[-1] == "ok" and breaker.state == "closed",
        "transitions": [
            (transition.source, transition.target) for transition in breaker.transitions
        ],
        "unjustified_trips": breaker_violations(service.proxy),
    }


def run_capacity(
    scale: str = "full",
    seed: int = 42,
    progress: Progress = quiet,
) -> Dict[str, Any]:
    """The full adaptive-capacity measurement; the BENCH_capacity record."""
    phases = diurnal_phases(scale)
    progress("diurnal trace, autoscaled (2..6 replicas + breaker + cache) ...")
    autoscaled = run_diurnal("autoscaled", phases, seed=seed)
    progress(f"diurnal trace, static-max ({MAX_REPLICAS} replicas) ...")
    static = run_diurnal("static-max", phases, seed=seed)
    progress("breaker drill (trip on dead group, heal through probe) ...")
    drill = run_breaker_drill(seed=seed)

    ratio = (
        autoscaled["replica_seconds"] / static["replica_seconds"]
        if static["replica_seconds"]
        else 1.0
    )
    hot = next(p for p in autoscaled["phases"] if p["phase"] == "read-heavy")
    assertions = {
        "replica_hours_economical": ratio <= 0.6,
        "availability_parity": (
            static["availability"] - autoscaled["availability"] <= 0.02
        ),
        "p99_within_band": autoscaled["p99_ms"] <= 1.5 * static["p99_ms"],
        "scaled_up_and_down": (
            any(e["direction"] == "up" for e in autoscaled["scale_events"])
            and any(e["direction"] == "down" for e in autoscaled["scale_events"])
        ),
        "cache_hot_phase_hits": hot["cache_hit_ratio"] >= 0.5,
        "zero_stale_epoch_serves": autoscaled["stale_epoch_serves"] == 0,
        "capacity_invariants_clean": not autoscaled["invariant_violations"],
        "breaker_trips_and_heals": (
            drill["tripped"] and drill["healed"] and not drill["unjustified_trips"]
        ),
    }
    body = {
        "scale": scale,
        "seed": seed,
        "autoscaled": autoscaled,
        "static_max": static,
        "replica_seconds_ratio": ratio,
        "breaker_drill": drill,
    }
    return bench_record("capacity", body, assertions)


def format_record(record: Dict[str, Any]) -> str:
    """Human-readable tables for one BENCH_capacity record."""
    lines: List[str] = []
    for run in (record["autoscaled"], record["static_max"]):
        lines.append(f"== diurnal trace: {run['mode']} ==")
        lines.append(
            f"{'phase':>11} {'rate':>6} {'reqs':>6} {'avail':>7} {'shed':>5} "
            f"{'p99':>8} {'hit%':>5} {'repl':>5}"
        )
        for phase in run["phases"]:
            lines.append(
                f"{phase['phase']:>11} {phase['rate']:>5.0f}/s {phase['requests']:>6} "
                f"{phase['availability']:>7.4f} {phase['shed']:>5} "
                f"{phase['p99_ms']:>6.1f}ms {phase['cache_hit_ratio']*100:>4.0f}% "
                f"{phase['replicas_after']:>5}"
            )
        lines.append(
            f"overall: avail={run['availability']:.4f} p99={run['p99_ms']:.1f}ms "
            f"replica-seconds={run['replica_seconds']:.1f} "
            f"stale-epoch-serves={run['stale_epoch_serves']}"
        )
        if run["scale_events"]:
            moves = ", ".join(
                f"{e['direction']}@{e['at']:.1f}s→{e['replicas']}"
                for e in run["scale_events"]
            )
            lines.append(f"scale events: {moves}")
        lines.append("")
    lines.append(
        f"replica-hours: autoscaled / static-max = "
        f"{record['replica_seconds_ratio']:.3f} (gate <= 0.6)"
    )
    drill = record["breaker_drill"]
    lines.append(
        "breaker drill: "
        + " ".join(drill["outcomes"])
        + f" | rejections={drill['rejections']} transitions={drill['transitions']}"
    )
    lines.append("")
    lines.append(format_assertions(record))
    return "\n".join(lines)
