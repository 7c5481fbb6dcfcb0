"""One run of one workload: set up, warm up, time a window, read the layers.

Everything here watches the product from outside: host clocks around
``env.run`` slices, and deltas of public counters (``MessageTrace``,
``ProxyStats``, ``JournalStats``, the obs registry, backend ledgers)
between the start and the end of the timed window.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.check.invariants import effect_totals
from repro.obs.metrics import Histogram

from hostspeed import slowdown
from layers import HARNESS, LayerTracer, product_tracer
from metrics import PHASES
from probes import run_probes
from workloads import Workload

__all__ = ["SETUPS", "SIZED_FOR_SECONDS", "RunResult", "run_workload", "window_slices"]

#: Set-ups per run; ``setup_s`` is their median and the last one is measured.
SETUPS = 5
#: ``--seconds`` this many gives each workload its ``window_sim``.
SIZED_FOR_SECONDS = 10.0
#: Share of a traced run's window that runs before the hook goes in, so
#: the same process yields the untraced cost the overhead ratio is over.
#: Half, because the hook doubles to triples the cost of every traced
#: slice and a traced run has to fit the same time budget.
UNTRACED_SHARE = 0.5

_PROXY_COUNTERS = (
    "invocations", "timeouts", "rebinds", "remote_discoveries", "redirects",
    "deduped", "shard_routed", "shard_failovers", "breaker_rejected",
    "cache_hits", "cache_misses",
)
_OBS_COUNTERS = (
    "bpeer.shed", "bpeer.duplicate_suppressed", "election.won",
    "breaker.open", "breaker.half_open",
)
_JOURNAL_COUNTERS = ("hits", "evictions", "duplicates_suppressed")


@dataclass
class Slice:
    """Host and sim cost of one ``env.run`` slice of the timed window."""

    wall: float
    cpu: float
    completed: int
    ok: int
    traced: bool
    #: Host slowdown against the reference around this slice (hostspeed.py).
    slowdown: float


@dataclass
class RunResult:
    attempted: int
    failed: int
    #: Failed correctness checks; empty = the run's outputs are correct.
    violations: List[str]
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    #: Context that is not a metric: window size, sample counts, the
    #: traced region's mean CPU cost (what the layer self times sum to).
    info: Dict[str, Any]


def _run_until_completed(workload: Workload, requests: int) -> None:
    """Advance in 1-sim-second steps (the stopping point repeats exactly)."""
    env = workload.env
    while workload.rec.completed < requests:
        env.run(until=env.now + 1.0)


def set_up(workload_class, seed: int):
    """Build, deploy, settle and warm up.

    Returns ``(workload, seconds, slowdown)``: wall seconds as measured
    and the host slowdown around them.
    """
    before = slowdown()
    started = time.perf_counter()
    workload = workload_class(seed)
    _run_until_completed(workload, workload.warmup)
    elapsed = time.perf_counter() - started
    return workload, elapsed, (before + slowdown()) / 2.0


def window_slices(workload_class, seconds: float) -> int:
    """Slices in the timed window for ``--seconds``.

    The window is fixed on the *simulated* clock — ``window_sim``
    simulated seconds per :data:`SIZED_FOR_SECONDS` asked for, which is
    about that many host seconds on the box the constants were sized on
    — so one seed always serves the identical request sequence, whatever
    the host, the commit or the tracer do to the wall clock.
    """
    share = seconds / SIZED_FOR_SECONDS
    return max(
        workload_class.min_slices,
        round(workload_class.window_sim * share / workload_class.slice_sim),
    )


def _snapshot(workload: Workload) -> Dict[str, Any]:
    """Raw public counters, cumulative since the system was built."""
    system = workload.system
    trace = system.trace
    registry = system.obs.metrics
    stats = [service.proxy.stats for service in workload.services()]
    peers = workload.peers()
    phases = {}
    for phase in PHASES:
        histogram = registry.histograms.get(f"phase.{phase}")
        phases[phase] = (
            (histogram.count, histogram.total) if histogram is not None else (0, 0.0)
        )
    depth = registry.histograms.get("bpeer.queue_depth")
    rec = workload.rec
    return {
        "sim": workload.env.now,
        "events": workload.env.events_processed,
        "sent": trace.sent_total,
        "bytes": trace.bytes_total,
        "dropped": trace.dropped_total,
        "category": Counter(trace.sent_by_category),
        "proxy": Counter(
            {
                name: sum(getattr(proxy_stats, name) for proxy_stats in stats)
                for name in _PROXY_COUNTERS
            }
        ),
        "failovers": [len(proxy_stats.failover_durations) for proxy_stats in stats],
        "obs": Counter(
            {
                name: registry.counters[name].value
                for name in _OBS_COUNTERS
                if name in registry.counters
            }
        ),
        "phases": phases,
        "queue_depth": list(depth.bucket_counts) if depth is not None else None,
        "journal": Counter(
            {
                name: sum(getattr(peer.journal.stats, name) for peer in peers)
                for name in _JOURNAL_COUNTERS
            }
        ),
        "executed": Counter(
            {
                group.name: sum(peer.implementation.invocations for peer in group.peers)
                for service in workload.services()
                for group in service.all_groups()
            }
        ),
        "invalidated": sum(
            service.proxy.result_cache.invalidated
            for service in workload.services()
            if service.proxy.result_cache is not None
        ),
        "gc": sum(generation["collections"] for generation in gc.get_stats()),
        "rec": (rec.ok, rec.failed, rec.wrong),
        "latencies": len(rec.latencies),
        "envelopes": (
            rec.envelope_samples, rec.envelope_bytes_req, rec.envelope_bytes_resp
        ),
    }


def _percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    rank = max(1, -(-int(q * 1000) * len(ordered) // 1000))
    return ordered[min(rank, len(ordered)) - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _queue_depth_p99(workload: Workload, before: Optional[List[int]]) -> float:
    histogram = workload.system.obs.metrics.histograms.get("bpeer.queue_depth")
    if histogram is None:
        return 0.0
    window = Histogram("window", histogram.bounds)
    window.bucket_counts = [
        after - (before[index] if before is not None else 0)
        for index, after in enumerate(histogram.bucket_counts)
    ]
    window.count = sum(window.bucket_counts)
    window.min, window.max = histogram.min, histogram.max
    return window.quantile(0.99) or 0.0


def _count_metrics(workload, before, after, requests, cpu_seconds) -> Dict[str, float]:
    """The per-layer counts, as deltas over the window."""
    sim = after["sim"] - before["sim"]
    category = after["category"] - before["category"]
    proxy = after["proxy"] - before["proxy"]
    obs = after["obs"] - before["obs"]
    journal = after["journal"] - before["journal"]
    events = after["events"] - before["events"]
    services = workload.services()
    failovers = sorted(
        duration
        for service, start in zip(services, before["failovers"])
        for duration in service.proxy.stats.failover_durations[start:]
    )
    samples, bytes_req, bytes_resp = (
        a - b for a, b in zip(after["envelopes"], before["envelopes"])
    )
    counts = {
        "simnet.events_per_req": _ratio(events, requests),
        "simnet.events_per_cpu_s": _ratio(events, cpu_seconds),
        "simnet.msgs_dropped": after["dropped"] - before["dropped"],
        "soap.envelope_bytes_req": _ratio(bytes_req, samples),
        "soap.envelope_bytes_resp": _ratio(bytes_resp, samples),
        "core.proxy.attempts_per_req": _ratio(
            category["bpeer-request"],
            proxy["invocations"] - proxy["cache_hits"] - proxy["breaker_rejected"],
        ),
        "core.proxy.timeouts": proxy["timeouts"],
        "core.proxy.rebinds": proxy["rebinds"],
        "core.proxy.remote_discoveries": proxy["remote_discoveries"],
        "core.proxy.redirects": proxy["redirects"],
        "core.proxy.deduped": proxy["deduped"],
        "core.proxy.failover_p50_sim_s": (
            _percentile(failovers, 0.5) if failovers else 0.0
        ),
        "core.proxy.failover_max_sim_s": failovers[-1] if failovers else 0.0,
        "core.bpeer.shed": obs["bpeer.shed"],
        "core.bpeer.queue_depth_p99": _queue_depth_p99(workload, before["queue_depth"]),
        "core.bpeer.duplicate_suppressed": obs["bpeer.duplicate_suppressed"],
        "core.journal.entries": max(len(peer.journal) for peer in workload.peers()),
        "core.journal.hits": journal["hits"],
        "core.journal.evictions_per_req": _ratio(journal["evictions"], requests),
        "core.journal.duplicates_suppressed": journal["duplicates_suppressed"],
        "election.elections": obs["election.won"],
        "election.msgs_per_election": _ratio(category["election"], obs["election.won"]),
        "election.heartbeat_msgs_per_sim_s": _ratio(category["heartbeat"], sim),
        "p2p.resolver_msgs_per_req": _ratio(
            category["resolver-query"] + category["resolver-response"], requests
        ),
        "p2p.pipe_msgs_per_req": _ratio(
            sum(n for name, n in category.items() if name.startswith("bpeer-")),
            requests,
        ),
        "core.sharding.routed_per_req": _ratio(proxy["shard_routed"], requests),
        "core.sharding.failovers": proxy["shard_failovers"],
        "core.rescache.hit_ratio": _ratio(
            proxy["cache_hits"], proxy["cache_hits"] + proxy["cache_misses"]
        ),
        "core.rescache.flushes": after["invalidated"] - before["invalidated"],
        "core.rescache.entries": sum(
            len(service.proxy.result_cache)
            for service in services
            if service.proxy.result_cache is not None
        ),
        "core.breaker.rejected": proxy["breaker_rejected"],
        "core.breaker.transitions": obs["breaker.open"] + obs["breaker.half_open"],
        "obs.traces_retained": len(workload.system.obs.traces),
        "run.gc_collections": after["gc"] - before["gc"],
    }
    for phase in PHASES:
        count = after["phases"][phase][0] - before["phases"][phase][0]
        total = after["phases"][phase][1] - before["phases"][phase][1]
        counts[f"core.proxy.phase.{phase}_sim_ms"] = _ratio(total, count) * 1000.0

    executed = after["executed"] - before["executed"]
    counts["backend.exec_per_req"] = _ratio(sum(executed.values()), requests)
    # Imbalance over the busiest operation's shard groups (1.0 = even;
    # unsharded deployments have one group per operation, hence 0).
    sharded = [
        [executed[group.name] for group in groups]
        for service in services
        for groups in service.shard_groups.values()
        if len(groups) > 1
    ]
    busiest = max(sharded, key=sum, default=None)
    counts["core.sharding.imbalance"] = (
        _ratio(max(busiest), sum(busiest) / len(busiest)) if busiest else 0.0
    )
    return counts


def _saga_metrics(workload, window_start: float) -> Dict[str, float]:
    log = workload.log
    if log is None:
        return {
            "workflow.steps_per_saga": 0.0,
            "workflow.compensations_per_saga": 0.0,
            "workflow.log_records": 0,
        }
    records = [
        record
        for record in log.records()
        if record.terminal and record.finished_at > window_start
    ]
    states = Counter(
        step.state for record in records for step in record.steps
    )
    return {
        "workflow.steps_per_saga": _ratio(
            states["committed"] + states["compensated"], len(records)
        ),
        "workflow.compensations_per_saga": _ratio(states["compensated"], len(records)),
        "workflow.log_records": len(log),
    }


def _per_request(slices: List[Slice]) -> List[float]:
    """Scaled CPU-ms per request, slice by slice."""
    return [s.cpu * 1000.0 / s.completed / s.slowdown for s in slices if s.completed]


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(
    workload_class,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    spans_path: Optional[str] = None,
) -> RunResult:
    """One run: set up, soak, time ``window_slices(seconds)`` slices, audit."""
    run_started = time.perf_counter()
    setup_seconds = []
    setup_raw = []
    workload = None
    for _ in range(SETUPS):
        # Free the previous system first, so peak RSS is one system's.
        workload = None
        gc.collect()
        workload, elapsed, slow = set_up(workload_class, seed)
        setup_raw.append(elapsed)
        setup_seconds.append(elapsed / slow)
    soak_started = time.perf_counter()
    _run_until_completed(workload, workload.smoke_soak if smoke else workload.soak)
    soak_seconds = time.perf_counter() - soak_started

    env = workload.env
    rec = workload.rec
    tracer: Optional[LayerTracer] = product_tracer() if trace else None
    before = _snapshot(workload)
    workload.begin_faults()
    slices: List[Slice] = []
    total = window_slices(workload_class, seconds)
    lead_in = max(1, round(total * UNTRACED_SHARE)) if tracer is not None else 0
    slow_before = slowdown()
    for index in range(total):
        tracing = tracer is not None and index >= lead_in
        completed, ok = rec.completed, rec.ok
        if tracing:
            workload.tracer = tracer
            tracer.start()
        cpu, wall = time.process_time(), time.perf_counter()
        env.run(until=env.now + workload.slice_sim)
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        if tracing:
            tracer.stop()
        slow_after = slowdown()
        slices.append(
            Slice(
                wall=wall,
                cpu=cpu,
                completed=rec.completed - completed,
                ok=rec.ok - ok,
                traced=tracing,
                slowdown=(slow_before + slow_after) / 2.0,
            )
        )
        slow_before = slow_after
    workload.tracer = None
    after = _snapshot(workload)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ok, failed, wrong = (a - b for a, b in zip(after["rec"], before["rec"]))
    completed = ok + failed + wrong
    latencies = sorted(rec.latencies[before["latencies"]:])
    sim = after["sim"] - before["sim"]
    cpu_seconds = sum(s.cpu for s in slices)

    per_request = _per_request(slices)
    end_to_end = {
        "cpu_ms_per_req": statistics.median(per_request),
        "wall_rps": statistics.median(s.ok / s.wall * s.slowdown for s in slices),
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": peak_rss_mb,
        "sim_p50_ms": _percentile(latencies, 0.50) * 1000.0,
        "sim_p99_ms": _percentile(latencies, 0.99) * 1000.0,
        "sim_goodput_rps": ok / sim,
        "ok_share": ok / completed,
        "msgs_per_req": (after["sent"] - before["sent"]) / completed,
        "bytes_per_req": (after["bytes"] - before["bytes"]) / completed,
    }

    workload.drain()
    violations = workload.audit()
    if wrong:
        violations.append(f"{wrong} replies failed the answer check")
    if rec.attempted != rec.completed:
        violations.append(
            f"{rec.attempted} requests attempted, {rec.completed} accounted for"
        )

    per_layer = _count_metrics(workload, before, after, completed, cpu_seconds)
    per_layer.update(_saga_metrics(workload, before["sim"]))
    # Growth over slices of one kind: a traced run's untraced lead-in is
    # cheaper per request for a reason that is not growth.
    steady = _per_request([s for s in slices if s.traced == trace])
    quarter = max(1, len(steady) // 4)
    per_layer["run.cpu_growth_ratio"] = _ratio(
        _median(steady[-quarter:]), _median(steady[:quarter])
    )
    outages = workload.crash_outages()
    per_layer["run.unavail_sim_s"] = statistics.fmean(outages) if outages else 0.0
    per_layer["run.fail_share"] = (failed + wrong) / completed
    per_layer["backend.double_applied"] = sum(
        1 for count in effect_totals(workload.peers()).values() if count > 1
    )

    info: Dict[str, Any] = {
        "requests": completed,
        "latency_samples": len(latencies),
        "slices": len(slices),
        # As the clocks read, before scaling to the reference host speed.
        "raw_cpu_ms_per_req": _median(
            [s.cpu * 1000.0 / s.completed for s in slices if s.completed]
        ),
        "raw_wall_rps": statistics.median(s.ok / s.wall for s in slices),
        "raw_setup_s": statistics.median(setup_raw),
        "host_slowdown": statistics.median(s.slowdown for s in slices),
        "slice_cpu_ms_per_req": per_request,
        "sim_seconds": sim,
        "window_cpu_s": cpu_seconds,
        "window_wall_s": sum(s.wall for s in slices),
        "setup_samples": setup_seconds,
        "soak_s": soak_seconds,
        "soak_requests": sum(before["rec"]),
    }
    if tracer is not None:
        traced = [s for s in slices if s.traced]
        untraced = [s for s in slices if not s.traced]
        traced_requests = sum(s.completed for s in traced)
        for name, totals in tracer.totals().items():
            per_layer[f"{name}.self_us_per_req"] = _ratio(
                totals["self_ns"] / 1000.0, traced_requests
            )
            if name != HARNESS:
                per_layer[f"{name}.entries_per_req"] = _ratio(
                    totals["entries"], traced_requests
                )
        per_layer["run.trace_overhead_ratio"] = _ratio(
            _median(_per_request(traced)), _median(_per_request(untraced))
        )
        info["traced_requests"] = traced_requests
        info["traced_cpu_ms_per_req"] = _ratio(
            sum(s.cpu for s in traced) * 1000.0, traced_requests
        )
        info["traced_wall_ms_per_req"] = _ratio(
            sum(s.wall for s in traced) * 1000.0, traced_requests
        )
        info["spans"] = len(tracer.spans)
        if tracer.unpaired_returns:
            violations.append(
                f"layer tracer: {tracer.unpaired_returns} returns without a call "
                f"event, so the per-layer split is wrong"
            )
        per_layer.update(run_probes())
        if spans_path is not None:
            tracer.write_spans(spans_path)

    info["run_s"] = time.perf_counter() - run_started
    return RunResult(
        attempted=completed,
        failed=failed + wrong,
        violations=violations,
        end_to_end=end_to_end,
        per_layer=per_layer,
        info=info,
    )
