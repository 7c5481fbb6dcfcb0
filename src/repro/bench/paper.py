"""The paper's four experiments (§5), one definition each.

``python -m repro fig4 | rtt | failover | availability``, the benchmark
files ``benchmarks/test_<x>.py`` and the EXPERIMENTS.md tables all read
the ``run_*`` below, so each experiment has one protocol, one seed and
one answer.  Every runner returns the record the later benches return
(:func:`repro.bench.harness.bench_record`): its rows plus the paper's
*qualitative shape* — who wins, by roughly what factor, where the knees
are — as named ``assertions``, since absolute numbers depend on the
(simulated) testbed.

* **Figure 4** — messages exchanged in a steady-state window grow
  linearly with the number of b-peers.
* **RTT, failure-free** — the monitor's packet-level RTT averages
  ≈ 0.5 ms on the 100 Mbit LAN; end-to-end SOAP invocations stack a few
  such exchanges and land in the low milliseconds.
* **RTT, worst case** — a coordinator crash costs the affected request
  seconds (detection + election, then re-binding), and the detection
  period is the dominant term.
* **Availability vs. replication (Ablation B)** — under host churn the
  fraction of fixed-period probes answered climbs with the replica count
  and beats the §1 plain Web service decisively.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from ..backend.datasets import student_database
from ..backend.services import student_lookup_operational
from ..core.config import ScenarioConfig
from ..core.system import WhisperSystem
from ..simnet import Environment, Network, RngRegistry
from .harness import Progress, bench_record, format_assertions, quiet
from .report import ascii_plot, format_phase_breakdown, format_table
from .stats import linear_fit, percentile, summarize
from .workload import ClosedLoopWorkload, ProbeWorkload, student_arguments

__all__ = [
    "format_availability",
    "format_failover",
    "format_fig4",
    "format_rtt",
    "run_availability",
    "run_failover",
    "run_fig4",
    "run_rtt",
]

#: The paper's testbed had 9 machines; the sweep goes past it to show the trend.
FIG4_BPEERS = (2, 4, 6, 8, 10, 12, 16, 20, 24)
FIG4_WINDOW = 20.0

#: Heartbeat intervals of the worst-case RTT's detection-period sweep.
DETECTION_SWEEP = (0.25, 0.5, 1.0, 2.0)

#: Ablation B: exponential host churn, fixed-period probes, seeds averaged.
REPLICA_COUNTS = (1, 2, 4, 6)
AVAILABILITY_SEEDS = 3
MTBF = 25.0
MTTR = 20.0
PROBE_PERIOD = 0.4
PROBE_TIMEOUT = 2.0


# -- Figure 4 ---------------------------------------------------------------------------


def _fig4_point(replicas: int, seed: int) -> Dict[str, Any]:
    system = WhisperSystem(ScenarioConfig(seed=seed, replicas=replicas))
    service = system.deploy_student_service()
    system.settle(6.0)
    workload = ClosedLoopWorkload(
        system, service.address, service.path, "StudentInformation",
        clients=2, think_time=0.1, requests_per_client=10,
    ).run()
    # Let any startup-election tail quiesce, then count every message for
    # a fixed steady-state window.
    system.run_until(system.env.now + 5.0)
    system.reset_counters()
    system.run_until(system.env.now + FIG4_WINDOW)
    sent = system.trace.category_breakdown()
    return {
        "bpeers": replicas,
        "messages": system.trace.sent_total,
        "heartbeat": sent.get("heartbeat", 0),
        "membership": sent.get("group-renew", 0)
        + sent.get("resolver-query", 0)
        + sent.get("resolver-response", 0),
        "lease": sent.get("rdv-lease", 0),
        "workload_availability": workload.availability,
    }


def run_fig4(
    max_peers: int = 16, seed: int = 42, progress: Progress = quiet
) -> Dict[str, Any]:
    """Figure 4: every message on the network in a 20 s steady-state window
    (heartbeats, membership renewals, roster queries, lease renewals) vs.
    the number of b-peers, with a least-squares check of linearity."""
    rows = []
    for replicas in (n for n in FIG4_BPEERS if n <= max_peers):
        progress(f"{replicas} b-peers ...")
        rows.append(_fig4_point(replicas, seed))
    xs = [float(row["bpeers"]) for row in rows]
    ys = [float(row["messages"]) for row in rows]
    fit = linear_fit(xs, ys)
    components = {
        column: linear_fit(xs, [float(row[column]) for row in rows])
        for column in ("heartbeat", "membership")
    }
    middle = len(rows) // 2
    assertions = {
        # The paper's claim: good linear horizontal scalability.
        "messages_linear_in_bpeers": fit.r_squared > 0.98,
        "more_bpeers_more_messages": fit.slope > 0
        and all(a <= b for a, b in zip(ys, ys[1:])),
        # Doubling the peers must not quadruple the messages.
        "no_quadratic_blowup": ys[-1] / ys[middle] < xs[-1] / xs[middle] * 1.5,
        # The linearity decomposes: heartbeats and membership maintenance
        # both scale linearly with group size (the mechanism behind it).
        "components_linear": all(
            c.r_squared > 0.95 and c.slope > 0 for c in components.values()
        ),
        "workload_fully_answered": all(
            row["workload_availability"] == 1.0 for row in rows
        ),
    }
    body = {
        "seed": seed,
        "window_s": FIG4_WINDOW,
        "rows": rows,
        "fit": {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "r_squared": fit.r_squared,
        },
    }
    return bench_record("fig4", body, assertions)


def format_fig4(record: Dict[str, Any]) -> str:
    columns = ["bpeers", "messages", "heartbeat", "membership", "lease"]
    rows = record["rows"]
    fit = record["fit"]
    return "\n".join([
        format_table(
            ["b-peers"] + columns[1:],
            [[row[c] for c in columns] for row in rows],
            title=(
                f"Figure 4 — messages exchanged in a {record['window_s']:.0f}s "
                "steady-state window vs. number of b-peers"
            ),
        ),
        "",
        ascii_plot(
            [float(row["bpeers"]) for row in rows],
            [float(row["messages"]) for row in rows],
            x_label="b-peers", y_label="messages",
        ),
        "",
        f"fit: messages = {fit['slope']:.1f} x peers {fit['intercept']:+.1f} "
        f"(r² = {fit['r_squared']:.5f})",
        format_assertions(record),
    ])


# -- §5 RTT, failure-free ---------------------------------------------------------------


def _packet_rtts(samples: int, seed: int) -> List[float]:
    """The paper's monitor: time-stamped request/reply packet pairs."""
    env = Environment()
    network = Network(env, rng=RngRegistry(seed))
    server = network.add_host("server")
    client = network.add_host("client")
    server_socket = server.transport.bind(7000)
    client_socket = client.transport.bind(7001)

    def echo():
        while True:
            message = yield server_socket.recv()
            server_socket.send(
                message.src, payload=message.payload, category="echo-reply",
                size_bytes=512, correlation_id=message.correlation_id,
            )

    server.spawn(echo())

    def monitor():
        for sequence in range(samples):
            network.trace.stamp_request(sequence, env.now)
            client_socket.send(
                ("server", 7000), payload=sequence, category="echo-request",
                size_bytes=512, correlation_id=sequence,
            )
            yield client_socket.recv()
            network.trace.stamp_reply(sequence, env.now)
            yield env.timeout(0.005)

    env.run(until=client.spawn(monitor()))
    return network.trace.rtts()


def _summary_ms(seconds: Sequence[float]) -> Dict[str, float]:
    summary = summarize([value * 1000 for value in seconds])
    return {
        "samples": summary.count,
        "mean": summary.mean,
        "p50": summary.p50,
        "p95": summary.p95,
        "p99": summary.p99,
        "max": summary.maximum,
    }


def run_rtt(
    samples: int = 200, seed: int = 42, progress: Progress = quiet
) -> Dict[str, Any]:
    """Failure-free RTT at both levels: the monitor's packet pairs on the
    LAN, and full-stack SOAP invocations against a healthy deployment with
    the observability layer's attribution of where the time went."""
    progress("packet-level RTT (the paper's monitor) ...")
    packet = _summary_ms(_packet_rtts(samples, seed))

    progress("end-to-end SOAP invocations ...")
    system = WhisperSystem(ScenarioConfig(seed=seed, replicas=4))
    service = system.deploy_student_service()
    system.settle(6.0)
    latencies = ClosedLoopWorkload(
        system, service.address, service.path, "StudentInformation",
        clients=1, think_time=0.01, requests_per_client=samples,
    ).run().latencies
    service_rtt = _summary_ms(latencies)
    phases = system.obs.phase_summary()

    assertions = {
        # The paper reports ~0.5 ms average; accept the right order of magnitude.
        "packet_rtt_about_half_a_millisecond": packet["samples"] == samples
        and 0.2 < packet["mean"] < 1.0,
        # Failure-free: tightly clustered, no multi-second outliers.
        "packet_rtt_tight": packet["max"] < 5.0 and packet["p99"] < packet["p50"] * 4,
        # Warm steady state: a handful of LAN round trips plus service time
        # (the first call may include discovery).
        "service_rtt_low_milliseconds": service_rtt["p50"] < 20.0
        and service_rtt["max"] < 1500.0,
        # Every request spent time invoking, none recovering, and the
        # backend's service time is inside the invoke phase.
        "all_invoked_none_recovered": phases["invoke"]["count"] == samples
        and phases["recover"]["count"] == 0,
        "execute_within_invoke": phases["execute"]["mean"] < phases["invoke"]["mean"],
    }
    body = {
        "seed": seed,
        "samples": samples,
        "packet_ms": packet,
        "service_ms": service_rtt,
        "phases": phases,
    }
    return bench_record("rtt", body, assertions)


def format_rtt(record: Dict[str, Any]) -> str:
    def table(summary: Dict[str, float], title: str) -> str:
        return format_table(
            ["metric", "ms"], [[k, v] for k, v in summary.items()], title=title
        )

    return "\n".join([
        table(record["packet_ms"], "§5 packet-level RTT (paper: average ≈ 0.5 ms)"),
        "",
        table(record["service_ms"], "End-to-end invocation RTT (failure-free)"),
        "",
        format_phase_breakdown(
            record["phases"], title="Attribution: which phase the time went to"
        ),
        format_assertions(record),
    ])


# -- §5 RTT, worst case -----------------------------------------------------------------


def _failover_run(heartbeat: float, seed: int) -> Dict[str, Any]:
    """Eight sequential requests; the coordinator crashes after the second."""
    system = WhisperSystem(
        ScenarioConfig(seed=seed, heartbeat_interval=heartbeat, replicas=4)
    )
    service = system.deploy_student_service()
    system.settle(8.0)
    victim = service.group.coordinator_peer()
    system.failures.crash_at(system.env.now + 1.2, victim.node.name)
    latencies = ClosedLoopWorkload(
        system, service.address, service.path, "StudentInformation",
        clients=1, think_time=0.5, requests_per_client=8, call_timeout=120.0,
    ).run().latencies
    stats = service.proxy.stats
    return {
        "rtt_s": latencies,
        "rebinds": stats.rebinds,
        "timeouts": stats.timeouts,
        "failover_durations_s": list(stats.failover_durations),
    }


def run_failover(
    heartbeat: float = 1.0, seed: int = 42, progress: Progress = quiet
) -> Dict[str, Any]:
    """Worst-case RTT: the request that meets a crashed coordinator, and how
    that RTT moves with the failure-detection period (interval × misses)."""
    runs = {}
    for interval in sorted({heartbeat, *DETECTION_SWEEP}):
        progress(f"coordinator crash at heartbeat {interval}s ...")
        runs[interval] = _failover_run(interval, seed)
    crash = runs[heartbeat]
    worst = max(crash["rtt_s"])
    common = percentile(crash["rtt_s"], 50)
    sweep = [
        {"heartbeat_s": interval, "worst_rtt_s": max(runs[interval]["rtt_s"])}
        for interval in DETECTION_SWEEP
    ]
    by_period = [point["worst_rtt_s"] for point in sweep]
    assertions = {
        # The paper's claim: common case milliseconds, worst case *seconds*.
        "common_case_milliseconds": common < 0.05,
        "worst_case_seconds": 1.0 < worst < 60.0,
        "bimodal": worst / common > 50,
        # §5's second factor: the proxy re-bound, and recorded the failover.
        "proxy_rebound": crash["rebinds"] >= 1 and bool(crash["failover_durations_s"]),
        # Slower detection, slower failover; 8x the period clearly shows.
        "tracks_detection_period": all(
            a <= b * 1.25 for a, b in zip(by_period, by_period[1:])
        )
        and by_period[-1] > by_period[0] * 2,
    }
    body = {
        "seed": seed,
        "heartbeat_s": heartbeat,
        "requests": [
            {"request": index, "rtt_ms": rtt * 1000}
            for index, rtt in enumerate(crash["rtt_s"])
        ],
        "rebinds": crash["rebinds"],
        "timeouts": crash["timeouts"],
        "failover_durations_s": crash["failover_durations_s"],
        "detection_sweep": sweep,
    }
    return bench_record("failover", body, assertions)


def format_failover(record: Dict[str, Any]) -> str:
    return "\n".join([
        format_table(
            ["request", "rtt (ms)"],
            [[row["request"], row["rtt_ms"]] for row in record["requests"]],
            title=(
                "Coordinator crash after request 2 — §5 worst case "
                f"(heartbeat {record['heartbeat_s']}s)"
            ),
        ),
        f"proxy re-binds: {record['rebinds']}, "
        f"timeouts masked: {record['timeouts']}",
        "",
        format_table(
            ["heartbeat interval (s)", "worst rtt (s)"],
            [[p["heartbeat_s"], p["worst_rtt_s"]] for p in record["detection_sweep"]],
            title="Worst-case RTT vs. failure-detection period",
        ),
        format_assertions(record),
    ])


# -- Ablation B: availability vs. replication -------------------------------------------


def _availability_under_churn(system, hosts, address, path, duration: float) -> float:
    """Churn ``hosts`` and probe the service at a fixed period throughout."""
    system.failures.churn(
        hosts, mtbf=MTBF, mttr=MTTR, until=system.env.now + duration
    )
    node, soap = system.add_client("avail-client", timeout=PROBE_TIMEOUT)

    def probe(sequence: int):
        return soap.call(
            address, path, "StudentInformation",
            student_arguments(sequence), timeout=PROBE_TIMEOUT,
        )

    return ProbeWorkload(
        system, node, probe, period=PROBE_PERIOD, duration=duration
    ).run().availability


def _whisper_availability(replicas: int, seed: int, duration: float) -> float:
    system = WhisperSystem(
        ScenarioConfig(
            seed=seed, heartbeat_interval=0.5, miss_threshold=2, replicas=replicas
        )
    )
    service = system.deploy_student_service()
    system.settle(6.0)
    hosts = [peer.node.name for peer in service.group.peers]
    return _availability_under_churn(
        system, hosts, service.address, service.path, duration
    )


def _plain_availability(seed: int, duration: float) -> float:
    """The no-Whisper baseline: one host, no redundancy (§1)."""
    system = WhisperSystem(ScenarioConfig(seed=seed))
    plain = system.deploy_plain_service(
        "StudentManagement", student_lookup_operational(student_database())
    )
    system.settle(2.0)
    return _availability_under_churn(
        system, [plain.node.name], plain.address, plain.path, duration
    )


def run_availability(
    replicas: int = 6,
    duration: float = 180.0,
    seed: int = 42,
    progress: Progress = quiet,
) -> Dict[str, Any]:
    """Availability under churn vs. replication degree, up to ``replicas``,
    against the §1 plain Web service; each row averages consecutive seeds."""
    seeds = list(range(seed, seed + AVAILABILITY_SEEDS))
    rows = []
    # Degree 0 is the plain Web service: no b-peer group at all.
    for degree in [0] + [n for n in REPLICA_COUNTS if n <= replicas]:
        configuration = f"whisper x{degree}" if degree else "plain web service"
        progress(f"{configuration} ...")
        per_seed = [
            _whisper_availability(degree, s, duration)
            if degree
            else _plain_availability(s, duration)
            for s in seeds
        ]
        rows.append({
            "configuration": configuration,
            "replicas": degree,
            "availability": sum(per_seed) / len(per_seed),
            "per_seed": per_seed,
        })

    availability = {r["replicas"]: r["availability"] for r in rows}
    plain = availability.pop(0)
    degrees = sorted(availability)
    assertions = {
        # A single Whisper replica cannot beat physics: comparable to plain.
        "one_replica_comparable_to_plain": abs(availability[1] - plain) < 0.25,
    }
    if len(degrees) > 1:
        # Redundancy pays: a second replica helps outright, and further
        # ones never hurt (monotone within noise, saturating).
        assertions["availability_grows_with_replicas"] = (
            availability[2] > availability[1]
            and all(
                availability[b] >= availability[a] - 0.02
                for a, b in zip(degrees[1:], degrees[2:])
            )
        )
    if 4 in availability:
        # Four replicas mask most churn (the residual is failover windows)
        # and cut unavailability by well over 2x vs the §1 baseline.
        assertions["four_replicas_mask_most_churn"] = (
            availability[4] > 0.85 and availability[4] > availability[1] + 0.15
        )
        assertions["unavailability_halved_vs_plain"] = (
            1.0 - plain > 2.0 * (1.0 - availability[4])
        )
    body = {
        "seed": seed,
        "seeds": seeds,
        "duration_s": duration,
        "mtbf_s": MTBF,
        "mttr_s": MTTR,
        "probe_period_s": PROBE_PERIOD,
        "rows": rows,
    }
    return bench_record("availability", body, assertions)


def format_availability(record: Dict[str, Any]) -> str:
    return "\n".join([
        format_table(
            ["configuration", "availability"],
            [[row["configuration"], row["availability"]] for row in record["rows"]],
            title=(
                f"Availability under churn vs. replication — Ablation B "
                f"(MTBF={record['mtbf_s']:.0f}s, MTTR={record['mttr_s']:.0f}s, "
                f"{record['duration_s']:.0f}s run, seeds {record['seeds']})"
            ),
        ),
        format_assertions(record),
    ])
