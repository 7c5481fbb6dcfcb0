"""Ablation E — Whisper vs. client-side failover (the prior art of [2, 3]).

The paper differentiates Whisper from earlier Web-service fault-tolerance
work by its *transparency*: clients keep calling one ordinary Web service;
redundancy, election, and re-binding happen behind it.  The classic
alternative replicates plain endpoints and makes every client (stub)
retry across them.

This bench runs both under identical churn and reports availability and
the client-visible configuration burden.  Expected shape: comparable
availability at equal replication (client-side failover even recovers
faster — one per-endpoint timeout vs. detection+election) — the paper's
argument is not raw availability but transparency and scalability, which
the table makes explicit.
"""

from __future__ import annotations

import pytest

from repro.backend import student_database, student_lookup_operational
from repro.bench import ProbeWorkload, format_table, student_arguments
from repro.core import ScenarioConfig, WhisperSystem
from repro.soap import SoapClient

from .baselines import FailoverSoapClient, ReplicatedPlainService

RUN_SECONDS = 120.0
PROBE_PERIOD = 0.4
CALL_TIMEOUT = 2.0
MTBF = 25.0
MTTR = 20.0
REPLICAS = 3
SEEDS = (7, 17, 27)


def _probe_availability(system, make_call) -> float:
    """Fixed-period probes from a fresh host; ``make_call(node)`` returns
    the per-sequence call that host's stub makes."""
    node = system.network.add_host(f"probe-host-{system.env.now}")
    return ProbeWorkload(
        system, node, make_call(node), period=PROBE_PERIOD, duration=RUN_SECONDS
    ).run().availability


def measure_whisper(seed: int) -> float:
    system = WhisperSystem(
        ScenarioConfig(
            seed=seed, heartbeat_interval=0.5, miss_threshold=2, replicas=REPLICAS
        )
    )
    service = system.deploy_student_service()
    system.settle(6.0)
    system.failures.churn(
        [peer.node.name for peer in service.group.peers],
        mtbf=MTBF, mttr=MTTR, until=system.env.now + RUN_SECONDS,
    )

    def make_call(node):
        soap = SoapClient(node, default_timeout=CALL_TIMEOUT)
        return lambda sequence: soap.call(
            service.address, service.path, "StudentInformation",
            student_arguments(sequence), timeout=CALL_TIMEOUT,
        )

    return _probe_availability(system, make_call)


def measure_client_side(seed: int) -> float:
    system = WhisperSystem(ScenarioConfig(seed=seed))
    replicated = ReplicatedPlainService(
        system, "StudentManagement",
        [student_lookup_operational(student_database()) for _ in range(REPLICAS)],
    )
    system.settle(2.0)
    system.failures.churn(
        [host.name for host in replicated.hosts()],
        mtbf=MTBF, mttr=MTTR, until=system.env.now + RUN_SECONDS,
    )

    def make_call(node):
        stub = FailoverSoapClient(
            node, replicated.endpoints, replicated.path,
            per_endpoint_timeout=CALL_TIMEOUT / REPLICAS,
        )
        return lambda sequence: stub.call(
            "StudentInformation", student_arguments(sequence)
        )

    return _probe_availability(system, make_call)


@pytest.mark.paper
def test_whisper_matches_client_side_availability_transparently(benchmark, show):
    def run():
        whisper = sum(measure_whisper(seed) for seed in SEEDS) / len(SEEDS)
        client_side = sum(measure_client_side(seed) for seed in SEEDS) / len(SEEDS)
        return whisper, client_side

    whisper, client_side = benchmark.pedantic(run, rounds=1, iterations=1)
    show(format_table(
        ["approach", "availability", "client must know"],
        [
            ["whisper (server-side)", whisper, "1 service URL"],
            ["client-side failover [3]", client_side, f"{REPLICAS} replica URLs"],
        ],
        title=(
            f"Ablation E — fault-tolerance approach under churn "
            f"(x{REPLICAS}, MTBF={MTBF:.0f}s)"
        ),
    ))
    # Both approaches mask most churn...
    assert whisper > 0.80
    assert client_side > 0.80
    # ...and land in the same ballpark (client-side failover recovers a bit
    # faster: one short timeout vs. detection + election).
    assert abs(whisper - client_side) < 0.15
