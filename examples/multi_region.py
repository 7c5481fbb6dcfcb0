#!/usr/bin/env python3
"""Multi-region deployment: nearest-region binding and WAN failover.

Declares a three-region WAN topology as one ``Topology`` value, deploys
the §3 StudentInformation service *replicated per region* (one b-peer
group in each, discovered across regions by the gossip layer), then:

1. shows the SWS-proxy binding to its home region's group (single-digit
   millisecond RTTs, no WAN hop on the request path);
2. crashes every replica in the home region and shows the proxy failing
   over to the nearest surviving region — correct, one WAN RTT slower.

Run:  python examples/multi_region.py
"""

from __future__ import annotations

from repro.core import ScenarioConfig, WhisperSystem
from repro.core.topology import GossipSpec, RegionSpec, Topology, WanLinkSpec


def main() -> None:
    print("=== Whisper multi-region: 3 regions, gossip discovery ===\n")

    # The whole network shape is one declarative value: per-region LANs,
    # asymmetric WAN links with jitter, and the gossip tuning that
    # spreads advertisements between the regions' rendezvous peers.
    topology = Topology(
        regions=(RegionSpec("eu"), RegionSpec("us"), RegionSpec("ap")),
        wan_links=(
            WanLinkSpec("eu", "us", latency="lognormal:40ms±15ms"),
            WanLinkSpec("eu", "ap", latency="lognormal:120ms±30ms",
                        latency_back="lognormal:140ms±30ms"),
            WanLinkSpec("us", "ap", latency="lognormal:90ms±20ms"),
        ),
        gossip=GossipSpec(fanout=2, interval=0.5),
        home_region="eu",
    )
    system = WhisperSystem(ScenarioConfig(seed=7, replicas=2, topology=topology))
    service = system.deploy_student_service()
    system.settle(10.0)

    print(f"home region : {system.topology.home}")
    for region in system.topology.region_names():
        group = service.region_group_for("StudentInformation", region)
        gossip = system.gossip[region]
        print(
            f"  {region}: group {group.name} "
            f"({len(group.peers)} replicas), "
            f"{len(gossip.entries)} gossiped advertisements"
        )
    print()

    log = []

    def call(student):
        started = system.env.now
        result = yield from service.invoke(
            "StudentInformation", {"ID": student}, timeout=8.0, budget=30.0
        )
        log.append((student, result.value["name"], system.env.now - started))

    def workload():
        # Three calls served from the home region...
        for student in ("S00001", "S00002", "S00003"):
            yield from call(student)
        # ...then the whole home region's replica set dies.
        home_group = service.region_group_for(
            "StudentInformation", system.topology.home
        )
        for peer in home_group.peers:
            system.failures.crash_at(system.env.now, peer.node.name)
        yield system.env.timeout(2.0)
        for student in ("S00004", "S00005"):
            yield from call(student)

    system.run_process(workload(), node=service.proxy.node)

    print(f"{'student':>8}  {'name':<20} {'rtt':>10}")
    print("-" * 44)
    for index, (student, name, rtt) in enumerate(log):
        marker = "   <- home region crashed" if index == 3 else ""
        print(f"{student:>8}  {name:<20} {rtt * 1000:>8.1f}ms{marker}")

    stats = service.proxy.stats
    print(
        f"\nnearest-region binds: {stats.region_preferred}, "
        f"cross-region failovers: {stats.region_failovers}"
    )


if __name__ == "__main__":
    main()
